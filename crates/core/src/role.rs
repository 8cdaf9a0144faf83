//! Thread-role sanitizer: the runtime half of the audit's
//! thread-provenance contract.
//!
//! The static `ring-discipline` pass (DESIGN.md §15) computes, per
//! thread role, which shard/scratch resources that role may touch.
//! This module records what actually happens: role entry points call
//! [`enter`] (scoped by the returned guard), resource touch points call
//! [`touch`], and the audit drill drains [`observed_role_edges`] to
//! assert observed ⊆ static — the same shape as the `sync::Tracked`
//! lock-order drill.
//!
//! A touch with **no role entered is deliberately not recorded**:
//! `Monitor::sample` and the inline shard mode run everything on
//! whatever thread the caller owns, which the static lattice leaves
//! roleless unless that thread is an anchored one. Only code executing under a declared role
//! is held to the contract.
//!
//! In release builds everything here compiles to nothing, like the
//! lock sanitizer.

#[cfg(debug_assertions)]
mod record {
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    /// Global registry of observed `(role, resource)` pairs.
    static EDGES: Mutex<BTreeSet<(&'static str, &'static str)>> = Mutex::new(BTreeSet::new());

    thread_local! {
        /// Roles this thread is currently executing under, innermost
        /// last. Normally depth 1; nesting records under the innermost
        /// role only (a pump running a helper role is that helper).
        static ROLE: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn entered(role: &'static str) {
        ROLE.with(|r| r.borrow_mut().push(role));
    }

    pub(super) fn exited(role: &'static str) {
        ROLE.with(|r| {
            let mut r = r.borrow_mut();
            if let Some(pos) = r.iter().rposition(|&n| n == role) {
                r.remove(pos);
            }
        });
    }

    pub(super) fn touched(resource: &'static str) {
        ROLE.with(|r| {
            if let Some(&role) = r.borrow().last() {
                // Poison is harmless: the registry holds plain pairs.
                EDGES
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .insert((role, resource));
            }
        });
    }

    pub(super) fn edges() -> Vec<(&'static str, &'static str)> {
        EDGES
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .copied()
            .collect()
    }

    pub(super) fn clear() {
        EDGES
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }
}

/// Scope guard returned by [`enter`]; the role ends when it drops.
#[must_use = "the role ends when the guard drops"]
pub struct RoleGuard {
    #[cfg(debug_assertions)]
    role: &'static str,
}

#[cfg(debug_assertions)]
impl Drop for RoleGuard {
    fn drop(&mut self) {
        record::exited(self.role);
    }
}

/// Marks the current thread as executing role `role` until the guard
/// drops. Role names are the audit's role vocabulary (`driver`,
/// `shard-pump`, `collector-pump`, …).
pub fn enter(role: &'static str) -> RoleGuard {
    #[cfg(debug_assertions)]
    {
        record::entered(role);
        RoleGuard { role }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = role;
        RoleGuard {}
    }
}

/// Records that the current role touched `resource` (no-op when no
/// role is entered, and in release builds).
pub fn touch(resource: &'static str) {
    #[cfg(debug_assertions)]
    record::touched(resource);
    #[cfg(not(debug_assertions))]
    let _ = resource;
}

/// Drains nothing — returns a snapshot of every `(role, resource)`
/// pair observed since the last [`clear_observed_role_edges`]. Always
/// empty in release builds.
pub fn observed_role_edges() -> Vec<(&'static str, &'static str)> {
    #[cfg(debug_assertions)]
    {
        record::edges()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// Resets the observed-edge registry (audit drill setup).
pub fn clear_observed_role_edges() {
    #[cfg(debug_assertions)]
    record::clear();
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    // The registry is process-global and other tests (the shard suite,
    // once instrumented) record into it concurrently, so these asserts
    // use test-unique resource names and never assume exclusivity.

    #[test]
    fn touches_record_only_under_a_role_and_scope_with_the_guard() {
        touch("roletest.before");
        {
            let _g = enter("roletest-a");
            touch("roletest.during");
        }
        touch("roletest.after");
        let edges = observed_role_edges();
        assert!(
            edges.contains(&("roletest-a", "roletest.during")),
            "{edges:?}"
        );
        assert!(
            !edges
                .iter()
                .any(|(_, r)| *r == "roletest.before" || *r == "roletest.after"),
            "{edges:?}"
        );
    }

    #[test]
    fn nested_roles_attribute_to_the_innermost() {
        let _outer = enter("roletest-outer");
        {
            let _inner = enter("roletest-inner");
            touch("roletest.nested");
        }
        touch("roletest.outer");
        let edges = observed_role_edges();
        assert!(
            edges.contains(&("roletest-inner", "roletest.nested")),
            "{edges:?}"
        );
        assert!(
            edges.contains(&("roletest-outer", "roletest.outer")),
            "{edges:?}"
        );
        assert!(
            !edges.contains(&("roletest-outer", "roletest.nested")),
            "{edges:?}"
        );
    }
}
