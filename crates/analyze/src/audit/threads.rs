//! Thread-provenance lattice and the three thread passes.
//!
//! The sharded hot path (DESIGN.md §13) rests on invariants the lock
//! and effect passes cannot see: every [`ShardRing`] endpoint must be
//! touched by exactly one thread, channel endpoints must have a live
//! peer, and pump loops must stay non-blocking. This module makes those
//! invariants machine-checked.
//!
//! **Role inference.** A *thread role* names a class of OS threads
//! (`driver`, `shard-pump`, `collector-pump`, `agent`, `supervisor`).
//! Roles come from two places:
//!
//! 1. **Anchors** ([`ThreadConfig::role_roots`]): named functions that
//!    are by construction the entry point of a role's thread.
//! 2. **Spawn sites**: every `thread::spawn(…)` / `.spawn(…)` call
//!    whose argument list is non-empty (a `Command::spawn()` has no
//!    args) starts a new thread. Workspace functions called inside the
//!    spawn argument become roots of the spawned role — the anchor
//!    role when one of them is anchored, else a derived
//!    `spawn:<fn>@<file>` role.
//!
//! Each role's root set is closed over the call graph **with call
//! edges inside spawn arguments cut**: `run_threads` calling
//! `scope.spawn(move || shard_loop(…))` must not leak the driver role
//! into the pump. The result is a per-function set of roles — the
//! lattice the three passes consume:
//!
//! - **`ring-discipline`** — every `try_push_swap` endpoint (writer),
//!   `try_pop_swap` endpoint (reader), and declared per-role scratch
//!   resource must be reachable from at most one role. Sites no role
//!   reaches are ignored (a deliberate under-approximation: unreached
//!   code cannot race).
//! - **`channel-protocol`** — `let (tx, rx) = channel()/sync_channel()`
//!   pair bindings; flags endpoints never mentioned again in the file
//!   (the peer can wedge silently, the static twin of the §12
//!   header-stall deadline) and blocking `send`s on bounded channels
//!   inside a `Tracked` guard's held range.
//! - **`role-blocking`** — no function reachable from a pump role may
//!   carry a direct sleep/join/blocking-IO effect (the PR 6 bitmask),
//!   except blocking IO under [`ThreadConfig::io_exempt_prefixes`]
//!   (procfs reads *are* the measured work) and reviewed allowlist
//!   entries, which are stale-checked like every other allowlist.
//!
//! The analysis also exports the static `(role, resource)` edge set
//! ([`ThreadAnalysis::role_edges`]), the contract the runtime
//! counterpart (`zerosum-core::role` + the debug pinning on
//! `ShardWriter`/`ShardReader`) is drilled against: observed role
//! edges must be a subset of the static ones, mirroring the lock drill.

use super::callgraph::{CallGraph, SiteKind};
use super::effects::{self, EffectSet};
use super::items::ParsedFile;
use super::lexer::TokKind;
use super::locks::{receiver_path, LockAnalysis};
use super::Finding;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Files whose interior ring/registry use is the *implementation* of
/// the discipline being checked: the SPSC ring and the sanitizers.
const RING_IMPL_FILES: [&str; 3] = [
    "crates/stats/src/shard_ring.rs",
    "crates/core/src/sync.rs",
    "crates/core/src/role.rs",
];

fn is_ring_impl(file: &str) -> bool {
    RING_IMPL_FILES.iter().any(|f| file.ends_with(f))
}

/// Configuration for the thread-provenance passes.
#[derive(Debug, Clone, Copy)]
pub struct ThreadConfig<'a> {
    /// Role anchors: `(file_suffix, fn_name, role)`.
    pub role_roots: &'a [(&'a str, &'a str, &'a str)],
    /// Roles whose reachable cone must stay non-blocking.
    pub pump_roles: &'a [&'a str],
    /// Ring endpoint receiver idents: `(file_suffix, ident, resource)`.
    /// Maps a `try_push_swap`/`try_pop_swap` receiver binding to the
    /// runtime resource name `zerosum-core::role::touch` uses, so the
    /// static and observed edge sets speak the same vocabulary.
    pub endpoints: &'a [(&'a str, &'a str, &'a str)],
    /// Per-role scratch receiver idents: `(file_suffix, ident,
    /// resource)` — method receivers containing `ident` in `file` are
    /// touches of `resource`.
    pub scratch: &'a [(&'a str, &'a str, &'a str)],
    /// Declared non-ring role touches `(file_suffix, fn_name,
    /// resource)`: the static mirror of bare `role::touch` calls.
    pub role_touches: &'a [(&'a str, &'a str, &'a str)],
    /// File prefixes whose blocking IO is the measured work
    /// (watchdog-exempt procfs reads).
    pub io_exempt_prefixes: &'a [&'a str],
    /// Reviewed `role-blocking` sites `(file_suffix, fn, token, why)`.
    /// A stale entry fails the audit.
    pub blocking_allowlist: &'a [(&'a str, &'a str, &'a str, &'a str)],
}

impl ThreadConfig<'static> {
    /// No anchors, no resources — the fixture-test baseline (spawn
    /// sites still derive roles).
    pub const fn empty() -> ThreadConfig<'static> {
        ThreadConfig {
            role_roots: &[],
            pump_roles: &[],
            endpoints: &[],
            scratch: &[],
            role_touches: &[],
            io_exempt_prefixes: &[],
            blocking_allowlist: &[],
        }
    }
}

/// The repo's standard thread-provenance configuration.
pub const DEFAULT_THREADS: ThreadConfig<'static> = ThreadConfig {
    role_roots: &[
        // The sharded monitor's aggregation thread.
        ("crates/core/src/shard.rs", "run_threads", "driver"),
        // Each shard's pump loop (spawn-anchored from run_threads).
        ("crates/core/src/shard.rs", "shard_loop", "shard-pump"),
        // The collector daemon's per-round frame pump.
        (
            "crates/net/src/collector.rs",
            "pump_frames",
            "collector-pump",
        ),
        // The node agent's transport turn.
        ("crates/net/src/agent.rs", "tick", "agent"),
        // `Monitor::sample` drives the one-shard round on its caller's
        // thread (the attached sampling thread, spawn-anchored from
        // attach.rs): the same driver role as the N-shard driver, since
        // both own their monitor's round scratch.
        ("crates/core/src/monitor.rs", "sample", "driver"),
        // The drill canary: keeps the observed-⊆-static comparison
        // non-vacuous (see audit/drill.rs).
        (
            "crates/analyze/src/audit/drill.rs",
            "exercise_role_canary",
            "audit-canary",
        ),
    ],
    pump_roles: &["shard-pump", "collector-pump"],
    endpoints: &[
        ("crates/core/src/shard.rs", "jw", "core.shard.job"),
        ("crates/core/src/shard.rs", "jobs", "core.shard.job"),
        ("crates/core/src/shard.rs", "or", "core.shard.out"),
        ("crates/core/src/shard.rs", "results", "core.shard.out"),
    ],
    scratch: &[
        // The monitor's round scratch (taken out of `Monitor` for the
        // round and borrowed by the fold fns). Read arenas are not
        // listed: each lives in its shard batch and changes hands with
        // it through the rings.
        (
            "crates/core/src/shard.rs",
            "scratch",
            "core.shard.fold-scratch",
        ),
    ],
    role_touches: &[
        (
            "crates/net/src/collector.rs",
            "pump_frames",
            "net.collector.pump",
        ),
        (
            "crates/analyze/src/audit/drill.rs",
            "exercise_role_canary",
            "audit.drill.canary",
        ),
    ],
    io_exempt_prefixes: &["crates/procfs/src/"],
    blocking_allowlist: &[(
        "crates/core/src/shard.rs",
        "shard_loop",
        "thread::park",
        "idle wait by design; the driver unparks the pump on every dispatch and at shutdown",
    )],
};

/// One static `role -> resource` edge, with a representative witness
/// chain (role root first) for `--explain`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RoleEdge {
    /// The thread role.
    pub role: String,
    /// The touched resource (`<resource>.<writer|reader>` for ring
    /// endpoints, the bare resource for scratch and declared touches).
    pub resource: String,
    /// Shortest role-root → touching-fn chain.
    pub via: Vec<String>,
}

/// The result of the thread-provenance pass.
pub struct ThreadAnalysis {
    /// Findings across the three passes.
    pub findings: Vec<Finding>,
    /// The static role/resource contract (consumed by the role drill).
    pub role_edges: Vec<RoleEdge>,
    /// Distinct roles in the lattice.
    pub roles: usize,
    /// Functions carrying at least one role.
    pub role_fns: usize,
    /// Thread-spawn sites found.
    pub spawn_sites: usize,
}

/// Index of the `)` matching the `(` at `open` (or the last token when
/// unbalanced) — the paren twin of `ParsedFile::matching_brace`.
fn matching_paren(pf: &ParsedFile, open: usize) -> usize {
    let mut depth = 0usize;
    for i in open..pf.tokens.len() {
        match pf.tokens[i].kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    pf.tokens.len().saturating_sub(1)
}

/// The last path segment of `file` (`crates/core/src/shard.rs` →
/// `shard.rs`), for derived role names and fallback endpoint keys.
fn file_short(file: &str) -> &str {
    file.rsplit('/').next().unwrap_or(file)
}

/// The last meaningful segment of a normalized receiver path
/// (`self.scratch.watched_rss` → `watched_rss`; `jw` → `jw`).
fn last_segment(path: &str) -> &str {
    path.rsplit('.')
        .find(|s| !s.is_empty() && *s != "[_]" && *s != "()")
        .unwrap_or(path)
        .trim_end_matches("[_]")
        .trim_end_matches("()")
}

/// Token ranges of thread-spawn arguments inside one function body:
/// `.spawn(args)` / `thread::spawn(args)` with a non-empty argument
/// list. `sim.spawn_process(…)` (a different name) and
/// `Command::spawn()` (empty args) do not match.
fn spawn_arg_ranges(pf: &ParsedFile, node: &super::callgraph::FnNode) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    for s in &node.sites {
        if s.kind != SiteKind::Call || s.name != "spawn" {
            continue;
        }
        if !(s.method || s.qualifier.as_deref() == Some("thread")) {
            continue;
        }
        let open = s.token + 1;
        if !pf.is_punct(open, '(') || pf.is_punct(open + 1, ')') {
            continue;
        }
        let close = matching_paren(pf, open);
        if close > open + 1 {
            out.push(open + 1..close);
        }
    }
    out
}

/// BFS over an explicit callee list (the spawn-cut graph); same parent
/// encoding as `CallGraph::reach_from` so `path_chain` applies.
fn reach_over(callees: &[Vec<usize>], roots: &BTreeSet<usize>) -> Vec<Option<usize>> {
    let mut parent: Vec<Option<usize>> = vec![None; callees.len()];
    let mut queue: std::collections::VecDeque<usize> = Default::default();
    for &r in roots {
        if parent[r].is_none() {
            parent[r] = Some(usize::MAX);
            queue.push_back(r);
        }
    }
    while let Some(i) = queue.pop_front() {
        for &c in &callees[i] {
            if parent[c].is_none() {
                parent[c] = Some(i);
                queue.push_back(c);
            }
        }
    }
    parent
}

/// The computed lattice: per-role parent maps plus site-level spawn
/// overrides.
struct RoleLattice {
    /// role → BFS parent map over the spawn-cut graph.
    parents: BTreeMap<String, Vec<Option<usize>>>,
    /// fn → roles reaching it.
    fn_roles: Vec<BTreeSet<String>>,
    /// (fn, spawn-arg token range, spawned role) — sites inside run
    /// under the spawned role, not the enclosing function's.
    overrides: Vec<(usize, Range<usize>, String)>,
    spawn_sites: usize,
}

impl RoleLattice {
    /// Roles effective at token `t` of function `fi`.
    fn site_roles(&self, fi: usize, t: usize) -> BTreeSet<String> {
        for (f, range, role) in &self.overrides {
            if *f == fi && range.contains(&t) {
                return BTreeSet::from([role.clone()]);
            }
        }
        self.fn_roles[fi].clone()
    }

    /// Witness chain for role `role` reaching fn `fi` (falls back to
    /// the bare fn name for spawn-override sites).
    fn witness(&self, graph: &CallGraph, role: &str, fi: usize) -> Vec<String> {
        match self.parents.get(role) {
            Some(parents) if parents[fi].is_some() => graph.path_chain(parents, fi),
            _ => vec![graph.fns[fi].item.name.clone()],
        }
    }
}

/// Builds the role lattice: anchors + spawn-derived roots, closed over
/// the spawn-cut call graph.
fn build_lattice(graph: &CallGraph, cfg: &ThreadConfig) -> RoleLattice {
    let n = graph.fns.len();

    // Anchored roles.
    let mut anchor_role: BTreeMap<usize, &str> = BTreeMap::new();
    for (file, name, role) in cfg.role_roots {
        for fi in graph.matching(file, name) {
            anchor_role.insert(fi, role);
        }
    }

    // Spawn-arg ranges per fn, and the spawn-cut callee lists.
    let mut ranges: Vec<Vec<Range<usize>>> = Vec::with_capacity(n);
    let mut spawn_sites = 0usize;
    for node in &graph.fns {
        let pf = &graph.files[node.file_idx];
        let r = spawn_arg_ranges(pf, node);
        spawn_sites += r.len();
        ranges.push(r);
    }
    let cut: Vec<Vec<usize>> = graph
        .fns
        .iter()
        .enumerate()
        .map(|(fi, node)| {
            let mut callees: Vec<usize> = node
                .sites
                .iter()
                .filter(|s| {
                    s.kind == SiteKind::Call && !ranges[fi].iter().any(|r| r.contains(&s.token))
                })
                .flat_map(|s| graph.resolve_site(node.file_idx, s))
                .collect();
            callees.sort_unstable();
            callees.dedup();
            callees
        })
        .collect();

    // Role roots: anchors, plus spawn-arg call targets.
    let mut roots: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    for (&fi, &role) in &anchor_role {
        roots.entry(role.to_string()).or_default().insert(fi);
    }
    let mut overrides: Vec<(usize, Range<usize>, String)> = Vec::new();
    for (fi, node) in graph.fns.iter().enumerate() {
        for range in &ranges[fi] {
            let mut targets: Vec<usize> = node
                .sites
                .iter()
                .filter(|s| s.kind == SiteKind::Call && range.contains(&s.token))
                .flat_map(|s| graph.resolve_site(node.file_idx, s))
                .collect();
            targets.sort_unstable();
            targets.dedup();
            // One spawn = one thread = one role: the anchored target's
            // role when there is one, else a derived name.
            let role = targets
                .iter()
                .find_map(|t| anchor_role.get(t).map(|r| r.to_string()))
                .unwrap_or_else(|| {
                    format!("spawn:{}@{}", node.item.name, file_short(&node.item.file))
                });
            for t in targets {
                roots.entry(role.clone()).or_default().insert(t);
            }
            overrides.push((fi, range.clone(), role));
        }
    }

    let mut parents: BTreeMap<String, Vec<Option<usize>>> = BTreeMap::new();
    let mut fn_roles: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    for (role, rs) in &roots {
        let p = reach_over(&cut, rs);
        for (fi, r) in fn_roles.iter_mut().enumerate() {
            if p[fi].is_some() {
                r.insert(role.clone());
            }
        }
        parents.insert(role.clone(), p);
    }
    RoleLattice {
        parents,
        fn_roles,
        overrides,
        spawn_sites,
    }
}

/// One resource touch seen by the ring/scratch pass.
struct Touch {
    role: String,
    fn_idx: usize,
    line: usize,
}

/// Pass 1: single-writer/single-reader ring endpoints and per-role
/// scratch.
fn ring_pass(
    graph: &CallGraph,
    cfg: &ThreadConfig,
    lattice: &RoleLattice,
    findings: &mut Vec<Finding>,
    role_edges: &mut BTreeMap<(String, String), Vec<String>>,
) {
    let mut touches: BTreeMap<String, Vec<Touch>> = BTreeMap::new();
    for (fi, node) in graph.fns.iter().enumerate() {
        if is_ring_impl(&node.item.file) {
            continue;
        }
        let pf = &graph.files[node.file_idx];
        for s in &node.sites {
            if s.kind != SiteKind::Call || !s.method || s.token == 0 {
                continue;
            }
            let kind = match s.name.as_str() {
                "try_push_swap" => Some("writer"),
                "try_pop_swap" => Some("reader"),
                _ => None,
            };
            let path = receiver_path(pf, s.token - 1);
            if path.is_empty() {
                continue;
            }
            let key = if let Some(kind) = kind {
                let ident = last_segment(&path);
                let resource = cfg
                    .endpoints
                    .iter()
                    .find(|(f, id, _)| node.item.file.ends_with(f) && *id == ident)
                    .map(|(_, _, r)| (*r).to_string())
                    .unwrap_or_else(|| format!("{}.{}", file_short(&node.item.file), ident));
                format!("{resource}.{kind}")
            } else {
                // Scratch: a declared ident appearing as a path segment.
                let Some((_, _, resource)) = cfg.scratch.iter().find(|(f, id, _)| {
                    node.item.file.ends_with(f) && path.split('.').any(|seg| seg == *id)
                }) else {
                    continue;
                };
                (*resource).to_string()
            };
            for role in lattice.site_roles(fi, s.token) {
                role_edges
                    .entry((role.clone(), key.clone()))
                    .or_insert_with(|| lattice.witness(graph, &role, fi));
                touches.entry(key.clone()).or_default().push(Touch {
                    role,
                    fn_idx: fi,
                    line: s.line,
                });
            }
        }
    }
    for (key, ts) in &touches {
        let roles: BTreeSet<&str> = ts.iter().map(|t| t.role.as_str()).collect();
        if roles.len() <= 1 {
            continue;
        }
        // Report at the touch whose role sorts last (the "second"
        // role); the detail lists every (role, site) pair.
        let offender = ts
            .iter()
            .max_by(|a, b| (&a.role, a.line).cmp(&(&b.role, b.line)))
            .expect("non-empty touch list");
        let node = &graph.fns[offender.fn_idx];
        let sites: Vec<String> = ts
            .iter()
            .map(|t| {
                format!(
                    "{} ({}:{} in `{}`)",
                    t.role, graph.fns[t.fn_idx].item.file, t.line, graph.fns[t.fn_idx].item.name
                )
            })
            .collect();
        findings.push(Finding {
            pass: "ring-discipline",
            file: node.item.file.clone(),
            line: offender.line,
            func: node.item.name.clone(),
            token: key.clone(),
            detail: format!(
                "resource `{key}` is touched by {} roles: {}",
                roles.len(),
                sites.join(", ")
            ),
            witness: lattice.witness(graph, &offender.role, offender.fn_idx),
        });
    }
}

/// Pass 2: channel endpoint pairing.
fn channel_pass(
    graph: &CallGraph,
    la: &LockAnalysis,
    lattice: &RoleLattice,
    findings: &mut Vec<Finding>,
) {
    for (file_idx, pf) in graph.files.iter().enumerate() {
        if is_ring_impl(&pf.file) {
            continue;
        }
        let toks = &pf.tokens;
        for i in 0..toks.len() {
            // `let ( tx , rx ) = [mpsc::][sync_]channel ( … ) ;`
            if !(pf.is_ident(i, "let")
                && pf.is_punct(i + 1, '(')
                && toks.get(i + 2).map(|t| t.kind) == Some(TokKind::Ident)
                && pf.is_punct(i + 3, ',')
                && toks.get(i + 4).map(|t| t.kind) == Some(TokKind::Ident)
                && pf.is_punct(i + 5, ')')
                && pf.is_punct(i + 6, '='))
            {
                continue;
            }
            let mut k = i + 7;
            let mut ctor: Option<&str> = None;
            while k < toks.len() && !pf.is_punct(k, ';') {
                if pf.is_ident(k, "sync_channel") && pf.is_punct(k + 1, '(') {
                    ctor = Some("sync_channel");
                    break;
                }
                if pf.is_ident(k, "channel") && pf.is_punct(k + 1, '(') {
                    ctor = Some("channel");
                    break;
                }
                k += 1;
            }
            let Some(ctor) = ctor else { continue };
            let bounded = ctor == "sync_channel";
            let sender = pf.text(i + 2).to_string();
            let receiver = pf.text(i + 4).to_string();
            let mut semi = k;
            while semi < toks.len() && !pf.is_punct(semi, ';') {
                semi += 1;
            }
            // The enclosing fn, for attribution and roles. Test fns
            // are not in the graph, so this also skips test-mod
            // channel bindings.
            let Some((fi, node)) = graph
                .fns
                .iter()
                .enumerate()
                .find(|(_, f)| f.file_idx == file_idx && f.item.body.contains(&i))
            else {
                continue;
            };
            let func = node.item.name.clone();
            let witness_for = |fi: usize| -> Vec<String> {
                match lattice.fn_roles[fi].iter().next() {
                    Some(role) => lattice.witness(graph, role, fi),
                    None => vec![graph.fns[fi].item.name.clone()],
                }
            };
            // Orphan endpoints: never mentioned after the binding.
            for (ident, side) in [(&sender, "sender"), (&receiver, "receiver")] {
                let mentioned = (semi..toks.len()).any(|t| pf.is_ident(t, ident));
                if mentioned {
                    continue;
                }
                findings.push(Finding {
                    pass: "channel-protocol",
                    file: pf.file.clone(),
                    line: pf.line(i),
                    func: func.clone(),
                    token: format!("{ident}:orphan-{side}"),
                    detail: format!(
                        "{ctor} {side} `{ident}` is never used after binding — \
                         its peer can wedge silently"
                    ),
                    witness: witness_for(fi),
                });
            }
            if !bounded {
                continue;
            }
            // Blocking sends on the bounded sender under a Tracked
            // guard: the send can park the holder while contenders
            // queue on the lock.
            for (sfi, node) in graph.fns.iter().enumerate() {
                if node.file_idx != file_idx {
                    continue;
                }
                for s in &node.sites {
                    if s.kind != SiteKind::Call || !s.method || s.name != "send" || s.token == 0 {
                        continue;
                    }
                    let path = receiver_path(pf, s.token - 1);
                    if last_segment(&path) != sender {
                        continue;
                    }
                    for a in &la.acquisitions {
                        if a.fn_idx == sfi && a.token < s.token && s.token < a.held_until {
                            findings.push(Finding {
                                pass: "channel-protocol",
                                file: pf.file.clone(),
                                line: s.line,
                                func: node.item.name.clone(),
                                token: format!("{sender}:send-under-{}", a.lock),
                                detail: format!(
                                    "blocking send on bounded channel sender `{sender}` while \
                                     `{}` is held — a full channel parks the lock holder",
                                    a.lock
                                ),
                                witness: witness_for(sfi),
                            });
                        }
                    }
                }
            }
        }
    }
}

/// Pass 3: pump roles may not block.
fn blocking_pass(
    graph: &CallGraph,
    cfg: &ThreadConfig,
    lattice: &RoleLattice,
    findings: &mut Vec<Finding>,
) {
    const BLOCK_MASK: u16 = EffectSet::BLOCK_SLEEP | EffectSet::BLOCK_JOIN | EffectSet::BLOCK_IO;
    let sites = effects::effect_sites(graph);
    let mut hits = vec![0usize; cfg.blocking_allowlist.len()];
    // (fn, site token idx) → (roles, site ref) so a site shared by two
    // pump roles yields one finding naming both.
    let mut flagged: BTreeMap<(usize, usize), (BTreeSet<&str>, usize)> = BTreeMap::new();
    for &role in cfg.pump_roles {
        let Some(parents) = lattice.parents.get(role) else {
            continue;
        };
        for (fi, p) in parents.iter().enumerate() {
            if p.is_none() {
                continue;
            }
            let node = &graph.fns[fi];
            for (si, s) in sites[fi].iter().enumerate() {
                if s.bit & BLOCK_MASK == 0 {
                    continue;
                }
                if s.bit == EffectSet::BLOCK_IO
                    && cfg
                        .io_exempt_prefixes
                        .iter()
                        .any(|p| node.item.file.starts_with(p))
                {
                    continue;
                }
                let mut allowed = false;
                for (ai, (f, fun, tok, _)) in cfg.blocking_allowlist.iter().enumerate() {
                    if node.item.file.ends_with(f) && node.item.name == *fun && s.token == *tok {
                        hits[ai] += 1;
                        allowed = true;
                    }
                }
                if allowed {
                    continue;
                }
                let e = flagged
                    .entry((fi, si))
                    .or_insert_with(|| (BTreeSet::new(), si));
                e.0.insert(role);
            }
        }
    }
    for ((fi, si), (roles, _)) in &flagged {
        let node = &graph.fns[*fi];
        let s = &sites[*fi][*si];
        let role = roles.iter().next().expect("non-empty role set");
        let witness = lattice.witness(graph, role, *fi);
        findings.push(Finding {
            pass: "role-blocking",
            file: node.item.file.clone(),
            line: s.line,
            func: node.item.name.clone(),
            token: s.token.clone(),
            detail: format!(
                "{} effect `{}` in `{}` is reachable from pump role(s) {} via {}",
                effects::bit_name(s.bit),
                s.token,
                node.item.name,
                roles
                    .iter()
                    .map(|r| format!("`{r}`"))
                    .collect::<Vec<_>>()
                    .join(", "),
                witness.join(" -> ")
            ),
            witness,
        });
    }
    for (ai, (file, func, token, _)) in cfg.blocking_allowlist.iter().enumerate() {
        if hits[ai] == 0 {
            findings.push(Finding {
                pass: "stale-allowlist",
                file: file.to_string(),
                line: 0,
                func: func.to_string(),
                token: token.to_string(),
                detail: format!(
                    "role-blocking allowlist entry ({file}, {func}, {token}) \
                     matches no current site"
                ),
                witness: Vec::new(),
            });
        }
    }
}

/// Runs the thread-provenance passes over a built call graph.
pub fn analyze_threads(graph: &CallGraph, la: &LockAnalysis, cfg: &ThreadConfig) -> ThreadAnalysis {
    let lattice = build_lattice(graph, cfg);
    let mut findings = Vec::new();
    let mut edge_map: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();

    ring_pass(graph, cfg, &lattice, &mut findings, &mut edge_map);
    channel_pass(graph, la, &lattice, &mut findings);
    blocking_pass(graph, cfg, &lattice, &mut findings);

    // Declared touches complete the static contract.
    for (file, name, resource) in cfg.role_touches {
        for fi in graph.matching(file, name) {
            for role in &lattice.fn_roles[fi] {
                edge_map
                    .entry((role.clone(), (*resource).to_string()))
                    .or_insert_with(|| lattice.witness(graph, role, fi));
            }
        }
    }

    let role_edges: Vec<RoleEdge> = edge_map
        .into_iter()
        .map(|((role, resource), via)| RoleEdge {
            role,
            resource,
            via,
        })
        .collect();
    let roles = lattice.parents.len();
    let role_fns = lattice.fn_roles.iter().filter(|r| !r.is_empty()).count();
    ThreadAnalysis {
        findings,
        role_edges,
        roles,
        role_fns,
        spawn_sites: lattice.spawn_sites,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::callgraph::CallGraph;
    use crate::audit::items::parse_file;
    use crate::audit::locks::analyze_locks;

    fn run(srcs: &[(&str, &str)], cfg: &ThreadConfig) -> ThreadAnalysis {
        let graph = CallGraph::build(srcs.iter().map(|(p, s)| parse_file(p, s)).collect());
        let la = analyze_locks(&graph);
        analyze_threads(&graph, &la, cfg)
    }

    #[test]
    fn spawn_edges_are_cut_and_targets_get_their_anchor_role() {
        let srcs = [(
            "crates/x/src/a.rs",
            "\
fn driver_main(w: &mut W) {
    scope.spawn(move || pump(w2));
    w.try_push_swap(&mut b);
}
fn pump(w: &mut W) { loop { w2.try_pop_swap(&mut b); } }
",
        )];
        let cfg = ThreadConfig {
            role_roots: &[("a.rs", "driver_main", "driver"), ("a.rs", "pump", "pump")],
            ..ThreadConfig::empty()
        };
        let ta = run(&srcs, &cfg);
        // The spawn edge is cut: pump carries only its own role, so
        // the two endpoints are single-role and the pass is clean.
        assert!(ta.findings.is_empty(), "{:?}", ta.findings);
        assert_eq!(ta.spawn_sites, 1);
        let pairs: Vec<(&str, &str)> = ta
            .role_edges
            .iter()
            .map(|e| (e.role.as_str(), e.resource.as_str()))
            .collect();
        assert!(pairs.contains(&("driver", "a.rs.w.writer")), "{pairs:?}");
        assert!(pairs.contains(&("pump", "a.rs.w2.reader")), "{pairs:?}");
    }

    #[test]
    fn two_roles_on_one_endpoint_is_a_finding_with_witness() {
        let srcs = [(
            "crates/x/src/a.rs",
            "\
fn root_a(w: &mut W) { helper(w); }
fn helper(w: &mut W) { ring.try_push_swap(&mut b); }
fn root_b(w: &mut W) { ring.try_push_swap(&mut b); }
",
        )];
        let cfg = ThreadConfig {
            role_roots: &[("a.rs", "root_a", "alpha"), ("a.rs", "root_b", "beta")],
            endpoints: &[("a.rs", "ring", "fx.ring")],
            ..ThreadConfig::empty()
        };
        let ta = run(&srcs, &cfg);
        let v: Vec<&Finding> = ta
            .findings
            .iter()
            .filter(|f| f.pass == "ring-discipline")
            .collect();
        assert_eq!(v.len(), 1, "{:?}", ta.findings);
        assert_eq!(v[0].token, "fx.ring.writer");
        assert!(v[0].detail.contains("alpha") && v[0].detail.contains("beta"));
        assert_eq!(v[0].witness, vec!["root_b".to_string()]);
    }

    #[test]
    fn unreached_ring_sites_are_ignored() {
        let srcs = [(
            "crates/x/src/a.rs",
            "fn dead(w: &mut W) { ring.try_push_swap(&mut b); }",
        )];
        let ta = run(&srcs, &ThreadConfig::empty());
        assert!(ta.findings.is_empty());
        assert!(ta.role_edges.is_empty());
    }

    #[test]
    fn orphaned_receiver_is_flagged_and_used_pair_is_clean() {
        let bad = [(
            "crates/x/src/a.rs",
            "fn build() { let (tx, rx) = sync_channel(4); keep(tx); }\nfn keep(t: T) {}\n",
        )];
        let ta = run(&bad, &ThreadConfig::empty());
        let v: Vec<&Finding> = ta
            .findings
            .iter()
            .filter(|f| f.pass == "channel-protocol")
            .collect();
        assert_eq!(v.len(), 1, "{:?}", ta.findings);
        assert_eq!(v[0].token, "rx:orphan-receiver");
        let clean = [(
            "crates/x/src/a.rs",
            "fn build() -> R { let (tx, rx) = sync_channel(4); keep(tx); rx }\nfn keep(t: T) {}\n",
        )];
        assert!(run(&clean, &ThreadConfig::empty()).findings.is_empty());
    }

    #[test]
    fn bounded_send_under_tracked_lock_is_flagged() {
        let srcs = [(
            "crates/x/src/a.rs",
            "\
fn build() {
    let shared = Tracked::new(\"x.shared\", 0u32);
    let (tx, rx) = sync_channel(1);
    let g = shared.lock();
    tx.send(1);
    drop(g);
    rx
}
",
        )];
        let ta = run(&srcs, &ThreadConfig::empty());
        let v: Vec<&Finding> = ta
            .findings
            .iter()
            .filter(|f| f.token.contains("send-under"))
            .collect();
        assert_eq!(v.len(), 1, "{:?}", ta.findings);
        assert_eq!(v[0].token, "tx:send-under-x.shared");
    }

    #[test]
    fn pump_role_reaching_sleep_is_flagged_with_trace() {
        let srcs = [(
            "crates/x/src/a.rs",
            "\
fn pump(x: u64) { drain(x); }
fn drain(x: u64) { std::thread::sleep(ms(x)); }
",
        )];
        let cfg = ThreadConfig {
            role_roots: &[("a.rs", "pump", "pump-x")],
            pump_roles: &["pump-x"],
            ..ThreadConfig::empty()
        };
        let ta = run(&srcs, &cfg);
        let v: Vec<&Finding> = ta
            .findings
            .iter()
            .filter(|f| f.pass == "role-blocking")
            .collect();
        assert_eq!(v.len(), 1, "{:?}", ta.findings);
        assert_eq!(v[0].token, "thread::sleep");
        assert_eq!(v[0].witness, vec!["pump".to_string(), "drain".to_string()]);
    }

    #[test]
    fn stale_blocking_allowlist_entry_fails() {
        let srcs = [("crates/x/src/a.rs", "fn pump(x: u64) { x; }")];
        let cfg = ThreadConfig {
            role_roots: &[("a.rs", "pump", "pump-x")],
            pump_roles: &["pump-x"],
            blocking_allowlist: &[("a.rs", "gone", "thread::sleep", "reviewed")],
            ..ThreadConfig::empty()
        };
        let ta = run(&srcs, &cfg);
        assert!(ta
            .findings
            .iter()
            .any(|f| f.pass == "stale-allowlist" && f.func == "gone"));
    }

    #[test]
    fn command_spawn_with_empty_args_is_not_a_thread() {
        let srcs = [(
            "crates/x/src/a.rs",
            "fn launch(c: &mut Command) { c.spawn(); sim.spawn_process(1); }",
        )];
        let ta = run(&srcs, &ThreadConfig::empty());
        assert_eq!(ta.spawn_sites, 0);
    }
}
