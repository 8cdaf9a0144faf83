//! Deterministic fault injection at the `/proc` boundary.
//!
//! §3.1.1 of the paper argues a user-space monitor must survive a
//! hostile observation surface: tasks vanish between the task-list read
//! and the per-task read, records come back truncated, reads stall, and
//! the kernel occasionally refuses access outright. [`FaultInjector`]
//! makes that surface reproducible: it wraps any [`ProcSource`] in a
//! [`FaultyProc`] that injects a *seeded, deterministic* fault schedule —
//! transient and permanent I/O errors, `NotFound` races, malformed
//! records, permission denials, stale (repeated) reads, and per-call
//! latency — configurable per operation and per pid.
//!
//! Every fault delivered, and every error passed through from the inner
//! source, is appended to a fault log. The chaos harness reconciles that
//! log *exactly* against the monitor's `HealthLedger`: an error the
//! ledger did not account for is a bug, which is precisely the property
//! graceful degradation must prove.

use crate::arena::{ArenaSpan, ReadArena};
use crate::parse;
use crate::source::{ProcSource, SourceError, SourceErrorKind, SourceResult};
use crate::types::{MemInfo, Pid, SchedStat, SystemStat, TaskStat, TaskStatus, Tid};
use std::cell::RefCell;
use std::collections::HashMap;

/// The `ProcSource` operations faults can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `system_stat` (`/proc/stat`).
    SystemStat,
    /// `meminfo` (`/proc/meminfo`).
    MemInfo,
    /// `list_tasks` (`/proc/<pid>/task`).
    ListTasks,
    /// `task_stat` (`/proc/<pid>/task/<tid>/stat`).
    TaskStat,
    /// `task_status` (`/proc/<pid>/task/<tid>/status`).
    TaskStatus,
    /// `task_schedstat` (`/proc/<pid>/task/<tid>/schedstat`).
    SchedStat,
}

impl Op {
    /// All operations, in stable order.
    pub const ALL: [Op; 6] = [
        Op::SystemStat,
        Op::MemInfo,
        Op::ListTasks,
        Op::TaskStat,
        Op::TaskStatus,
        Op::SchedStat,
    ];
}

/// Per-operation (or per-pid) fault probabilities and latency.
///
/// All probabilities are per call, evaluated in the order: latency
/// (additive), permanent I/O, permission denial (permanent), transient
/// I/O, `NotFound`, malformed, stale. Zero everywhere (the default)
/// injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultRates {
    /// Probability of a one-shot `Io` error.
    pub io_transient: f64,
    /// Probability this call marks the `(op, pid, tid)` key as
    /// *permanently* failing with `Io` — every later call on the key
    /// fails too.
    pub io_permanent: f64,
    /// Probability of a `NotFound` (the racing-task-exit injection).
    pub not_found: f64,
    /// Probability of a `Malformed` (truncated-record) error.
    pub malformed: f64,
    /// Probability this call marks the key as permanently `Denied`
    /// (EPERM-style: the record exists but will never be readable).
    pub denied: f64,
    /// Probability the call returns the *previous* successful value for
    /// the key instead of a fresh read (a stale record).
    pub stale: f64,
    /// Probability a call is charged [`FaultRates::latency_us`] of extra
    /// monitor cost.
    pub latency_prob: f64,
    /// Latency charged when the latency roll hits, µs.
    pub latency_us: u64,
}

/// One scripted fault: fires on the injector's `call`-th source call
/// (1-based, counted across all operations), overriding the rate rolls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScriptedFault {
    /// The global call index the fault fires on.
    pub call: u64,
    /// What to inject.
    pub kind: FaultKind,
}

/// The kinds of injected fault, as recorded in the log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// One-shot `Io` error.
    IoTransient,
    /// The key became permanently `Io`-failing (logged on every failing
    /// return).
    IoPermanent,
    /// Injected `NotFound`.
    NotFound,
    /// Injected `Malformed`.
    Malformed,
    /// The key became permanently `Denied`.
    Denied,
    /// A cached previous value was served instead of a fresh read.
    Stale,
    /// Extra latency charged to the monitor, µs.
    Latency(u64),
    /// The call panicked (scripted only — exercises the monitor's
    /// supervisor).
    Panic,
    /// The inner source itself returned an error; passed through
    /// unchanged and logged for reconciliation.
    Passthrough(SourceErrorKind),
}

impl FaultKind {
    /// The error kind this fault surfaces as to the caller, if it
    /// surfaces as an error at all.
    pub fn error_kind(self) -> Option<SourceErrorKind> {
        match self {
            FaultKind::IoTransient | FaultKind::IoPermanent => Some(SourceErrorKind::Io),
            FaultKind::NotFound => Some(SourceErrorKind::NotFound),
            FaultKind::Malformed => Some(SourceErrorKind::Malformed),
            FaultKind::Denied => Some(SourceErrorKind::Denied),
            FaultKind::Passthrough(k) => Some(k),
            FaultKind::Stale | FaultKind::Latency(_) | FaultKind::Panic => None,
        }
    }
}

/// One entry of the fault log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Global call index (1-based).
    pub call: u64,
    /// The operation the fault landed on.
    pub op: Op,
    /// Target pid (0 for node-level operations).
    pub pid: Pid,
    /// Target tid (0 when not applicable).
    pub tid: Tid,
    /// What happened.
    pub kind: FaultKind,
}

/// The full fault schedule configuration.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// RNG seed; the same plan + seed always produces the same schedule
    /// for the same call sequence.
    pub seed: u64,
    /// Rates applied when no per-op / per-pid override matches.
    pub default_rates: FaultRates,
    /// Per-operation overrides (checked after per-pid).
    pub per_op: Vec<(Op, FaultRates)>,
    /// Per-pid overrides (highest precedence).
    pub per_pid: Vec<(Pid, FaultRates)>,
    /// Exact-call scripted faults (override the rate rolls entirely).
    pub scripted: Vec<ScriptedFault>,
}

impl FaultPlan {
    /// A plan injecting nothing (useful as a baseline).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// The rates in effect for a call on `(op, pid)`.
    fn rates_for(&self, op: Op, pid: Pid) -> FaultRates {
        if let Some((_, r)) = self.per_pid.iter().find(|(p, _)| *p == pid) {
            return *r;
        }
        if let Some((_, r)) = self.per_op.iter().find(|(o, _)| *o == op) {
            return *r;
        }
        self.default_rates
    }
}

/// A cached last-good value per `(op, pid, tid)` key, used to serve
/// stale reads.
#[derive(Debug, Clone)]
enum CachedOk {
    System(SystemStat),
    Mem(MemInfo),
    Tasks(Vec<Tid>),
    Stat(TaskStat),
    Status(TaskStatus),
    Sched(SchedStat),
}

#[derive(Debug, Default)]
struct InjState {
    rng: u64,
    calls: u64,
    permanent: HashMap<(Op, Pid, Tid), SourceErrorKind>,
    cache: HashMap<(Op, Pid, Tid), CachedOk>,
    pending_latency_us: u64,
    log: Vec<FaultEvent>,
}

/// What the injector decided for one call, before touching the inner
/// source.
enum Decision {
    Pass,
    Fail(SourceError),
    Stale,
    Panic,
}

/// The stateful, seeded fault injector. Create once per run; wrap each
/// (possibly short-lived) inner source with [`FaultInjector::wrap`].
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Whether this plan can ever serve a stale read. Precomputed so the
    /// pass-through path skips last-good caching entirely when the answer
    /// is no — the common case for latency/error-only plans, where caching
    /// every successful read would clone every record the monitor samples.
    can_stale: bool,
    state: RefCell<InjState>,
}

/// splitmix64 — tiny, seedable, and plenty for fault scheduling.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(rng: &mut u64) -> f64 {
    (splitmix64(rng) >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultInjector {
    /// Creates an injector for the given plan.
    pub fn new(plan: FaultPlan) -> Self {
        let state = InjState {
            rng: plan.seed ^ 0xD6E8_FEB8_6659_FD93,
            ..Default::default()
        };
        let can_stale = plan.default_rates.stale > 0.0
            || plan.per_op.iter().any(|(_, r)| r.stale > 0.0)
            || plan.per_pid.iter().any(|(_, r)| r.stale > 0.0)
            || plan
                .scripted
                .iter()
                .any(|s| matches!(s.kind, FaultKind::Stale));
        FaultInjector {
            plan,
            can_stale,
            state: RefCell::new(state),
        }
    }

    /// Wraps an inner source; the returned view shares this injector's
    /// schedule position, caches, and log.
    pub fn wrap<'a>(&'a self, inner: &'a dyn ProcSource) -> FaultyProc<'a> {
        FaultyProc { inj: self, inner }
    }

    /// Total source calls observed so far.
    pub fn total_calls(&self) -> u64 {
        self.state.borrow().calls
    }

    /// A copy of the fault log.
    pub fn log(&self) -> Vec<FaultEvent> {
        self.state.borrow().log.clone()
    }

    /// Drains the latency accumulated since the last drain, µs. The
    /// driver charges this to the monitor's cost (e.g. by advancing the
    /// simulation clock), so slow procfs reads perturb the run the way
    /// they do on a real node.
    pub fn drain_latency_us(&self) -> u64 {
        std::mem::take(&mut self.state.borrow_mut().pending_latency_us)
    }

    /// Errors *returned to the caller* (injected and passed-through),
    /// counted by kind, excluding the listed operations. Indexed per
    /// [`SourceErrorKind::index`].
    pub fn error_counts_excluding(&self, exclude: &[Op]) -> [u64; 4] {
        let mut out = [0u64; 4];
        for ev in self.state.borrow().log.iter() {
            if exclude.contains(&ev.op) {
                continue;
            }
            if let Some(k) = ev.kind.error_kind() {
                out[k.index()] += 1;
            }
        }
        out
    }

    /// Number of stale serves so far.
    pub fn stale_count(&self) -> u64 {
        self.count(|k| matches!(k, FaultKind::Stale))
    }

    /// Total latency injected so far, µs (drained or not).
    pub fn injected_latency_us(&self) -> u64 {
        self.state
            .borrow()
            .log
            .iter()
            .map(|ev| match ev.kind {
                FaultKind::Latency(us) => us,
                _ => 0,
            })
            .sum()
    }

    /// Number of log events matching a predicate on the kind.
    pub fn count(&self, pred: impl Fn(FaultKind) -> bool) -> u64 {
        self.state
            .borrow()
            .log
            .iter()
            .filter(|ev| pred(ev.kind))
            .count() as u64
    }

    fn push(state: &mut InjState, call: u64, op: Op, pid: Pid, tid: Tid, kind: FaultKind) {
        state.log.push(FaultEvent {
            call,
            op,
            pid,
            tid,
            kind,
        });
    }

    /// Rolls the schedule for one call and returns the decision. Any
    /// injected latency is charged and logged here regardless of the
    /// decision.
    fn decide(&self, op: Op, pid: Pid, tid: Tid) -> Decision {
        let mut st = self.state.borrow_mut();
        st.calls += 1;
        let call = st.calls;
        let key = (op, pid, tid);
        // Scripted faults take absolute precedence.
        if let Some(s) = self.plan.scripted.iter().find(|s| s.call == call) {
            match s.kind {
                FaultKind::IoTransient => {
                    Self::push(&mut st, call, op, pid, tid, FaultKind::IoTransient);
                    return Decision::Fail(SourceError::Io("injected: transient".into()));
                }
                FaultKind::IoPermanent => {
                    st.permanent.insert(key, SourceErrorKind::Io);
                    Self::push(&mut st, call, op, pid, tid, FaultKind::IoPermanent);
                    return Decision::Fail(SourceError::Io("injected: permanent".into()));
                }
                FaultKind::NotFound => {
                    Self::push(&mut st, call, op, pid, tid, FaultKind::NotFound);
                    return Decision::Fail(SourceError::NotFound);
                }
                FaultKind::Malformed => {
                    Self::push(&mut st, call, op, pid, tid, FaultKind::Malformed);
                    return Decision::Fail(SourceError::Malformed(
                        "injected: truncated record".into(),
                    ));
                }
                FaultKind::Denied => {
                    st.permanent.insert(key, SourceErrorKind::Denied);
                    Self::push(&mut st, call, op, pid, tid, FaultKind::Denied);
                    return Decision::Fail(SourceError::Denied("injected: EPERM".into()));
                }
                FaultKind::Stale => {
                    if st.cache.contains_key(&key) {
                        Self::push(&mut st, call, op, pid, tid, FaultKind::Stale);
                        return Decision::Stale;
                    }
                    return Decision::Pass;
                }
                FaultKind::Latency(us) => {
                    st.pending_latency_us += us;
                    Self::push(&mut st, call, op, pid, tid, FaultKind::Latency(us));
                    return Decision::Pass;
                }
                FaultKind::Panic => {
                    Self::push(&mut st, call, op, pid, tid, FaultKind::Panic);
                    return Decision::Panic;
                }
                FaultKind::Passthrough(_) => return Decision::Pass,
            }
        }
        // Keys that already failed permanently stay failed.
        if let Some(&kind) = st.permanent.get(&key) {
            let (fk, err) = match kind {
                SourceErrorKind::Denied => (
                    FaultKind::Denied,
                    SourceError::Denied("injected: EPERM".into()),
                ),
                _ => (
                    FaultKind::IoPermanent,
                    SourceError::Io("injected: permanent".into()),
                ),
            };
            Self::push(&mut st, call, op, pid, tid, fk);
            return Decision::Fail(err);
        }
        let rates = self.plan.rates_for(op, pid);
        // Latency is additive: it can accompany any outcome.
        if rates.latency_prob > 0.0 && unit(&mut st.rng) < rates.latency_prob {
            st.pending_latency_us += rates.latency_us;
            Self::push(
                &mut st,
                call,
                op,
                pid,
                tid,
                FaultKind::Latency(rates.latency_us),
            );
        }
        if rates.io_permanent > 0.0 && unit(&mut st.rng) < rates.io_permanent {
            st.permanent.insert(key, SourceErrorKind::Io);
            Self::push(&mut st, call, op, pid, tid, FaultKind::IoPermanent);
            return Decision::Fail(SourceError::Io("injected: permanent".into()));
        }
        if rates.denied > 0.0 && unit(&mut st.rng) < rates.denied {
            st.permanent.insert(key, SourceErrorKind::Denied);
            Self::push(&mut st, call, op, pid, tid, FaultKind::Denied);
            return Decision::Fail(SourceError::Denied("injected: EPERM".into()));
        }
        if rates.io_transient > 0.0 && unit(&mut st.rng) < rates.io_transient {
            Self::push(&mut st, call, op, pid, tid, FaultKind::IoTransient);
            return Decision::Fail(SourceError::Io("injected: transient".into()));
        }
        if rates.not_found > 0.0 && unit(&mut st.rng) < rates.not_found {
            Self::push(&mut st, call, op, pid, tid, FaultKind::NotFound);
            return Decision::Fail(SourceError::NotFound);
        }
        if rates.malformed > 0.0 && unit(&mut st.rng) < rates.malformed {
            Self::push(&mut st, call, op, pid, tid, FaultKind::Malformed);
            return Decision::Fail(SourceError::Malformed("injected: truncated record".into()));
        }
        if rates.stale > 0.0 && unit(&mut st.rng) < rates.stale && st.cache.contains_key(&key) {
            Self::push(&mut st, call, op, pid, tid, FaultKind::Stale);
            return Decision::Stale;
        }
        Decision::Pass
    }

    /// Logs an error the inner source produced on its own.
    fn log_passthrough(&self, op: Op, pid: Pid, tid: Tid, e: &SourceError) {
        let mut st = self.state.borrow_mut();
        let call = st.calls;
        Self::push(
            &mut st,
            call,
            op,
            pid,
            tid,
            FaultKind::Passthrough(e.kind()),
        );
    }

    fn cache_ok(&self, op: Op, pid: Pid, tid: Tid, v: CachedOk) {
        self.state.borrow_mut().cache.insert((op, pid, tid), v);
    }

    fn cached(&self, op: Op, pid: Pid, tid: Tid) -> Option<CachedOk> {
        self.state.borrow().cache.get(&(op, pid, tid)).cloned()
    }
}

/// A [`ProcSource`] view that injects the wrapped injector's schedule
/// into every call before (maybe) consulting the inner source.
pub struct FaultyProc<'a> {
    inj: &'a FaultInjector,
    inner: &'a dyn ProcSource,
}

impl FaultyProc<'_> {
    fn run<T: Clone>(
        &self,
        op: Op,
        pid: Pid,
        tid: Tid,
        call: impl FnOnce() -> SourceResult<T>,
        to_cache: impl Fn(&T) -> CachedOk,
        from_cache: impl Fn(CachedOk) -> Option<T>,
    ) -> SourceResult<T> {
        match self.inj.decide(op, pid, tid) {
            Decision::Fail(e) => Err(e),
            Decision::Stale => match self.inj.cached(op, pid, tid).and_then(from_cache) {
                Some(v) => Ok(v),
                // Cache said present at decision time; if the variant
                // mismatched somehow, fall back to a real read.
                None => call(),
            },
            Decision::Panic => panic!("FaultyProc: injected panic on {op:?}"),
            Decision::Pass => match call() {
                Ok(v) => {
                    if self.inj.can_stale {
                        self.inj.cache_ok(op, pid, tid, to_cache(&v));
                    }
                    Ok(v)
                }
                Err(e) => {
                    self.inj.log_passthrough(op, pid, tid, &e);
                    Err(e)
                }
            },
        }
    }

    /// The `_into` twin of [`Self::run`]: `out` is threaded through the
    /// callbacks as an argument (never captured), so the borrow checker
    /// accepts one mutable record shared by the read and the stale-serve
    /// paths; `R` is `()` for the typed forms and the span for the arena
    /// forms. The argument count mirrors [`Self::run`] plus the output
    /// slot and its cache adapters; splitting it would hide the symmetry.
    #[allow(clippy::too_many_arguments)]
    fn run_into<T, R>(
        &self,
        op: Op,
        pid: Pid,
        tid: Tid,
        out: &mut T,
        call: impl Fn(&dyn ProcSource, &mut T) -> SourceResult<R>,
        to_cache: impl Fn(&T, &R) -> Option<CachedOk>,
        from_cache: impl Fn(&CachedOk, &mut T) -> Option<R>,
    ) -> SourceResult<R> {
        match self.inj.decide(op, pid, tid) {
            Decision::Fail(e) => Err(e),
            Decision::Panic => panic!("FaultyProc: injected panic on {op:?}"),
            Decision::Stale => {
                let hit = {
                    let st = self.inj.state.borrow();
                    st.cache
                        .get(&(op, pid, tid))
                        .and_then(|c| from_cache(c, out))
                };
                match hit {
                    Some(r) => Ok(r),
                    // Cache said present at decision time; if the variant
                    // mismatched somehow, fall back to a real read.
                    None => call(self.inner, out),
                }
            }
            Decision::Pass => match call(self.inner, out) {
                Ok(r) => {
                    if self.inj.can_stale {
                        if let Some(c) = to_cache(out, &r) {
                            self.inj.cache_ok(op, pid, tid, c);
                        }
                    }
                    Ok(r)
                }
                Err(e) => {
                    self.inj.log_passthrough(op, pid, tid, &e);
                    Err(e)
                }
            },
        }
    }
}

impl ProcSource for FaultyProc<'_> {
    fn system_stat(&self) -> SourceResult<SystemStat> {
        self.run(
            Op::SystemStat,
            0,
            0,
            || self.inner.system_stat(),
            |v| CachedOk::System(v.clone()),
            |c| match c {
                CachedOk::System(v) => Some(v),
                _ => None,
            },
        )
    }

    fn meminfo(&self) -> SourceResult<MemInfo> {
        self.run(
            Op::MemInfo,
            0,
            0,
            || self.inner.meminfo(),
            |v| CachedOk::Mem(*v),
            |c| match c {
                CachedOk::Mem(v) => Some(v),
                _ => None,
            },
        )
    }

    fn list_tasks(&self, pid: Pid) -> SourceResult<Vec<Tid>> {
        self.run(
            Op::ListTasks,
            pid,
            0,
            || self.inner.list_tasks(pid),
            |v| CachedOk::Tasks(v.clone()),
            |c| match c {
                CachedOk::Tasks(v) => Some(v),
                _ => None,
            },
        )
    }

    fn task_stat(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStat> {
        self.run(
            Op::TaskStat,
            pid,
            tid,
            || self.inner.task_stat(pid, tid),
            |v| CachedOk::Stat(v.clone()),
            |c| match c {
                CachedOk::Stat(v) => Some(v),
                _ => None,
            },
        )
    }

    fn task_status(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStatus> {
        self.run(
            Op::TaskStatus,
            pid,
            tid,
            || self.inner.task_status(pid, tid),
            |v| CachedOk::Status(v.clone()),
            |c| match c {
                CachedOk::Status(v) => Some(v),
                _ => None,
            },
        )
    }

    fn task_schedstat(&self, pid: Pid, tid: Tid) -> SourceResult<SchedStat> {
        self.run(
            Op::SchedStat,
            pid,
            tid,
            || self.inner.task_schedstat(pid, tid),
            |v| CachedOk::Sched(*v),
            |c| match c {
                CachedOk::Sched(v) => Some(v),
                _ => None,
            },
        )
    }

    // The node-scope `_into` overrides keep the wrapper allocation-free
    // on the pass-through path: the inner source's buffer-reusing reads
    // land directly in the caller's record, and the injector's decision
    // logic runs identically (same call numbering, same log). Per-task
    // records go through the arena forms below.

    fn system_stat_into(&self, out: &mut SystemStat) -> SourceResult<()> {
        self.run_into(
            Op::SystemStat,
            0,
            0,
            out,
            |inner, out| inner.system_stat_into(out),
            |v, _| Some(CachedOk::System(v.clone())),
            |c, out| match c {
                CachedOk::System(v) => {
                    out.clone_from(v);
                    Some(())
                }
                _ => None,
            },
        )
    }

    fn list_tasks_into(&self, pid: Pid, out: &mut Vec<Tid>) -> SourceResult<()> {
        self.run_into(
            Op::ListTasks,
            pid,
            0,
            out,
            |inner, out| inner.list_tasks_into(pid, out),
            |v, _| Some(CachedOk::Tasks(v.clone())),
            |c, out| match c {
                CachedOk::Tasks(v) => {
                    out.clone_from(v);
                    Some(())
                }
                _ => None,
            },
        )
    }

    // The arena forms forward to the inner arena reads, keeping the
    // backend's fast path under the wrapper. The last-good cache holds
    // typed records: filled by parsing only when the plan can go stale,
    // served by rendering back to text.

    fn task_stat_text(&self, pid: Pid, tid: Tid, arena: &mut ReadArena) -> SourceResult<ArenaSpan> {
        self.run_into(
            Op::TaskStat,
            pid,
            tid,
            arena,
            |inner, arena| inner.task_stat_text(pid, tid, arena),
            |arena, span| {
                let view = parse::parse_task_stat_view(arena.get(*span)?).ok()?;
                Some(CachedOk::Stat(view.to_owned()))
            },
            |c, arena| match c {
                CachedOk::Stat(v) => {
                    arena.stat_scratch.clone_from(v);
                    Some(arena.render_stat_scratch())
                }
                _ => None,
            },
        )
    }

    fn task_status_text(
        &self,
        pid: Pid,
        tid: Tid,
        arena: &mut ReadArena,
    ) -> SourceResult<ArenaSpan> {
        self.run_into(
            Op::TaskStatus,
            pid,
            tid,
            arena,
            |inner, arena| inner.task_status_text(pid, tid, arena),
            |arena, span| {
                let text = arena.get(*span)?;
                parse::parse_task_status(text).ok().map(CachedOk::Status)
            },
            |c, arena| match c {
                CachedOk::Status(v) => {
                    arena.status_scratch.clone_from(v);
                    Some(arena.render_status_scratch())
                }
                _ => None,
            },
        )
    }
}

/// A deterministic exit-race adapter: the churn harness's stateless
/// cousin of [`FaultInjector`].
///
/// Under real task churn the common hostile event is the *listing race*:
/// a tid present at `list_tasks` has exited by the time its per-task
/// files are read, so the reads return `NotFound` (§3.1.1). `ExitRace`
/// reproduces exactly that — and only that — by a pure function of the
/// tid: worker tids (`tid != pid`) whose `tid % modulus == residue`
/// vanish on every per-task read while *staying listed*.
///
/// Unlike [`FaultInjector`], the schedule is stateless and keyed on the
/// tid alone, so it is independent of call order. That is what the
/// one-shard-vs-N-shard differential needs: different shard counts
/// read tasks in different orders and batch shapes, and any RNG-stream
/// injector would desynchronise between them. Wrapping every run in the
/// same `ExitRace` guarantees they see byte-identical fault surfaces.
pub struct ExitRace<'a> {
    inner: &'a dyn ProcSource,
    modulus: u64,
    residue: u64,
}

impl<'a> ExitRace<'a> {
    /// Wraps `inner`; worker tids with `tid % modulus == residue` vanish
    /// on per-task reads. A `modulus` of 0 is treated as "no victims"
    /// (the wrapper becomes transparent).
    pub fn new(inner: &'a dyn ProcSource, modulus: u64, residue: u64) -> Self {
        ExitRace {
            inner,
            modulus,
            residue,
        }
    }

    /// Whether this `(pid, tid)` read races with exit. Main threads
    /// (`tid == pid`) never vanish — losing the main thread means losing
    /// the whole watch, which is the *departure* path, not the
    /// mid-round race this adapter isolates.
    pub fn vanishes(&self, pid: Pid, tid: Tid) -> bool {
        self.modulus != 0 && tid != pid && (tid as u64) % self.modulus == self.residue
    }
}

impl ProcSource for ExitRace<'_> {
    fn system_stat(&self) -> SourceResult<SystemStat> {
        self.inner.system_stat()
    }

    fn system_stat_into(&self, out: &mut SystemStat) -> SourceResult<()> {
        self.inner.system_stat_into(out)
    }

    fn meminfo(&self) -> SourceResult<MemInfo> {
        self.inner.meminfo()
    }

    // The listing is NOT wrapped: victims stay listed, which is the
    // whole point — the race lives between the listing and the read.
    fn list_tasks(&self, pid: Pid) -> SourceResult<Vec<Tid>> {
        self.inner.list_tasks(pid)
    }

    fn list_tasks_into(&self, pid: Pid, out: &mut Vec<Tid>) -> SourceResult<()> {
        self.inner.list_tasks_into(pid, out)
    }

    fn task_stat(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStat> {
        if self.vanishes(pid, tid) {
            return Err(SourceError::NotFound);
        }
        self.inner.task_stat(pid, tid)
    }

    fn task_status(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStatus> {
        if self.vanishes(pid, tid) {
            return Err(SourceError::NotFound);
        }
        self.inner.task_status(pid, tid)
    }

    fn task_schedstat(&self, pid: Pid, tid: Tid) -> SourceResult<SchedStat> {
        if self.vanishes(pid, tid) {
            return Err(SourceError::NotFound);
        }
        self.inner.task_schedstat(pid, tid)
    }

    fn task_stat_text(&self, pid: Pid, tid: Tid, arena: &mut ReadArena) -> SourceResult<ArenaSpan> {
        if self.vanishes(pid, tid) {
            return Err(SourceError::NotFound);
        }
        self.inner.task_stat_text(pid, tid, arena)
    }

    fn task_status_text(
        &self,
        pid: Pid,
        tid: Tid,
        arena: &mut ReadArena,
    ) -> SourceResult<ArenaSpan> {
        if self.vanishes(pid, tid) {
            return Err(SourceError::NotFound);
        }
        self.inner.task_status_text(pid, tid, arena)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{CpuTimes, TaskState};

    /// A minimal always-healthy source whose counters advance per call.
    struct TickSource {
        ticks: std::cell::Cell<u64>,
    }

    impl TickSource {
        fn new() -> Self {
            TickSource {
                ticks: std::cell::Cell::new(0),
            }
        }

        fn tick(&self) -> u64 {
            let t = self.ticks.get() + 1;
            self.ticks.set(t);
            t
        }
    }

    impl ProcSource for TickSource {
        fn system_stat(&self) -> SourceResult<SystemStat> {
            let t = self.tick();
            Ok(SystemStat {
                total: CpuTimes {
                    user: t,
                    ..Default::default()
                },
                cpus: vec![(
                    0,
                    CpuTimes {
                        user: t,
                        ..Default::default()
                    },
                )],
                ctxt: t,
                processes: 1,
            })
        }

        fn meminfo(&self) -> SourceResult<MemInfo> {
            Ok(MemInfo {
                mem_total_kib: 100,
                mem_available_kib: 100 - self.tick().min(50),
                ..Default::default()
            })
        }

        fn list_tasks(&self, pid: Pid) -> SourceResult<Vec<Tid>> {
            if pid == 42 {
                Ok(vec![42, 43])
            } else {
                Err(SourceError::NotFound)
            }
        }

        fn task_stat(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStat> {
            if pid != 42 {
                return Err(SourceError::NotFound);
            }
            Ok(TaskStat {
                tid,
                comm: "tick".into(),
                state: TaskState::Running,
                minflt: 0,
                majflt: 0,
                utime: self.tick(),
                stime: 0,
                nice: 0,
                num_threads: 2,
                processor: 0,
                nswap: 0,
                starttime: 0,
            })
        }

        fn task_status(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStatus> {
            if pid != 42 {
                return Err(SourceError::NotFound);
            }
            Ok(TaskStatus {
                name: "tick".into(),
                tid,
                tgid: pid,
                state: TaskState::Running,
                vm_rss_kib: 10,
                vm_size_kib: 20,
                vm_hwm_kib: 10,
                cpus_allowed: Default::default(),
                voluntary_ctxt_switches: 0,
                nonvoluntary_ctxt_switches: 0,
            })
        }
    }

    fn rates(f: impl FnOnce(&mut FaultRates)) -> FaultRates {
        let mut r = FaultRates::default();
        f(&mut r);
        r
    }

    #[test]
    fn quiet_plan_passes_everything_and_logs_only_passthroughs() {
        let src = TickSource::new();
        let inj = FaultInjector::new(FaultPlan::quiet(7));
        let f = inj.wrap(&src);
        assert!(f.system_stat().is_ok());
        assert!(f.task_stat(42, 42).is_ok());
        assert!(matches!(f.task_stat(7, 7), Err(SourceError::NotFound)));
        let log = inj.log();
        assert_eq!(log.len(), 1);
        assert_eq!(
            log[0].kind,
            FaultKind::Passthrough(SourceErrorKind::NotFound)
        );
        assert_eq!(inj.total_calls(), 3);
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| {
            let src = TickSource::new();
            let plan = FaultPlan {
                seed,
                default_rates: rates(|r| {
                    r.io_transient = 0.3;
                    r.malformed = 0.2;
                    r.not_found = 0.1;
                }),
                ..Default::default()
            };
            let inj = FaultInjector::new(plan);
            let f = inj.wrap(&src);
            for _ in 0..200 {
                let _ = f.task_stat(42, 42);
            }
            inj.log()
        };
        let a = run(11);
        let b = run(11);
        let c = run(12);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn scripted_faults_fire_at_exact_calls() {
        let src = TickSource::new();
        let plan = FaultPlan {
            seed: 1,
            scripted: vec![
                ScriptedFault {
                    call: 2,
                    kind: FaultKind::IoTransient,
                },
                ScriptedFault {
                    call: 3,
                    kind: FaultKind::Malformed,
                },
            ],
            ..Default::default()
        };
        let inj = FaultInjector::new(plan);
        let f = inj.wrap(&src);
        assert!(f.task_stat(42, 42).is_ok());
        assert!(matches!(f.task_stat(42, 42), Err(SourceError::Io(_))));
        assert!(matches!(
            f.task_stat(42, 42),
            Err(SourceError::Malformed(_))
        ));
        assert!(f.task_stat(42, 42).is_ok());
        assert_eq!(inj.error_counts_excluding(&[]), [0, 1, 1, 0]);
    }

    #[test]
    fn permanent_faults_stick_per_key() {
        let src = TickSource::new();
        let plan = FaultPlan {
            seed: 1,
            scripted: vec![ScriptedFault {
                call: 1,
                kind: FaultKind::Denied,
            }],
            ..Default::default()
        };
        let inj = FaultInjector::new(plan);
        let f = inj.wrap(&src);
        assert!(matches!(f.task_stat(42, 42), Err(SourceError::Denied(_))));
        // Same key stays denied; a different tid is untouched.
        assert!(matches!(f.task_stat(42, 42), Err(SourceError::Denied(_))));
        assert!(f.task_stat(42, 43).is_ok());
        assert_eq!(inj.count(|k| matches!(k, FaultKind::Denied)), 2);
    }

    #[test]
    fn stale_serves_previous_value() {
        let src = TickSource::new();
        let plan = FaultPlan {
            seed: 1,
            scripted: vec![ScriptedFault {
                call: 2,
                kind: FaultKind::Stale,
            }],
            ..Default::default()
        };
        let inj = FaultInjector::new(plan);
        let f = inj.wrap(&src);
        let first = f.task_stat(42, 42).unwrap();
        let second = f.task_stat(42, 42).unwrap();
        assert_eq!(first.utime, second.utime, "stale read repeats the value");
        let third = f.task_stat(42, 42).unwrap();
        assert!(third.utime > second.utime, "fresh reads advance again");
        assert_eq!(inj.stale_count(), 1);
    }

    #[test]
    fn stale_without_cache_falls_through() {
        let src = TickSource::new();
        let plan = FaultPlan {
            seed: 1,
            scripted: vec![ScriptedFault {
                call: 1,
                kind: FaultKind::Stale,
            }],
            ..Default::default()
        };
        let inj = FaultInjector::new(plan);
        let f = inj.wrap(&src);
        assert!(f.task_stat(42, 42).is_ok());
        assert_eq!(inj.stale_count(), 0);
    }

    #[test]
    fn latency_accumulates_and_drains() {
        let src = TickSource::new();
        let plan = FaultPlan {
            seed: 1,
            default_rates: rates(|r| {
                r.latency_prob = 1.0;
                r.latency_us = 250;
            }),
            ..Default::default()
        };
        let inj = FaultInjector::new(plan);
        let f = inj.wrap(&src);
        let _ = f.system_stat();
        let _ = f.meminfo();
        assert_eq!(inj.drain_latency_us(), 500);
        assert_eq!(inj.drain_latency_us(), 0);
        let _ = f.system_stat();
        assert_eq!(inj.drain_latency_us(), 250);
        assert_eq!(inj.injected_latency_us(), 750);
    }

    #[test]
    fn per_pid_rates_override_per_op_and_default() {
        let src = TickSource::new();
        let plan = FaultPlan {
            seed: 1,
            default_rates: FaultRates::default(),
            per_op: vec![(Op::TaskStat, rates(|r| r.io_transient = 1.0))],
            per_pid: vec![(42, FaultRates::default())],
            ..Default::default()
        };
        let inj = FaultInjector::new(plan);
        let f = inj.wrap(&src);
        // pid 42 is overridden back to quiet despite the per-op rule.
        assert!(f.task_stat(42, 42).is_ok());
        // Node ops (pid 0) see the per-op rule only for TaskStat — quiet.
        assert!(f.system_stat().is_ok());
    }

    #[test]
    fn injected_panic_panics() {
        let src = TickSource::new();
        let plan = FaultPlan {
            seed: 1,
            scripted: vec![ScriptedFault {
                call: 1,
                kind: FaultKind::Panic,
            }],
            ..Default::default()
        };
        let inj = FaultInjector::new(plan);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let f = inj.wrap(&src);
            let _ = f.task_stat(42, 42);
        }));
        assert!(result.is_err());
        assert_eq!(inj.count(|k| matches!(k, FaultKind::Panic)), 1);
    }

    #[test]
    fn stale_free_plan_never_populates_the_cache() {
        let src = TickSource::new();
        let plan = FaultPlan {
            seed: 3,
            default_rates: rates(|r| {
                r.io_transient = 0.2;
                r.latency_prob = 0.5;
                r.latency_us = 10;
            }),
            ..Default::default()
        };
        let inj = FaultInjector::new(plan);
        assert!(!inj.can_stale);
        let f = inj.wrap(&src);
        for _ in 0..50 {
            let _ = f.task_stat(42, 42);
            let mut out = TaskStat::default();
            let _ = f.task_stat_into(42, 42, &mut out);
        }
        assert!(
            inj.state.borrow().cache.is_empty(),
            "no stale in the plan => pass-through must not clone into the cache"
        );
    }

    #[test]
    fn into_forms_follow_the_same_schedule() {
        let src = TickSource::new();
        let plan = FaultPlan {
            seed: 1,
            scripted: vec![
                ScriptedFault {
                    call: 2,
                    kind: FaultKind::IoTransient,
                },
                ScriptedFault {
                    call: 3,
                    kind: FaultKind::Stale,
                },
            ],
            ..Default::default()
        };
        let inj = FaultInjector::new(plan);
        assert!(inj.can_stale);
        let f = inj.wrap(&src);
        let mut out = TaskStat::default();
        f.task_stat_into(42, 42, &mut out).unwrap();
        let first_utime = out.utime;
        assert!(matches!(
            f.task_stat_into(42, 42, &mut out),
            Err(SourceError::Io(_))
        ));
        // Call 3 serves the cached call-1 value into the same record.
        f.task_stat_into(42, 42, &mut out).unwrap();
        assert_eq!(out.utime, first_utime);
        assert_eq!(inj.stale_count(), 1);
        f.task_stat_into(42, 42, &mut out).unwrap();
        assert!(out.utime > first_utime, "fresh reads advance again");
        assert_eq!(inj.total_calls(), 4);
    }

    #[test]
    fn text_forms_follow_the_same_schedule_and_replay_stale() {
        let src = TickSource::new();
        let plan = FaultPlan {
            seed: 1,
            scripted: vec![
                ScriptedFault {
                    call: 2,
                    kind: FaultKind::IoTransient,
                },
                ScriptedFault {
                    call: 3,
                    kind: FaultKind::Stale,
                },
            ],
            ..Default::default()
        };
        let inj = FaultInjector::new(plan);
        let f = inj.wrap(&src);
        let mut arena = ReadArena::new();
        let utime = |arena: &ReadArena, span| {
            parse::parse_task_stat(arena.get(span).unwrap())
                .unwrap()
                .utime
        };
        let first = f.task_stat_text(42, 42, &mut arena).unwrap();
        let first_utime = utime(&arena, first);
        assert!(matches!(
            f.task_stat_text(42, 42, &mut arena),
            Err(SourceError::Io(_))
        ));
        // Call 3 renders the cached call-1 record into the arena.
        let stale = f.task_stat_text(42, 42, &mut arena).unwrap();
        assert_eq!(utime(&arena, stale), first_utime);
        assert_eq!(inj.stale_count(), 1);
        let fresh = f.task_stat_text(42, 42, &mut arena).unwrap();
        assert!(utime(&arena, fresh) > first_utime);
        // A stale-free plan forwards the inner text untouched and caches
        // nothing.
        let quiet = FaultInjector::new(FaultPlan::quiet(2));
        let q = quiet.wrap(&src);
        let span = q.task_status_text(42, 43, &mut arena).unwrap();
        let status = parse::parse_task_status(arena.get(span).unwrap()).unwrap();
        assert_eq!((status.tid, status.tgid), (43, 42));
        assert!(quiet.state.borrow().cache.is_empty());
    }

    #[test]
    fn error_counts_exclude_requested_ops() {
        let src = TickSource::new();
        let plan = FaultPlan {
            seed: 1,
            per_op: vec![(Op::SchedStat, rates(|r| r.io_transient = 1.0))],
            ..Default::default()
        };
        let inj = FaultInjector::new(plan);
        let f = inj.wrap(&src);
        let _ = f.task_schedstat(42, 42);
        assert_eq!(inj.error_counts_excluding(&[Op::SchedStat]), [0, 0, 0, 0]);
        assert_eq!(inj.error_counts_excluding(&[]), [0, 1, 0, 0]);
    }

    #[test]
    fn exit_race_vanishes_matching_workers_but_keeps_them_listed() {
        let src = TickSource::new();
        // TickSource lists tids [42, 43] for pid 42; 43 % 2 == 1.
        let race = ExitRace::new(&src, 2, 1);
        assert_eq!(race.list_tasks(42).unwrap(), vec![42, 43]);
        // Main thread never vanishes, even when its residue matches.
        assert!(race.task_stat(42, 42).is_ok());
        assert!(matches!(race.task_stat(42, 43), Err(SourceError::NotFound)));
        assert!(matches!(
            race.task_status(42, 43),
            Err(SourceError::NotFound)
        ));
        assert!(matches!(
            race.task_schedstat(42, 43),
            Err(SourceError::NotFound)
        ));
        let mut stat = TaskStat::default();
        assert!(matches!(
            race.task_stat_into(42, 43, &mut stat),
            Err(SourceError::NotFound)
        ));
        let mut arena = crate::arena::ReadArena::default();
        assert!(matches!(
            race.task_stat_text(42, 43, &mut arena),
            Err(SourceError::NotFound)
        ));
        assert!(matches!(
            race.task_status_text(42, 43, &mut arena),
            Err(SourceError::NotFound)
        ));
        // Non-matching workers read through untouched.
        let odd = ExitRace::new(&src, 2, 0);
        assert!(odd.task_stat(42, 43).is_ok());
    }

    #[test]
    fn exit_race_is_stateless_and_call_order_independent() {
        let src = TickSource::new();
        let race = ExitRace::new(&src, 3, 1);
        // The vanish decision depends only on the tid, never on how many
        // or in what order calls were made.
        for _ in 0..3 {
            assert!(race.vanishes(42, 43));
            assert!(!race.vanishes(42, 44));
            assert!(!race.vanishes(43, 43), "main thread is exempt");
            let _ = race.task_stat(42, 44);
        }
        assert!(race.vanishes(42, 43));
    }

    #[test]
    fn exit_race_zero_modulus_is_transparent() {
        let src = TickSource::new();
        let race = ExitRace::new(&src, 0, 0);
        assert!(!race.vanishes(42, 43));
        assert!(race.task_stat(42, 43).is_ok());
        assert!(race.system_stat().is_ok());
        assert!(race.meminfo().is_ok());
    }
}
