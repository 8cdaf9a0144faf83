//! The sampling round: plan → read → fold, over one or N shards.
//!
//! Every sampling round runs this pipeline. [`Monitor::sample`] is its
//! one-shard inline case; [`ShardedMonitor`] adds per-shard sources,
//! the per-HWT-group watch assignment and, in [`ShardMode::Threads`],
//! dispatch over SPSC swap rings. A round is two trips through the
//! shards — task lists, then the per-tid reads the driver planned
//! (shed, quarantine, delta gate) — each folded driver-side in
//! canonical watch order, so any shard count or mode folds to
//! bit-identical state. Shard pumps read raw text into their batch's
//! [`ReadArena`] and parse it with the fast parsers; a panic inside a
//! batch costs only that batch's watches one round. Topology, the
//! single-writer invariant, arena lifetimes and the call order are in
//! DESIGN.md §13.

use crate::health::{FailureAction, HealthLedger};
use crate::monitor::{with_retry, Monitor};
use crate::sync::{Tracked, TrackedRw};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError};
use zerosum_proc::fault::FaultInjector;
use zerosum_proc::{
    parse, LinuxProc, Pid, ProcSource, ReadArena, SchedStat, SourceError, SourceResult, SystemStat,
    TaskStat, TaskStatus, Tid,
};
use zerosum_sched::{NodeSim, SimProcSource};
use zerosum_stats::{ShardReader, ShardRing, ShardWriter};

/// How shard pumps execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// Run every shard's pump on the driver thread. Same batch code,
    /// same rings-free data flow, no thread overhead — the right choice
    /// on oversubscribed or single-CPU hosts.
    Inline,
    /// One OS thread per shard, jobs and results exchanged over SPSC
    /// swap rings with park/unpark signalling.
    Threads,
}

/// A sampling substrate a shard can borrow a [`ProcSource`] view of.
///
/// Shards own their source *handle* but may share a substrate (the node
/// simulation, a fault injector's state). `with_source` scopes each
/// batch's reads to one borrow so sharing stays explicit: the simulated
/// implementation holds a read lock exactly for the duration of one
/// batch, and the engine never touches a ring inside that scope.
pub trait ShardSource {
    /// Runs `f` against a `ProcSource` view of the substrate.
    fn with_source<R>(&mut self, f: impl FnOnce(&dyn ProcSource) -> R) -> R;
}

/// A borrowed source is its own shard handle: the one-shard inline
/// round of [`Monitor::sample`] reads through it directly.
impl ShardSource for &dyn ProcSource {
    fn with_source<R>(&mut self, f: impl FnOnce(&dyn ProcSource) -> R) -> R {
        f(*self)
    }
}

/// Shard handle onto a shared [`NodeSim`]: every batch samples under a
/// read guard; the driver advances the simulation under a write guard
/// strictly between rounds (inside the `advance_time` callback of
/// [`ShardedMonitor::run_rounds`]).
#[derive(Clone)]
pub struct SimShardSource {
    sim: Arc<TrackedRw<NodeSim>>,
}

impl std::fmt::Debug for SimShardSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimShardSource")
            .field("lock", &self.sim.name())
            .finish()
    }
}

impl SimShardSource {
    /// A shard handle on `sim`.
    pub fn new(sim: Arc<TrackedRw<NodeSim>>) -> Self {
        SimShardSource { sim }
    }
}

impl ShardSource for SimShardSource {
    fn with_source<R>(&mut self, f: impl FnOnce(&dyn ProcSource) -> R) -> R {
        // Poison recovery: the sim holds plain counters; a panicking
        // reader cannot leave it inconsistent.
        let guard = self.sim.read().unwrap_or_else(PoisonError::into_inner);
        let src = SimProcSource::new(&guard);
        f(&src)
    }
}

/// Shard handle onto the live `/proc`: each shard owns its own
/// [`LinuxProc`] (path and read buffers are per-shard), so there is no
/// shared substrate at all.
#[derive(Debug)]
pub struct LinuxShardSource {
    src: LinuxProc,
}

impl LinuxShardSource {
    /// Wraps a per-shard live-procfs reader.
    pub fn new(src: LinuxProc) -> Self {
        LinuxShardSource { src }
    }
}

impl ShardSource for LinuxShardSource {
    fn with_source<R>(&mut self, f: impl FnOnce(&dyn ProcSource) -> R) -> R {
        f(&self.src)
    }
}

/// A [`ShardSource`] with a per-shard fault injector layered on top —
/// the chaos harness's shard-scoped failure domain. Faults injected
/// here hit only this shard's reads; the differential harness asserts
/// other shards' rounds are untouched.
#[derive(Debug)]
pub struct FaultyShardSource<S> {
    inner: S,
    injector: FaultInjector,
}

impl<S> FaultyShardSource<S> {
    /// Wraps `inner`, injecting per `injector`'s plan.
    pub fn new(inner: S, injector: FaultInjector) -> Self {
        FaultyShardSource { inner, injector }
    }

    /// The injector, for reconciling its fault log against ledgers.
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }
}

impl<S: ShardSource> ShardSource for FaultyShardSource<S> {
    fn with_source<R>(&mut self, f: impl FnOnce(&dyn ProcSource) -> R) -> R {
        let FaultyShardSource { inner, injector } = self;
        inner.with_source(|src| f(&injector.wrap(src)))
    }
}

/// A [`ShardSource`] whose per-task reads race against task exit: tids
/// in a fixed residue class vanish (`NotFound`) on every read while
/// staying listed, via [`zerosum_proc::ExitRace`]. Unlike
/// [`FaultyShardSource`], the fault surface is stateless and
/// call-order independent, so one-shard and N-shard rounds see the
/// *identical* races — which is what lets the shard differential
/// exercise mid-round departures on both sides and still demand
/// bit-identical outcomes. Modulus 0 is fully transparent.
#[derive(Debug)]
pub struct VanishShardSource<S> {
    inner: S,
    modulus: u64,
    residue: u64,
}

impl<S> VanishShardSource<S> {
    /// Wraps `inner`; worker tids with `tid % modulus == residue`
    /// vanish on read.
    pub fn new(inner: S, modulus: u64, residue: u64) -> Self {
        VanishShardSource {
            inner,
            modulus,
            residue,
        }
    }
}

impl<S: ShardSource> ShardSource for VanishShardSource<S> {
    fn with_source<R>(&mut self, f: impl FnOnce(&dyn ProcSource) -> R) -> R {
        let (m, r) = (self.modulus, self.residue);
        self.inner
            .with_source(|src| f(&zerosum_proc::ExitRace::new(src, m, r)))
    }
}

/// Which trip of the round a batch carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Phase {
    /// Nothing to do (fresh or between rounds).
    #[default]
    Idle,
    /// Trip 1: task-list reads.
    List,
    /// Trip 2: planned per-tid reads.
    Read,
}

/// One watch's task-list job/result.
#[derive(Debug)]
struct ListSlot {
    /// Index of the watch in `Monitor::processes`.
    watch: usize,
    pid: Pid,
    /// The listed tids (valid when `outcome` is `Ok`).
    tids: Vec<Tid>,
    outcome: SourceResult<()>,
}

impl Default for ListSlot {
    fn default() -> Self {
        ListSlot {
            watch: usize::MAX,
            pid: 0,
            tids: Vec::new(),
            outcome: Ok(()),
        }
    }
}

/// One planned per-tid read: the driver decided this tid must be
/// sampled; `delta_prev` carries the delta-sampling reference when the
/// gate is armed (delta sampling on, worker thread, a last-good sample
/// exists).
#[derive(Debug, Clone, Copy, Default)]
struct TaskPlan {
    tid: Tid,
    delta_prev: Option<SchedStat>,
}

/// Outcome class of one per-tid read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum ReadKind {
    /// `stat`+`status` read and parsed; buffers hold fresh records.
    #[default]
    Fresh,
    /// Unchanged `schedstat`: reuse the last good sample driver-side.
    DeltaHit,
    /// `NotFound` — the §3.1.1 exit race.
    Vanished,
    /// Any other failure; the driver runs the failure policy.
    Failed,
}

/// One per-tid read result.
#[derive(Debug, Default)]
struct TaskReadSlot {
    tid: Tid,
    kind: ReadKind,
    ss: Option<SchedStat>,
    stat: TaskStat,
    status: TaskStatus,
}

/// One watch's planned reads and their results.
#[derive(Debug, Default)]
struct WatchReadSlot {
    /// Index of the watch in `Monitor::processes`.
    watch: usize,
    pid: Pid,
    /// Shard-local health ledger for this watch's reads: starts zeroed
    /// every round and is *added* into the watch's real ledger at fold
    /// (every field is a sum, so the merge is exact).
    ledger: HealthLedger,
    plans: Vec<TaskPlan>,
    slots: Vec<TaskReadSlot>,
    slots_used: usize,
}

/// Everything one shard needs for one trip: jobs out, results back, in
/// the same allocation, plus the arena the trip's raw text lands in.
/// Batches recycle through the rings (threads mode) or sit in place
/// (inline mode); whoever holds a batch owns its arena, and after
/// warm-up no trip allocates.
#[derive(Debug, Default)]
struct ShardBatch {
    phase: Phase,
    res: crate::config::ResilienceConfig,
    /// Shard-local ledger for node-scope reads (task lists), merged
    /// into `Monitor::node_health` at fold.
    node_ledger: HealthLedger,
    /// Retry backoff accrued by this shard's reads this trip, µs.
    backoff_us: u64,
    /// Set when the batch body panicked; the driver records a
    /// supervisor gap for this shard and skips its stale results.
    panicked: bool,
    lists: Vec<ListSlot>,
    lists_used: usize,
    reads: Vec<WatchReadSlot>,
    reads_used: usize,
    arena: ReadArena,
}

/// The monitor's per-round scratch, reused across rounds: the node
/// `stat` record, the watched-RSS list, one batch per shard, the watch
/// assignment and the fold cursors. Taken out of the monitor for the
/// duration of a round, so the fold can borrow both.
#[derive(Debug, Default)]
pub(crate) struct SampleScratch {
    sys: SystemStat,
    watched_rss: Vec<(Pid, u64)>,
    batches: Vec<ShardBatch>,
    /// Watch index -> shard, rebuilt every round (see `build_assignment`).
    assign: Vec<usize>,
    order: Vec<usize>,
    cur_a: Vec<usize>,
    cur_b: Vec<usize>,
}

/// Ring type used between the driver and one shard thread. The slots
/// are [`Tracked`] locks so the hand-off registers with the runtime
/// lock-order sanitizer like every other lock in the system.
type BatchRing = ShardRing<ShardBatch, Tracked<ShardBatch>>;

fn batch_ring(name: &'static str) -> BatchRing {
    ShardRing::from_slots(
        (0..2)
            .map(|_| Tracked::new(name, ShardBatch::default()))
            .collect(),
    )
}

/// The sharded sampling engine: a [`Monitor`] whose rounds are executed
/// by per-HWT-group shards.
///
/// The monitor inside is untouched state-wise — reports, exports, the
/// governor, and the feed all read it exactly as they would one sampled
/// by [`Monitor::sample`], and an N-shard round folds to bit-identical
/// state.
#[derive(Debug)]
pub struct ShardedMonitor {
    monitor: Monitor,
    nshards: usize,
    mode: ShardMode,
}

impl ShardedMonitor {
    /// Wraps `monitor` for sharded sampling with `nshards` shards
    /// (clamped to ≥1).
    pub fn new(monitor: Monitor, nshards: usize, mode: ShardMode) -> Self {
        ShardedMonitor {
            monitor,
            nshards: nshards.max(1),
            mode,
        }
    }

    /// The wrapped monitor.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Mutable access to the wrapped monitor (watch registration,
    /// feed subscription, config).
    pub fn monitor_mut(&mut self) -> &mut Monitor {
        &mut self.monitor
    }

    /// Unwraps the monitor (for reports after sampling ends).
    pub fn into_monitor(self) -> Monitor {
        self.monitor
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.nshards
    }

    /// Runs `rounds` sampling rounds.
    ///
    /// `make_source(i)` builds shard `i`'s source handle for
    /// `i < shard_count()`, and the driver's own handle (node-scope
    /// `stat`/`meminfo` reads) for `i == shard_count()`.
    /// `advance_time(r)` is called before round `r` and returns its
    /// observation time — it is
    /// the only place the substrate may be advanced (e.g. under the sim
    /// lock's write guard), because no shard holds a read borrow
    /// between rounds.
    pub fn run_rounds<S: ShardSource + Send>(
        &mut self,
        mut make_source: impl FnMut(usize) -> S,
        rounds: u64,
        mut advance_time: impl FnMut(u64) -> f64,
    ) {
        match self.mode {
            ShardMode::Inline => self.run_inline(&mut make_source, rounds, &mut advance_time),
            ShardMode::Threads => self.run_threads(&mut make_source, rounds, &mut advance_time),
        }
    }

    fn run_inline<S: ShardSource>(
        &mut self,
        make_source: &mut impl FnMut(usize) -> S,
        rounds: u64,
        advance_time: &mut impl FnMut(u64) -> f64,
    ) {
        let mut sources: Vec<S> = (0..self.nshards).map(&mut *make_source).collect();
        let mut driver_src = make_source(self.nshards);
        for r in 0..rounds {
            let t_s = advance_time(r);
            supervised_round(
                &mut self.monitor,
                self.nshards,
                t_s,
                &mut driver_src,
                |batches| dispatch_inline(batches, &mut sources),
            );
        }
    }

    fn run_threads<S: ShardSource + Send>(
        &mut self,
        make_source: &mut impl FnMut(usize) -> S,
        rounds: u64,
        advance_time: &mut impl FnMut(u64) -> f64,
    ) {
        // The aggregation thread: the audit's `driver` role. Touches
        // below keep the observed role edges in sync with the static
        // `ring-discipline` contract (DESIGN.md §15).
        let _role = crate::role::enter("driver");
        let nshards = self.nshards;
        let stop = AtomicBool::new(false);
        let mut rings: Vec<(BatchRing, BatchRing)> = (0..nshards)
            .map(|_| (batch_ring("core.shard.job"), batch_ring("core.shard.out")))
            .collect();
        let mut jobs_w = Vec::with_capacity(nshards);
        let mut outs_r = Vec::with_capacity(nshards);
        let mut ends = Vec::with_capacity(nshards);
        for (job, out) in rings.iter_mut() {
            let (jw, jr) = job.split();
            let (ow, or) = out.split();
            jobs_w.push(jw);
            outs_r.push(or);
            ends.push((jr, ow));
        }
        let sources: Vec<S> = (0..nshards).map(&mut *make_source).collect();
        let mut driver_src = make_source(nshards);
        let mut done_flags = vec![false; nshards];
        std::thread::scope(|scope| {
            let stop_ref = &stop;
            let driver_thread = std::thread::current();
            let mut workers = Vec::with_capacity(nshards);
            for ((jr, ow), source) in ends.into_iter().zip(sources) {
                let driver_thread = driver_thread.clone();
                workers
                    .push(scope.spawn(move || shard_loop(jr, ow, source, stop_ref, driver_thread)));
            }
            for r in 0..rounds {
                let t_s = advance_time(r);
                supervised_round(
                    &mut self.monitor,
                    nshards,
                    t_s,
                    &mut driver_src,
                    |batches| {
                        // Dispatch: swap each shard's batch into its job
                        // ring (the swap leaves a recycled batch behind as
                        // the staging buffer for the result) and wake the
                        // pump.
                        crate::role::touch("core.shard.job.writer");
                        let mut remaining = 0usize;
                        for (((batch, jw), worker), flag) in batches
                            .iter_mut()
                            .zip(jobs_w.iter_mut())
                            .zip(workers.iter())
                            .zip(done_flags.iter_mut())
                        {
                            // Capacity 2 with at most one job in flight:
                            // the push cannot fail; treat failure as
                            // "nothing to wait for" so the driver can
                            // never deadlock on its own invariant.
                            *flag = !jw.try_push_swap(batch);
                            if !*flag {
                                worker.thread().unpark();
                                remaining += 1;
                            }
                        }
                        // Collect: pop each result back into the staging
                        // slot. Parking is race-free — pumps unpark the
                        // driver after every push, and a stored token makes
                        // a park after a missed wake return immediately.
                        crate::role::touch("core.shard.out.reader");
                        while remaining > 0 {
                            let mut progressed = false;
                            for ((batch, or), flag) in batches
                                .iter_mut()
                                .zip(outs_r.iter_mut())
                                .zip(done_flags.iter_mut())
                            {
                                if !*flag && or.try_pop_swap(batch) {
                                    *flag = true;
                                    remaining -= 1;
                                    progressed = true;
                                }
                            }
                            if remaining > 0 && !progressed {
                                std::thread::park();
                            }
                        }
                    },
                );
            }
            stop.store(true, Ordering::Release);
            for w in workers.iter() {
                w.thread().unpark();
            }
        });
    }
}

/// The one-shard inline round behind [`Monitor::sample`]: the whole
/// pipeline on the calling thread, every read through `src`.
pub(crate) fn sample_inline(mon: &mut Monitor, t_s: f64, src: &dyn ProcSource) {
    let (mut driver, mut shard) = (src, [src]);
    supervised_round(mon, 1, t_s, &mut driver, |batches| {
        dispatch_inline(batches, &mut shard)
    });
}

/// Inline dispatch: every shard's pump runs on the driver thread.
fn dispatch_inline<S: ShardSource>(batches: &mut [ShardBatch], sources: &mut [S]) {
    for (batch, source) in batches.iter_mut().zip(sources.iter_mut()) {
        process_batch(batch, source);
    }
}

/// One full round under the sampling supervisor. `trip` carries the
/// batches through the shards once (inline or over the rings); it runs
/// twice per round, for the list and the read trip. A panic anywhere on
/// the driver side is caught, recorded as a gap in
/// [`Monitor::supervisor`], and sampling resumes at the next period —
/// the monitor never takes the application down with it (§3.1).
/// (Shard-side panics never reach here — they are caught per batch
/// and recorded per shard at fold.)
fn supervised_round<S: ShardSource>(
    mon: &mut Monitor,
    nshards: usize,
    t_s: f64,
    driver_src: &mut S,
    mut trip: impl FnMut(&mut [ShardBatch]),
) {
    let mut scratch = std::mem::take(&mut mon.scratch);
    scratch.batches.resize_with(nshards, ShardBatch::default);
    let body = AssertUnwindSafe(|| round_inner(mon, &mut scratch, t_s, driver_src, &mut trip));
    if std::panic::catch_unwind(body).is_err() {
        // `mon` may hold a partially-updated round; every tracker
        // tolerates that (observations are append-only), so restart
        // amounts to recording the gap and carrying on.
        mon.supervisor.restarts += 1;
        mon.supervisor.gap_times_s.push(t_s);
    }
    mon.scratch = scratch;
}

fn round_inner<S: ShardSource>(
    mon: &mut Monitor,
    scratch: &mut SampleScratch,
    t_s: f64,
    driver_src: &mut S,
    trip: &mut impl FnMut(&mut [ShardBatch]),
) {
    let shed = round_begin(mon, scratch, t_s, driver_src);
    let SampleScratch {
        watched_rss,
        batches,
        assign,
        order,
        cur_a,
        cur_b,
        ..
    } = scratch;
    build_assignment(mon, assign, order, batches.len());
    build_list_jobs(mon, batches, assign);
    trip(batches);
    fold_lists_and_plan(mon, batches, assign, cur_a, shed, t_s);
    trip(batches);
    fold_reads(mon, batches, assign, cur_a, cur_b, watched_rss, t_s);
    round_end(mon, watched_rss, t_s, driver_src);
}

/// Shard thread body: drain jobs, pump each batch, hand the result
/// back, wake the driver. Parks when idle; the driver unparks it on
/// every dispatch and once more at shutdown.
fn shard_loop<S: ShardSource>(
    mut jobs: ShardReader<'_, ShardBatch, Tracked<ShardBatch>>,
    mut results: ShardWriter<'_, ShardBatch, Tracked<ShardBatch>>,
    mut source: S,
    stop: &AtomicBool,
    driver: std::thread::Thread,
) {
    let _role = crate::role::enter("shard-pump");
    crate::role::touch("core.shard.job.reader");
    crate::role::touch("core.shard.out.writer");
    let mut local = ShardBatch::default();
    loop {
        let mut worked = false;
        while jobs.try_pop_swap(&mut local) {
            worked = true;
            process_batch(&mut local, &mut source);
            while !results.try_push_swap(&mut local) {
                // Unreachable under the ≤1-in-flight invariant; yield
                // rather than assume it.
                std::thread::yield_now();
            }
            driver.unpark();
        }
        if stop.load(Ordering::Acquire) {
            return;
        }
        if !worked {
            std::thread::park();
        }
    }
}

/// Executes one batch under a panic boundary: the shard pump. A panic
/// anywhere in the batch body (a poisoned substrate, an injected
/// `FaultKind::Panic`) marks the batch instead of unwinding the pump —
/// the driver records the gap and other shards are unaffected.
fn process_batch<S: ShardSource>(batch: &mut ShardBatch, source: &mut S) {
    let body = AssertUnwindSafe(|| run_batch(batch, source));
    if std::panic::catch_unwind(body).is_err() {
        batch.panicked = true;
    }
}

/// The batch body: one trip's reads for one shard.
fn run_batch<S: ShardSource>(batch: &mut ShardBatch, source: &mut S) {
    let ShardBatch {
        phase,
        res,
        node_ledger,
        backoff_us,
        lists,
        lists_used,
        reads,
        reads_used,
        arena,
        ..
    } = batch;
    arena.reset();
    match phase {
        Phase::Idle => {}
        Phase::List => {
            source.with_source(|src| {
                for ls in lists.iter_mut().take(*lists_used) {
                    let pid = ls.pid;
                    let tids = &mut ls.tids;
                    ls.outcome = with_retry(res, node_ledger, backoff_us, || {
                        src.list_tasks_into(pid, tids)
                    });
                }
            });
        }
        Phase::Read => {
            source.with_source(|src| {
                for ws in reads.iter_mut().take(*reads_used) {
                    let pid = ws.pid;
                    let WatchReadSlot {
                        ledger,
                        plans,
                        slots,
                        slots_used,
                        ..
                    } = ws;
                    *slots_used = 0;
                    for plan in plans.iter() {
                        if *slots_used == slots.len() {
                            slots.push(TaskReadSlot::default());
                        }
                        let Some(slot) = slots.get_mut(*slots_used) else {
                            break;
                        };
                        *slots_used += 1;
                        let tid = plan.tid;
                        slot.tid = tid;
                        // schedstat first: wait-time source and delta
                        // gate; optional (CONFIG_SCHED_INFO), never
                        // retried.
                        slot.ss = src.task_schedstat(pid, tid).ok();
                        if let (Some(prev), Some(ss)) = (plan.delta_prev, slot.ss) {
                            // Unchanged schedstat ⇒ never dispatched
                            // since the last fresh read ⇒ `stat` and
                            // `status` are unchanged.
                            if prev == ss {
                                slot.kind = ReadKind::DeltaHit;
                                continue;
                            }
                        }
                        let stat_slot = &mut slot.stat;
                        let stat_read = with_retry(res, ledger, backoff_us, || {
                            let span = src.task_stat_text(pid, tid, arena)?;
                            let Some(line) = arena.get(span) else {
                                return Err(SourceError::Malformed(
                                    "stat span out of range".into(),
                                ));
                            };
                            match parse::parse_task_stat_view_fast(line) {
                                Ok(view) => {
                                    view.assign_to(stat_slot);
                                    Ok(())
                                }
                                Err(e) => Err(SourceError::Malformed(e.to_string())),
                            }
                        });
                        let read = match stat_read {
                            Ok(()) => {
                                let status_slot = &mut slot.status;
                                with_retry(res, ledger, backoff_us, || {
                                    let span = src.task_status_text(pid, tid, arena)?;
                                    let Some(text) = arena.get(span) else {
                                        return Err(SourceError::Malformed(
                                            "status span out of range".into(),
                                        ));
                                    };
                                    parse::parse_task_status_fast(text, status_slot)
                                        .map_err(|e| SourceError::Malformed(e.to_string()))
                                })
                            }
                            Err(e) => Err(e),
                        };
                        slot.kind = match read {
                            Ok(()) => ReadKind::Fresh,
                            Err(SourceError::NotFound) => ReadKind::Vanished,
                            Err(_) => ReadKind::Failed,
                        };
                    }
                }
            });
        }
    }
}

/// Round prologue: counters, the shed decision, node `stat`.
fn round_begin<S: ShardSource>(
    mon: &mut Monitor,
    scratch: &mut SampleScratch,
    t_s: f64,
    src: &mut S,
) -> bool {
    crate::role::touch("core.shard.fold-scratch");
    mon.stats.rounds += 1;
    mon.last_t_s = t_s;
    let res = mon.config.resilience;
    // Deadline watchdog: after an overrun, this round sheds per-LWP
    // detail (worker stat/status reads) to get back under budget.
    let shed = std::mem::take(&mut mon.governor.shed_next);
    if shed {
        mon.governor.shed_rounds += 1;
    }
    let sys = &mut scratch.sys;
    let read = src.with_source(|s| {
        with_retry(
            &res,
            &mut mon.node_health,
            &mut mon.pending_backoff_us,
            || s.system_stat_into(sys),
        )
    });
    match read {
        Ok(()) => mon.hwt.observe(t_s, sys),
        Err(_) => mon.stats.errors += 1,
    }
    scratch.watched_rss.clear();
    shed
}

/// Round epilogue: `meminfo` and the snapshot feed.
fn round_end<S: ShardSource>(mon: &mut Monitor, watched_rss: &[(Pid, u64)], t_s: f64, src: &mut S) {
    let res = mon.config.resilience;
    let read = src.with_source(|s| {
        with_retry(
            &res,
            &mut mon.node_health,
            &mut mon.pending_backoff_us,
            || s.meminfo(),
        )
    });
    match read {
        Ok(mi) => mon.mem.observe(t_s, &mi, watched_rss),
        Err(_) => mon.stats.errors += 1,
    }
    if mon.feed.subscriber_count() > 0 {
        let snap = crate::feed::snapshot_of(mon);
        mon.feed.publish(snap);
    }
}

/// Partitions watches into per-HWT-group shards: watches ordered by
/// first allowed CPU (the watch's observed mask, falling back to the
/// registered one), then chunked contiguously — processes sharing a
/// hardware-thread neighborhood land in the same shard. Deterministic:
/// ties break by pid, and the chunking depends only on the order.
fn build_assignment(
    mon: &Monitor,
    assign: &mut Vec<usize>,
    order: &mut Vec<usize>,
    nshards: usize,
) {
    let n = mon.processes.len();
    order.clear();
    order.extend(0..n);
    order.sort_unstable_by_key(|&i| {
        mon.processes.get(i).map_or((u32::MAX, u32::MAX), |w| {
            let cpu = w
                .cpus_allowed
                .first()
                .or_else(|| w.info.cpus_allowed.first())
                .unwrap_or(u32::MAX);
            (cpu, w.info.pid)
        })
    });
    assign.clear();
    assign.extend(std::iter::repeat_n(0usize, n));
    for (pos, &widx) in order.iter().enumerate() {
        let shard = (pos.saturating_mul(nshards) / n.max(1)).min(nshards.saturating_sub(1));
        if let Some(a) = assign.get_mut(widx) {
            *a = shard;
        }
    }
}

/// Stages trip 1: one list job per live watch, routed by `assign`.
fn build_list_jobs(mon: &Monitor, batches: &mut [ShardBatch], assign: &[usize]) {
    let res = mon.config.resilience;
    for batch in batches.iter_mut() {
        batch.lists_used = 0;
        batch.res = res;
        batch.phase = Phase::List;
        batch.panicked = false;
    }
    for (i, w) in mon.processes.iter().enumerate() {
        if w.gone {
            continue;
        }
        let Some(&shard) = assign.get(i) else {
            continue;
        };
        let Some(batch) = batches.get_mut(shard) else {
            continue;
        };
        if batch.lists_used == batch.lists.len() {
            batch.lists.push(ListSlot::default());
        }
        let used = batch.lists_used;
        let Some(slot) = batch.lists.get_mut(used) else {
            continue;
        };
        batch.lists_used += 1;
        slot.watch = i;
        slot.pid = w.info.pid;
        slot.tids.clear();
        slot.outcome = Ok(());
    }
}

/// Folds trip 1 and plans trip 2. Folds each watch's list outcome in
/// canonical order (a vanished process is gone, any other failure
/// skips the watch this round), then decides — driver-side, where the
/// health state lives — which tids each shard must read: shed rounds
/// keep only the main thread, quarantined tids are skipped (spending
/// their re-probe counters), and the delta gate's reference
/// `schedstat` is attached where armed.
fn fold_lists_and_plan(
    mon: &mut Monitor,
    batches: &mut [ShardBatch],
    assign: &[usize],
    cur: &mut Vec<usize>,
    shed: bool,
    t_s: f64,
) {
    let delta_on = mon.config.delta_sampling;
    for batch in batches.iter_mut() {
        mon.node_health.merge(&batch.node_ledger);
        mon.pending_backoff_us += batch.backoff_us;
        batch.node_ledger = HealthLedger::default();
        batch.backoff_us = 0;
        batch.reads_used = 0;
        batch.phase = Phase::Read;
    }
    cur.clear();
    cur.extend(std::iter::repeat_n(0usize, batches.len()));
    let Monitor {
        processes, stats, ..
    } = mon;
    for (i, w) in processes.iter_mut().enumerate() {
        if w.gone {
            continue;
        }
        let Some(&shard) = assign.get(i) else {
            continue;
        };
        let Some(batch) = batches.get_mut(shard) else {
            continue;
        };
        let Some(cursor) = cur.get_mut(shard) else {
            continue;
        };
        let ShardBatch {
            lists,
            lists_used,
            reads,
            reads_used,
            panicked,
            ..
        } = batch;
        let Some(slot) = lists.get(..*lists_used).and_then(|l| l.get(*cursor)) else {
            continue;
        };
        if slot.watch != i {
            continue;
        }
        *cursor += 1;
        if *panicked {
            // Stale results: this shard's round is a recorded gap.
            continue;
        }
        match &slot.outcome {
            Ok(()) => {}
            Err(SourceError::NotFound) => {
                w.gone = true;
                stats.vanished += 1;
                continue;
            }
            Err(_) => {
                stats.errors += 1;
                continue;
            }
        }
        if *reads_used == reads.len() {
            reads.push(WatchReadSlot::default());
        }
        let used = *reads_used;
        let Some(ws) = reads.get_mut(used) else {
            continue;
        };
        *reads_used += 1;
        let pid = w.info.pid;
        ws.watch = i;
        ws.pid = pid;
        ws.ledger = HealthLedger::default();
        ws.plans.clear();
        ws.slots_used = 0;
        for &tid in &slot.tids {
            if shed && tid != pid {
                // Shed round: per-LWP detail dropped; totals, the main
                // thread, and memory kept.
                continue;
            }
            if w.health.should_skip(tid) {
                // Quarantined after persistent failures; re-probed
                // once per `reprobe_after` rounds.
                continue;
            }
            // The main thread is exempt from the delta gate: it carries
            // the process-wide RSS, which moves without the thread
            // running.
            let delta_prev = if delta_on && tid != pid && w.health.last_good(tid).is_some() {
                w.last_schedstat.get(&tid).copied()
            } else {
                None
            };
            ws.plans.push(TaskPlan { tid, delta_prev });
        }
    }
    for batch in batches.iter_mut() {
        if batch.panicked {
            mon.supervisor.restarts += 1;
            mon.supervisor.gap_times_s.push(t_s);
            batch.panicked = false;
            // Nothing was planned for its watches; trip 2 is a no-op
            // for this shard.
            batch.reads_used = 0;
        }
    }
}

/// Folds trip 2 in canonical watch order: the drain. Per task slot it
/// runs health accounting, the failure policy, series observation and
/// the main-thread RSS tail, then the end-of-round lifecycle sweep
/// (`ProcessWatch::finish_round`) per watch. All counters fold by
/// addition, so totals reconcile exactly against fault-injector logs,
/// shard count notwithstanding.
fn fold_reads(
    mon: &mut Monitor,
    batches: &mut [ShardBatch],
    assign: &[usize],
    cur_l: &mut Vec<usize>,
    cur_r: &mut Vec<usize>,
    watched_rss: &mut Vec<(Pid, u64)>,
    t_s: f64,
) {
    let res = mon.config.resilience;
    let max_exited = mon.config.max_exited_tracks;
    cur_l.clear();
    cur_l.extend(std::iter::repeat_n(0usize, batches.len()));
    cur_r.clear();
    cur_r.extend(std::iter::repeat_n(0usize, batches.len()));
    let Monitor {
        processes, stats, ..
    } = mon;
    for (i, w) in processes.iter_mut().enumerate() {
        let Some(&shard) = assign.get(i) else {
            continue;
        };
        let Some(batch) = batches.get_mut(shard) else {
            continue;
        };
        let ShardBatch {
            lists,
            lists_used,
            reads,
            reads_used,
            panicked,
            ..
        } = batch;
        // Only this round's slots: a slot past the used count holds an
        // earlier round's results.
        let lists = lists.get(..*lists_used).unwrap_or_default();
        let reads = reads.get_mut(..*reads_used).unwrap_or_default();
        // Advance this shard's list cursor past this watch's slot (if
        // any) and capture it for `mark_exited`.
        let list_slot = match cur_l.get_mut(shard) {
            Some(c) => match lists.get(*c) {
                Some(s) if s.watch == i => {
                    *c += 1;
                    Some(s)
                }
                _ => None,
            },
            None => None,
        };
        // Same for the read slot; watches whose list errored (or whose
        // shard panicked) have none and fold nothing — not even
        // `finish_round`.
        let ws = match cur_r.get_mut(shard) {
            Some(c) => match reads.get_mut(*c) {
                Some(s) if s.watch == i => {
                    *c += 1;
                    Some(s)
                }
                _ => None,
            },
            None => None,
        };
        let (Some(list_slot), Some(ws)) = (list_slot, ws) else {
            continue;
        };
        if *panicked {
            continue;
        }
        let pid = ws.pid;
        w.health.ledger.merge(&ws.ledger);
        for slot in ws.slots.iter().take(ws.slots_used) {
            let tid = slot.tid;
            let interpolated;
            let (stat, status, ss) = match slot.kind {
                ReadKind::DeltaHit => {
                    if let (Some(ss), Some((stat, status))) = (slot.ss, w.health.last_good(tid)) {
                        stats.delta_hits += 1;
                        w.lwps
                            .observe_with_schedstat(pid, t_s, stat, status, Some(ss));
                    }
                    continue;
                }
                ReadKind::Vanished => {
                    // Thread exited between the directory listing and
                    // the read: the normal race of §3.1.1.
                    stats.vanished += 1;
                    w.health.forget(tid);
                    w.last_schedstat.remove(&tid);
                    continue;
                }
                ReadKind::Fresh => {
                    w.health.record_success(tid, &slot.stat, &slot.status);
                    if let Some(ss) = slot.ss {
                        w.last_schedstat.insert(tid, ss);
                    }
                    (&slot.stat, &slot.status, slot.ss)
                }
                ReadKind::Failed => {
                    stats.errors += 1;
                    match w.health.record_failure(tid, &res) {
                        // Degraded: repeat the last good sample so the
                        // time series stays continuous; the ledger flags
                        // the substitution. Interpolated rounds report no
                        // schedstat — a fresh schedstat against a stale
                        // stat would skew wait deltas.
                        FailureAction::Interpolate(pair) => {
                            interpolated = pair;
                            (&interpolated.0, &interpolated.1, None)
                        }
                        FailureAction::Drop => continue,
                    }
                }
            };
            if tid == pid {
                if w.cpus_allowed.is_empty() {
                    w.cpus_allowed.copy_from(&status.cpus_allowed);
                }
                w.rss_series.push((t_s, status.vm_rss_kib));
                watched_rss.push((pid, status.vm_rss_kib));
            }
            w.lwps.observe_with_schedstat(pid, t_s, stat, status, ss);
        }
        w.finish_round(&list_slot.tids, max_exited);
    }
    for batch in batches.iter_mut() {
        if batch.panicked {
            mon.supervisor.restarts += 1;
            mon.supervisor.gap_times_s.push(t_s);
            batch.panicked = false;
        }
        mon.pending_backoff_us += batch.backoff_us;
        batch.backoff_us = 0;
        batch.phase = Phase::Idle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ZeroSumConfig;
    use crate::monitor::ProcessInfo;
    use zerosum_sched::{Behavior, SchedParams};
    use zerosum_topology::{presets, CpuSet};

    /// A 3-process node: mixed thread counts, distinct HWT groups, one
    /// process that finishes mid-run (exercising the vanish path).
    fn build_sim() -> (NodeSim, Vec<Pid>) {
        build_sim_with(1_200_000)
    }

    fn build_sim_with(rank1_us: u64) -> (NodeSim, Vec<Pid>) {
        let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
        let mut pids = Vec::new();
        let specs: [(&str, [u32; 2], usize, u64); 3] = [
            ("rank0", [0, 1], 2, 9_000_000),
            ("rank1", [2, 3], 1, rank1_us),
            ("rank2", [4, 5], 3, 9_000_000),
        ];
        for (name, cpus, workers, remaining_us) in specs {
            let pid = sim.spawn_process(
                name,
                CpuSet::from_indices(cpus),
                4_096,
                Behavior::FiniteCompute {
                    remaining_us,
                    chunk_us: 10_000,
                },
            );
            for _ in 0..workers {
                sim.spawn_task(
                    pid,
                    "OpenMP",
                    None,
                    Behavior::FiniteCompute {
                        remaining_us,
                        chunk_us: 10_000,
                    },
                    false,
                );
            }
            pids.push(pid);
        }
        (sim, pids)
    }

    fn monitor_for(pids: &[Pid]) -> Monitor {
        let mut mon = Monitor::new(ZeroSumConfig::default());
        for &pid in pids {
            mon.watch_process(ProcessInfo {
                pid,
                rank: Some(pid),
                hostname: "simnode0001".into(),
                gpus: vec![],
                cpus_allowed: Default::default(),
            });
        }
        mon
    }

    /// Runs `sample` (the serial reference or `Monitor::sample`) for
    /// `rounds`, returning the monitor plus the per-round feed
    /// snapshots.
    fn run_direct(
        rounds: u64,
        sample: fn(&mut Monitor, f64, &dyn ProcSource),
    ) -> (Monitor, Vec<crate::feed::SampleSnapshot>) {
        let (mut sim, pids) = build_sim();
        let mut mon = monitor_for(&pids);
        let rx = mon.feed.subscribe(rounds as usize + 1);
        for r in 0..rounds {
            sim.run_for(400_000);
            sample(&mut mon, (r + 1) as f64, &SimProcSource::new(&sim));
        }
        let snaps = rx.try_iter().map(|s| (*s).clone()).collect();
        (mon, snaps)
    }

    /// The retired serial loop: the oracle every pipeline shape must
    /// match.
    fn run_serial(rounds: u64) -> (Monitor, Vec<crate::feed::SampleSnapshot>) {
        run_direct(rounds, crate::monitor::serial_reference::sample)
    }

    fn run_sharded(
        rounds: u64,
        nshards: usize,
        mode: ShardMode,
    ) -> (Monitor, Vec<crate::feed::SampleSnapshot>) {
        let (sim, pids) = build_sim();
        let sim = Arc::new(TrackedRw::new("core.shard.source", sim));
        let mut mon = monitor_for(&pids);
        let rx = mon.feed.subscribe(rounds as usize + 1);
        let mut sharded = ShardedMonitor::new(mon, nshards, mode);
        let sim_for_sources = Arc::clone(&sim);
        sharded.run_rounds(
            move |_| SimShardSource::new(Arc::clone(&sim_for_sources)),
            rounds,
            |r| {
                let mut g = sim.write().unwrap_or_else(PoisonError::into_inner);
                g.run_for(400_000);
                (r + 1) as f64
            },
        );
        let snaps = rx.try_iter().map(|s| (*s).clone()).collect();
        (sharded.into_monitor(), snaps)
    }

    fn assert_identical(serial: &Monitor, sharded: &Monitor) {
        assert_eq!(serial.stats, sharded.stats);
        assert_eq!(
            format!("{:?}", serial.health_total()),
            format!("{:?}", sharded.health_total())
        );
        assert_eq!(serial.hwt.sample_count(), sharded.hwt.sample_count());
        assert_eq!(serial.mem.samples(), sharded.mem.samples());
        for (a, b) in serial.processes().iter().zip(sharded.processes().iter()) {
            assert_eq!(a.gone, b.gone, "pid {}", a.info.pid);
            assert_eq!(a.rss_series.as_slice(), b.rss_series.as_slice());
            assert_eq!(
                a.cpus_allowed.to_list_string(),
                b.cpus_allowed.to_list_string()
            );
            // HashMap iteration order is arbitrary; compare sorted.
            let sorted = |w: &crate::monitor::ProcessWatch| {
                let mut v: Vec<_> = w.last_schedstat.iter().map(|(k, v)| (*k, *v)).collect();
                v.sort_unstable_by_key(|&(k, _)| k);
                v
            };
            assert_eq!(sorted(a), sorted(b));
        }
    }

    #[test]
    fn inline_sharded_round_is_bit_identical_to_serial() {
        let (serial, snaps_a) = run_serial(8);
        let (sharded, snaps_b) = run_sharded(8, 3, ShardMode::Inline);
        assert_eq!(snaps_a.len(), 8);
        assert_eq!(snaps_a, snaps_b, "per-round snapshots diverged");
        assert_identical(&serial, &sharded);
        assert_eq!(sharded.supervisor.restarts, 0);
    }

    #[test]
    fn threads_mode_matches_serial() {
        let (serial, snaps_a) = run_serial(5);
        let (sharded, snaps_b) = run_sharded(5, 2, ShardMode::Threads);
        assert_eq!(snaps_a, snaps_b);
        assert_identical(&serial, &sharded);
    }

    #[test]
    fn one_shard_inline_matches_serial() {
        // `Monitor::sample` is the one-shard inline round, and so is a
        // one-shard `ShardedMonitor`: both fold exactly like the
        // retired serial loop.
        let (serial, snaps_a) = run_serial(4);
        let (direct, snaps_b) = run_direct(4, |m, t, s| m.sample(t, s));
        let (sharded, snaps_c) = run_sharded(4, 1, ShardMode::Inline);
        assert_eq!(snaps_a, snaps_b);
        assert_eq!(snaps_a, snaps_c);
        assert_identical(&serial, &direct);
        assert_identical(&serial, &sharded);
    }

    #[test]
    fn assignment_groups_by_first_allowed_cpu() {
        let mut mon = Monitor::new(ZeroSumConfig::default());
        for (pid, cpu) in [(101u32, 3u32), (102, 0), (103, 2), (104, 1)] {
            mon.watch_process(ProcessInfo {
                pid,
                rank: None,
                hostname: "n".into(),
                gpus: vec![],
                cpus_allowed: CpuSet::single(cpu),
            });
        }
        let (mut assign, mut order) = (Vec::new(), Vec::new());
        build_assignment(&mon, &mut assign, &mut order, 2);
        // CPU order: 102(0), 104(1), 103(2), 101(3) -> halves.
        assert_eq!(assign, vec![1, 0, 1, 0]);
        // Deterministic: a rebuild yields the same partition.
        let snapshot = assign.clone();
        build_assignment(&mon, &mut assign, &mut order, 2);
        assert_eq!(assign, snapshot);
    }

    #[test]
    fn shard_panic_is_isolated_to_its_own_watches() {
        use zerosum_proc::fault::{FaultKind, FaultPlan, ScriptedFault};
        let rounds = 3u64;
        // Long-lived processes only: every missing sample below must be
        // attributable to the panic, not a process exit.
        let (sim, pids) = build_sim_with(9_000_000);
        let sim = Arc::new(TrackedRw::new("core.shard.source", sim));
        let mon = monitor_for(&pids);
        let mut sharded = ShardedMonitor::new(mon, 3, ShardMode::Inline);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let sim_for_sources = Arc::clone(&sim);
        sharded.run_rounds(
            move |idx| {
                // Shard 1's very first read panics; shards 0 and 2 (and
                // the driver, idx == 3) stay clean.
                let scripted = if idx == 1 {
                    vec![ScriptedFault {
                        call: 1,
                        kind: FaultKind::Panic,
                    }]
                } else {
                    vec![]
                };
                FaultyShardSource::new(
                    SimShardSource::new(Arc::clone(&sim_for_sources)),
                    FaultInjector::new(FaultPlan {
                        seed: 7,
                        scripted,
                        ..Default::default()
                    }),
                )
            },
            rounds,
            |r| {
                let mut g = sim.write().unwrap_or_else(PoisonError::into_inner);
                g.run_for(400_000);
                (r + 1) as f64
            },
        );
        std::panic::set_hook(prev);
        let mon = sharded.into_monitor();
        // Exactly one batch panicked, exactly one gap recorded.
        assert_eq!(mon.supervisor.restarts, 1);
        assert_eq!(mon.supervisor.gap_times_s.as_slice(), [1.0]);
        assert_eq!(mon.stats.rounds, rounds);
        // The panicked shard's watch lost one round; the others did not.
        let lens: Vec<usize> = mon
            .processes()
            .iter()
            .map(|w| w.lwps.track(w.info.pid).map_or(0, |t| t.samples.len()))
            .collect();
        assert_eq!(lens.iter().filter(|&&l| l == rounds as usize).count(), 2);
        assert_eq!(
            lens.iter().filter(|&&l| l == rounds as usize - 1).count(),
            1,
            "one watch sampled one round less: {lens:?}"
        );
    }
}
