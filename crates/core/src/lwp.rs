//! Per-LWP (thread) tracking.
//!
//! §3.1.1 of the paper: the asynchronous thread discovers LWPs from
//! `/proc/<pid>/task`, re-reads each one's affinity every period (it may
//! change after creation), and records state, user/system time, context
//! switches, page faults, and the CPU each LWP last ran on. This module
//! keeps that per-thread history and classifies threads as Main /
//! ZeroSum / OpenMP / Other like the paper's LWP tables.

use std::collections::HashSet;
use zerosum_proc::{IntHash, TaskStat, TaskState, TaskStatus, Tid};
use zerosum_stats::Ring;
use zerosum_topology::CpuSet;

/// Thread classification in the LWP report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LwpKind {
    /// The process main thread.
    Main,
    /// ZeroSum's own asynchronous monitor thread.
    ZeroSum,
    /// An OpenMP team thread (identified via OMPT or naming).
    OpenMp,
    /// Anything else (MPI helpers, GPU runtime threads, …).
    Other,
}

impl LwpKind {
    /// The label used in the report; the main thread may additionally be
    /// an OpenMP thread (`Main, OpenMP` — the † case in the paper's
    /// tables).
    pub fn label(self, also_openmp: bool) -> String {
        match (self, also_openmp) {
            (LwpKind::Main, true) => "Main, OpenMP".to_string(),
            (LwpKind::Main, false) => "Main".to_string(),
            (LwpKind::ZeroSum, _) => "ZeroSum".to_string(),
            (LwpKind::OpenMp, _) => "OpenMP".to_string(),
            (LwpKind::Other, _) => "Other".to_string(),
        }
    }
}

/// One periodic observation of one LWP.
#[derive(Debug, Clone, PartialEq)]
pub struct LwpSample {
    /// Virtual/wall time of the sample, seconds from monitoring start.
    pub t_s: f64,
    /// Scheduler state.
    pub state: TaskState,
    /// Cumulative user jiffies.
    pub utime: u64,
    /// Cumulative system jiffies.
    pub stime: u64,
    /// Cumulative minor faults.
    pub minflt: u64,
    /// Cumulative major faults.
    pub majflt: u64,
    /// Cumulative pages swapped.
    pub nswap: u64,
    /// CPU the LWP last executed on.
    pub processor: u32,
    /// Cumulative voluntary context switches.
    pub vcsw: u64,
    /// Cumulative non-voluntary context switches.
    pub nvcsw: u64,
    /// Cumulative runqueue wait from `schedstat`, nanoseconds (`None`
    /// when the kernel does not expose it).
    pub wait_ns: Option<u64>,
}

/// The tracked history of one LWP.
#[derive(Debug, Clone)]
pub struct LwpTrack {
    /// Thread id.
    pub tid: Tid,
    /// Thread name from `status`.
    pub name: String,
    /// Classification.
    pub kind: LwpKind,
    /// True if the thread is (also) an OpenMP team member.
    pub is_openmp: bool,
    /// Most recent affinity mask.
    pub affinity: CpuSet,
    /// True if the affinity mask ever changed between samples.
    pub affinity_changed: bool,
    /// Distinct CPUs observed in the `processor` field.
    pub cpus_seen: HashSet<u32, IntHash>,
    /// Sample history, in time order — a bounded ring that downsamples
    /// 2:1 when full, so a multi-hour run holds constant memory.
    pub samples: Ring<LwpSample>,
    /// True if the thread disappeared from the task list.
    pub exited: bool,
    /// `starttime` (field 22 of `stat`) captured at the first
    /// observation. A later sample for the same tid with a different
    /// `starttime` is a *recycled* id: the kernel reaped this task and
    /// gave its id to a new one.
    pub starttime: u64,
    /// True once this track was closed because its tid was recycled; a
    /// fresh track owns the tid from then on.
    pub retired: bool,
    /// The monitor's nominal sampling period, seconds. Per-period
    /// averages normalize counter deltas by *elapsed time* in units of
    /// this period, so rounds shed by the deadline watchdog or stretched
    /// by the overhead governor do not inflate the reported rates.
    pub period_s: f64,
}

impl LwpTrack {
    #[allow(clippy::too_many_arguments)]
    fn new(
        tid: Tid,
        name: String,
        kind: LwpKind,
        is_openmp: bool,
        affinity: CpuSet,
        starttime: u64,
        capacity: usize,
        period_s: f64,
    ) -> Self {
        LwpTrack {
            tid,
            name,
            kind,
            is_openmp,
            affinity,
            affinity_changed: false,
            cpus_seen: HashSet::default(),
            samples: Ring::with_capacity(capacity),
            exited: false,
            starttime,
            retired: false,
            period_s,
        }
    }

    /// Latest sample, if any.
    pub fn last(&self) -> Option<&LwpSample> {
        self.samples.last()
    }

    /// First sample, if any.
    pub fn first(&self) -> Option<&LwpSample> {
        self.samples.first()
    }

    /// Average jiffies of user time per sample period — the `utime`
    /// column of the paper's tables.
    pub fn avg_utime_per_period(&self) -> f64 {
        self.delta_per_period(|s| s.utime)
    }

    /// Average jiffies of system time per sample period — the `stime`
    /// column.
    pub fn avg_stime_per_period(&self) -> f64 {
        self.delta_per_period(|s| s.stime)
    }

    /// Counter delta over the series, per nominal sampling period.
    /// Normalized by elapsed *time*, not sample count: rounds dropped by
    /// the deadline watchdog, periods widened by the overhead governor,
    /// and samples merged by ring downsampling leave the rate honest.
    fn delta_per_period(&self, f: impl Fn(&LwpSample) -> u64) -> f64 {
        match self.samples.as_slice() {
            [] => 0.0,
            [only] => f(only) as f64,
            [first, .., last] => {
                let delta = f(last).saturating_sub(f(first)) as f64;
                let span_s = last.t_s - first.t_s;
                if span_s > 0.0 && self.period_s > 0.0 {
                    delta * self.period_s / span_s
                } else {
                    delta / (self.samples.len() - 1) as f64
                }
            }
        }
    }

    /// Fraction of wall time this LWP spent on CPU between the first and
    /// last samples (0.0–1.0+, period-independent).
    pub fn cpu_fraction(&self) -> f64 {
        let (Some(first), Some(last)) = (self.first(), self.last()) else {
            return 0.0;
        };
        let dt = last.t_s - first.t_s;
        if dt <= 0.0 {
            return 0.0;
        }
        let jiffies = (last.utime + last.stime).saturating_sub(first.utime + first.stime);
        jiffies as f64 / (dt * zerosum_proc::USER_HZ as f64)
    }

    /// Total non-voluntary context switches observed (the `nvctx`
    /// column).
    pub fn total_nvcsw(&self) -> u64 {
        self.last().map(|s| s.nvcsw).unwrap_or(0)
    }

    /// Total voluntary context switches (the `ctx` column).
    pub fn total_vcsw(&self) -> u64 {
        self.last().map(|s| s.vcsw).unwrap_or(0)
    }

    /// Number of migrations observed through the `processor` field
    /// (changes between consecutive samples). Samples taken before the
    /// thread ever consumed CPU are ignored — a thread that has not run
    /// cannot have migrated.
    pub fn observed_migrations(&self) -> usize {
        self.samples
            .windows(2)
            .filter(|w| {
                let ran_before = w[0].utime + w[0].stime > 0;
                ran_before && w[0].processor != w[1].processor
            })
            .count()
    }

    /// Total runqueue-wait observed through `schedstat`, seconds; `None`
    /// when the kernel never exposed it.
    pub fn total_wait_s(&self) -> Option<f64> {
        self.last()
            .and_then(|s| s.wait_ns)
            .map(|ns| ns as f64 / 1e9)
    }

    /// Fraction of samples observed in each scheduler state, as
    /// `(state, fraction)` pairs sorted descending — e.g. a GPU-offload
    /// thread shows a large `S` share while it waits on kernels.
    pub fn state_fractions(&self) -> Vec<(TaskState, f64)> {
        if self.samples.is_empty() {
            return Vec::new();
        }
        let mut counts: Vec<(TaskState, usize)> = Vec::new();
        for s in &self.samples {
            match counts.iter_mut().find(|(st, _)| *st == s.state) {
                Some((_, c)) => *c += 1,
                None => counts.push((s.state, 1)),
            }
        }
        let n = self.samples.len() as f64;
        let mut out: Vec<(TaskState, f64)> = counts
            .into_iter()
            .map(|(st, c)| (st, c as f64 / n))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// Whether the LWP made progress (consumed CPU) in the last `n`
    /// sample windows. Used by the §3.3 progress/deadlock heuristics.
    pub fn progressed_recently(&self, n: usize) -> bool {
        if self.samples.len() < 2 {
            return true; // not enough data to claim a stall
        }
        let take = n.min(self.samples.len() - 1);
        let Some(newest) = self.samples.last() else {
            return true;
        };
        let old = &self.samples[self.samples.len() - 1 - take];
        newest.utime + newest.stime > old.utime + old.stime
    }
}

/// Counters for dead tracks folded away by [`LwpRegistry::compact_exited`]:
/// the audit trail that eviction never silently loses accounting. The
/// sum `registry.len() + departed.tracks` is the cumulative number of
/// task incarnations ever observed, however long the churn ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DepartedSummary {
    /// Dead tracks evicted from the registry.
    pub tracks: u64,
    /// Samples those tracks held when evicted.
    pub samples: u64,
}

/// The LWP registry of one monitored process.
#[derive(Debug)]
pub struct LwpRegistry {
    tracks: Vec<LwpTrack>,
    omp_tids: HashSet<Tid, IntHash>,
    /// Ring capacity for new tracks' sample series.
    capacity: usize,
    /// Nominal sampling period handed to new tracks, seconds.
    period_s: f64,
    /// Summary of dead tracks evicted under churn.
    departed: DepartedSummary,
}

impl Default for LwpRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl LwpRegistry {
    /// An empty registry with the default series capacity.
    pub fn new() -> Self {
        Self::with_capacity(zerosum_stats::DEFAULT_SERIES_CAPACITY)
    }

    /// An empty registry whose tracks hold at most `capacity` samples
    /// (downsampling 2:1 beyond that), assuming a 1 s sampling period.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_period(capacity, 1.0)
    }

    /// Like [`LwpRegistry::with_capacity`], with an explicit nominal
    /// sampling period for per-period rate normalization.
    pub fn with_capacity_and_period(capacity: usize, period_s: f64) -> Self {
        LwpRegistry {
            tracks: Vec::new(),
            omp_tids: HashSet::default(),
            capacity,
            period_s,
            departed: DepartedSummary::default(),
        }
    }

    /// Marks `tid` as an OpenMP thread (the OMPT callback path,
    /// §3.1.2).
    pub fn register_omp_thread(&mut self, tid: Tid) {
        self.omp_tids.insert(tid);
        if let Some(t) = self.tracks.iter_mut().find(|t| t.tid == tid && !t.retired) {
            t.is_openmp = true;
            if t.kind == LwpKind::Other {
                t.kind = LwpKind::OpenMp;
            }
        }
    }

    /// Classifies a thread at discovery time, and again when an
    /// unclassified thread renames itself.
    fn classify(
        omp_tids: &HashSet<Tid, IntHash>,
        tid: Tid,
        pid: Tid,
        name: &str,
    ) -> (LwpKind, bool) {
        let is_omp = omp_tids.contains(&tid) || name == "OpenMP";
        if tid == pid {
            (LwpKind::Main, is_omp)
        } else if name.starts_with("ZeroSum") {
            (LwpKind::ZeroSum, false)
        } else if is_omp {
            (LwpKind::OpenMp, true)
        } else {
            (LwpKind::Other, false)
        }
    }

    /// Folds one periodic observation of `tid` into the registry.
    pub fn observe(&mut self, pid: Tid, t_s: f64, stat: &TaskStat, status: &TaskStatus) {
        self.observe_with_schedstat(pid, t_s, stat, status, None)
    }

    /// Like [`LwpRegistry::observe`], additionally recording the kernel's
    /// `schedstat` runqueue-wait counter when available.
    pub fn observe_with_schedstat(
        &mut self,
        pid: Tid,
        t_s: f64,
        stat: &TaskStat,
        status: &TaskStatus,
        schedstat: Option<zerosum_proc::SchedStat>,
    ) {
        let tid = stat.tid;
        let existing = self.tracks.iter().position(|t| t.tid == tid && !t.retired);
        // PID-reuse guard: a known tid reporting a different `starttime`
        // is a brand-new task wearing a recycled id. Splicing its
        // counters onto the dead task's series would corrupt both
        // histories, so the old track is closed and a fresh one opened.
        let existing = match existing.and_then(|i| self.tracks.get_mut(i).map(|t| (i, t))) {
            Some((_, old)) if old.starttime != stat.starttime => {
                old.retired = true;
                old.exited = true;
                None
            }
            Some((i, _)) => Some(i),
            None => None,
        };
        let idx = match existing {
            Some(i) => i,
            None => {
                let (kind, is_omp) = Self::classify(&self.omp_tids, tid, pid, &status.name);
                self.tracks.push(LwpTrack::new(
                    tid,
                    status.name.clone(),
                    kind,
                    is_omp,
                    status.cpus_allowed.clone(),
                    stat.starttime,
                    self.capacity,
                    self.period_s,
                ));
                self.tracks.len() - 1
            }
        };
        // `idx` is valid by construction (found or just pushed); stay
        // panic-free in the sampling loop regardless.
        let Some(track) = self.tracks.get_mut(idx) else {
            return;
        };
        // Threads often name themselves after they start (Rust std
        // threads and OpenMP runtimes both do): follow the rename, and
        // give a still-unclassified thread a second look under its new
        // name.
        if track.name != status.name {
            track.name.clone_from(&status.name);
            if track.kind == LwpKind::Other {
                (track.kind, track.is_openmp) =
                    Self::classify(&self.omp_tids, tid, pid, &status.name);
            }
        }
        if track.affinity != status.cpus_allowed {
            track.affinity_changed = true;
            track.affinity = status.cpus_allowed.clone();
        }
        track.cpus_seen.insert(stat.processor);
        track.samples.push(LwpSample {
            t_s,
            state: stat.state,
            utime: stat.utime,
            stime: stat.stime,
            minflt: stat.minflt,
            majflt: stat.majflt,
            nswap: stat.nswap,
            processor: stat.processor,
            vcsw: status.voluntary_ctxt_switches,
            nvcsw: status.nonvoluntary_ctxt_switches,
            wait_ns: schedstat.map(|ss| ss.wait_ns),
        });
    }

    /// Marks threads absent from `live` as exited.
    pub fn mark_exited(&mut self, live: &[Tid]) {
        for t in &mut self.tracks {
            if !live.contains(&t.tid) {
                t.exited = true;
            }
        }
    }

    /// Bounds the registry under open-system churn: while more than
    /// `max_exited` *dead* tracks are held (retired by tid recycling, or
    /// exited and no longer listed in `live`), the oldest dead tracks
    /// are evicted and folded into the [`DepartedSummary`]. Live tracks
    /// are never touched, so the registry's footprint stays proportional
    /// to concurrent tasks plus a bounded tail of recent departures —
    /// not to the unbounded cumulative arrival count. `live` must be
    /// sorted ascending (the task listing already is). Allocation-free:
    /// called from the sampling hot path.
    pub fn compact_exited(&mut self, live: &[Tid], max_exited: usize) {
        let dead = |t: &LwpTrack| t.retired || (t.exited && live.binary_search(&t.tid).is_err());
        let dead_count = self.tracks.iter().filter(|t| dead(t)).count();
        if dead_count <= max_exited {
            return;
        }
        let mut to_evict = dead_count - max_exited;
        let departed = &mut self.departed;
        self.tracks.retain(|t| {
            if to_evict > 0 && dead(t) {
                to_evict -= 1;
                departed.tracks += 1;
                departed.samples += t.samples.len() as u64;
                false
            } else {
                true
            }
        });
    }

    /// Accounting for tracks evicted by [`LwpRegistry::compact_exited`].
    pub fn departed(&self) -> DepartedSummary {
        self.departed
    }

    /// All tracks in tid order.
    pub fn tracks(&self) -> impl Iterator<Item = &LwpTrack> {
        self.tracks.iter()
    }

    /// Look up a track. A recycled tid resolves to the *live* track; the
    /// retired one remains reachable through [`LwpRegistry::tracks`].
    pub fn track(&self, tid: Tid) -> Option<&LwpTrack> {
        self.tracks
            .iter()
            .find(|t| t.tid == tid && !t.retired)
            .or_else(|| self.tracks.iter().find(|t| t.tid == tid))
    }

    /// Number of tracks currently held. (With compaction disabled this
    /// is every LWP incarnation ever seen; under churn, add
    /// [`LwpRegistry::departed`]`.tracks` for the cumulative count.)
    pub fn len(&self) -> usize {
        self.tracks.len()
    }

    /// True if nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.tracks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(tid: Tid, utime: u64, stime: u64, cpu: u32) -> TaskStat {
        TaskStat {
            tid,
            comm: "x".into(),
            state: TaskState::Running,
            minflt: 0,
            majflt: 0,
            utime,
            stime,
            nice: 0,
            num_threads: 2,
            processor: cpu,
            nswap: 0,
            starttime: 0,
        }
    }

    fn status(tid: Tid, pid: Tid, name: &str, cpus: &str, v: u64, nv: u64) -> TaskStatus {
        TaskStatus {
            name: name.into(),
            tid,
            tgid: pid,
            state: TaskState::Running,
            vm_rss_kib: 0,
            vm_size_kib: 0,
            vm_hwm_kib: 0,
            cpus_allowed: CpuSet::parse_list(cpus).unwrap(),
            voluntary_ctxt_switches: v,
            nonvoluntary_ctxt_switches: nv,
        }
    }

    #[test]
    fn classification() {
        let mut reg = LwpRegistry::new();
        reg.register_omp_thread(103);
        reg.observe(
            100,
            0.0,
            &stat(100, 0, 0, 1),
            &status(100, 100, "app", "1-7", 0, 0),
        );
        reg.observe(
            100,
            0.0,
            &stat(101, 0, 0, 7),
            &status(101, 100, "ZeroSum", "7", 0, 0),
        );
        reg.observe(
            100,
            0.0,
            &stat(102, 0, 0, 2),
            &status(102, 100, "OpenMP", "1-7", 0, 0),
        );
        reg.observe(
            100,
            0.0,
            &stat(103, 0, 0, 3),
            &status(103, 100, "worker", "1-7", 0, 0),
        );
        reg.observe(
            100,
            0.0,
            &stat(104, 0, 0, 4),
            &status(104, 100, "hip-thread", "1-7", 0, 0),
        );
        let kinds: Vec<LwpKind> = reg.tracks().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                LwpKind::Main,
                LwpKind::ZeroSum,
                LwpKind::OpenMp,
                LwpKind::OpenMp, // via OMPT registration
                LwpKind::Other
            ]
        );
    }

    #[test]
    fn main_also_openmp_label() {
        let mut reg = LwpRegistry::new();
        reg.register_omp_thread(100);
        reg.observe(
            100,
            0.0,
            &stat(100, 0, 0, 1),
            &status(100, 100, "app", "1", 0, 0),
        );
        let t = reg.track(100).unwrap();
        assert_eq!(t.kind, LwpKind::Main);
        assert!(t.is_openmp);
        assert_eq!(t.kind.label(t.is_openmp), "Main, OpenMP");
    }

    #[test]
    fn per_period_averages() {
        let mut reg = LwpRegistry::new();
        // Cumulative utime 0,90,180,270 with stime 0,3,6,9: avg 90 / 3.
        for (i, (u, s)) in [(0, 0), (90, 3), (180, 6), (270, 9)].iter().enumerate() {
            reg.observe(
                100,
                i as f64,
                &stat(100, *u, *s, 1),
                &status(100, 100, "app", "1", 10, 20),
            );
        }
        let t = reg.track(100).unwrap();
        assert!((t.avg_utime_per_period() - 90.0).abs() < 1e-12);
        assert!((t.avg_stime_per_period() - 3.0).abs() < 1e-12);
        assert_eq!(t.total_vcsw(), 10);
        assert_eq!(t.total_nvcsw(), 20);
    }

    #[test]
    fn migration_and_affinity_tracking() {
        let mut reg = LwpRegistry::new();
        reg.observe(1, 0.0, &stat(2, 0, 0, 3), &status(2, 1, "w", "1-7", 0, 0));
        reg.observe(1, 1.0, &stat(2, 10, 0, 3), &status(2, 1, "w", "1-7", 0, 0));
        reg.observe(1, 2.0, &stat(2, 20, 0, 5), &status(2, 1, "w", "1-7", 0, 0));
        reg.observe(1, 3.0, &stat(2, 30, 0, 5), &status(2, 1, "w", "2-6", 0, 0));
        let t = reg.track(2).unwrap();
        assert_eq!(t.observed_migrations(), 1);
        assert!(t.affinity_changed);
        assert_eq!(t.cpus_seen.len(), 2);
    }

    #[test]
    fn progress_detection() {
        let mut reg = LwpRegistry::new();
        for i in 0..6 {
            let u = if i < 3 { i * 10 } else { 30 }; // stalls after t=3
            reg.observe(
                1,
                i as f64,
                &stat(2, u, 0, 1),
                &status(2, 1, "w", "1", 0, 0),
            );
        }
        let t = reg.track(2).unwrap();
        assert!(!t.progressed_recently(2));
        assert!(t.progressed_recently(5));
    }

    #[test]
    fn state_fractions_sum_to_one() {
        let mut reg = LwpRegistry::new();
        for (i, st) in ['R', 'R', 'S', 'R'].iter().enumerate() {
            let mut stat_rec = stat(2, i as u64, 0, 1);
            stat_rec.state = TaskState::from_code(*st).unwrap();
            reg.observe(1, i as f64, &stat_rec, &status(2, 1, "w", "1", 0, 0));
        }
        let fr = reg.track(2).unwrap().state_fractions();
        assert_eq!(fr[0].0, TaskState::Running);
        assert!((fr[0].1 - 0.75).abs() < 1e-12);
        assert!((fr.iter().map(|(_, f)| f).sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exited_marking() {
        let mut reg = LwpRegistry::new();
        reg.observe(1, 0.0, &stat(2, 0, 0, 1), &status(2, 1, "w", "1", 0, 0));
        reg.observe(1, 0.0, &stat(3, 0, 0, 1), &status(3, 1, "w", "1", 0, 0));
        reg.mark_exited(&[3]);
        assert!(reg.track(2).unwrap().exited);
        assert!(!reg.track(3).unwrap().exited);
    }

    #[test]
    fn recycled_tid_closes_old_series_and_opens_new() {
        let mut reg = LwpRegistry::new();
        // Old task: starttime 0, accumulates counters.
        reg.observe(1, 0.0, &stat(2, 10, 0, 1), &status(2, 1, "old", "1", 5, 7));
        reg.observe(1, 1.0, &stat(2, 20, 0, 1), &status(2, 1, "old", "1", 6, 8));
        // Recycled: same tid, later starttime, counters restart at zero.
        let mut recycled = stat(2, 1, 0, 3);
        recycled.starttime = 250;
        reg.observe(1, 2.0, &recycled, &status(2, 1, "new", "3", 0, 1));
        // Two tracks now exist for tid 2; the old one is closed.
        let tracks: Vec<&LwpTrack> = reg.tracks().filter(|t| t.tid == 2).collect();
        assert_eq!(tracks.len(), 2);
        let old = tracks.iter().find(|t| t.retired).unwrap();
        assert!(old.exited, "retired track is closed");
        assert_eq!(old.samples.len(), 2);
        assert_eq!(old.last().unwrap().utime, 20, "old series unspliced");
        // Lookup resolves to the live track with the fresh series.
        let live = reg.track(2).unwrap();
        assert!(!live.retired);
        assert_eq!(live.starttime, 250);
        assert_eq!(live.samples.len(), 1);
        assert_eq!(live.last().unwrap().utime, 1, "new series starts clean");
        assert_eq!(live.name, "new");
        // Further samples extend only the live track.
        let mut s = stat(2, 2, 0, 3);
        s.starttime = 250;
        reg.observe(1, 3.0, &s, &status(2, 1, "new", "3", 0, 1));
        assert_eq!(reg.track(2).unwrap().samples.len(), 2);
        let old_len = reg
            .tracks()
            .find(|t| t.tid == 2 && t.retired)
            .unwrap()
            .samples
            .len();
        assert_eq!(old_len, 2, "retired series no longer grows");
    }

    #[test]
    fn sample_series_is_bounded_by_ring_capacity() {
        let mut reg = LwpRegistry::with_capacity(8);
        for i in 0..1_000u64 {
            reg.observe(
                1,
                i as f64,
                &stat(2, i, 0, 1),
                &status(2, 1, "w", "1", 0, 0),
            );
        }
        let t = reg.track(2).unwrap();
        assert!(t.samples.len() <= 8);
        assert_eq!(t.first().unwrap().t_s, 0.0, "first sample survives");
        assert_eq!(t.last().unwrap().t_s, 999.0, "latest sample present");
        assert_eq!(t.total_vcsw(), 0);
    }

    #[test]
    fn transient_thread_note() {
        // A thread that appears and disappears between polls is simply
        // never observed — the trade-off §3.1.1 accepts. The registry
        // must not invent it.
        let reg = LwpRegistry::new();
        assert!(reg.is_empty());
        assert!(reg.track(42).is_none());
    }

    #[test]
    fn compact_exited_bounds_dead_tracks_and_keeps_accounting() {
        let mut reg = LwpRegistry::new();
        // Open-system churn: 50 short-lived workers arrive and depart,
        // main thread (tid 1) always live.
        reg.observe(1, 0.0, &stat(1, 0, 0, 0), &status(1, 1, "main", "0", 0, 0));
        for i in 0..50u32 {
            let tid = 100 + i;
            let mut s = stat(tid, 1, 0, 1);
            s.starttime = 10 + i as u64; // distinct incarnations
            reg.observe(1, i as f64, &s, &status(tid, 1, "w", "1", 0, 0));
            reg.mark_exited(&[1]); // worker departs immediately
            reg.compact_exited(&[1], 4);
        }
        // Footprint: the live main track plus at most 4 dead tracks.
        assert!(reg.len() <= 1 + 4, "len {} exceeds bound", reg.len());
        let departed = reg.departed();
        // Cumulative incarnations are never lost: held + evicted = 51.
        assert_eq!(reg.len() as u64 + departed.tracks, 51);
        assert_eq!(departed.samples, departed.tracks, "one sample each");
        // The live track is never evicted, however small the cap.
        reg.compact_exited(&[1], 0);
        assert!(reg.track(1).is_some());
        assert!(!reg.track(1).unwrap().exited);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn compact_exited_evicts_oldest_dead_first_and_spares_listed() {
        let mut reg = LwpRegistry::new();
        for tid in [2u32, 3, 4] {
            reg.observe(1, 0.0, &stat(tid, 0, 0, 1), &status(tid, 1, "w", "1", 0, 0));
        }
        // Tids 2 and 3 depart; 4 stays listed.
        reg.mark_exited(&[4]);
        reg.compact_exited(&[4], 1);
        // Oldest dead (tid 2) evicted, newest dead (tid 3) retained.
        assert!(reg.track(2).is_none());
        assert!(reg.track(3).is_some());
        assert!(reg.track(4).is_some());
        assert_eq!(reg.departed().tracks, 1);
        // A retired track is dead even while its tid is still listed
        // (the fresh incarnation owns it).
        let mut recycled = stat(4, 0, 0, 1);
        recycled.starttime = 99;
        reg.observe(1, 1.0, &recycled, &status(4, 1, "w", "1", 0, 0));
        reg.compact_exited(&[4], 0);
        let fours: Vec<&LwpTrack> = reg.tracks().filter(|t| t.tid == 4).collect();
        assert_eq!(fours.len(), 1, "retired incarnation evicted");
        assert!(!fours[0].retired);
        assert_eq!(fours[0].starttime, 99);
    }

    #[test]
    fn renamed_worker_is_reclassified_and_keeps_its_series() {
        let mut reg = LwpRegistry::new();
        // First seen under the spawning process's comm, before the
        // thread names itself.
        reg.observe(
            1,
            0.0,
            &stat(2, 0, 0, 1),
            &status(2, 1, "live_self_monit", "1", 0, 0),
        );
        assert_eq!(reg.track(2).unwrap().kind, LwpKind::Other);
        reg.observe(
            1,
            1.0,
            &stat(2, 5, 0, 1),
            &status(2, 1, "OpenMP", "1", 0, 0),
        );
        let t = reg.track(2).unwrap();
        assert_eq!(t.kind, LwpKind::OpenMp);
        assert!(t.is_openmp);
        assert_eq!(t.name, "OpenMP");
        assert_eq!(t.samples.len(), 2, "a rename is not a new task");
        // A classified thread keeps its kind across renames.
        reg.observe(
            1,
            2.0,
            &stat(2, 9, 0, 1),
            &status(2, 1, "worker", "1", 0, 0),
        );
        let t = reg.track(2).unwrap();
        assert_eq!((t.kind, t.name.as_str()), (LwpKind::OpenMp, "worker"));
    }

    #[test]
    fn compact_exited_under_cap_is_a_no_op() {
        let mut reg = LwpRegistry::new();
        reg.observe(1, 0.0, &stat(2, 0, 0, 1), &status(2, 1, "w", "1", 0, 0));
        reg.mark_exited(&[]);
        reg.compact_exited(&[], 8);
        assert_eq!(reg.len(), 1, "dead tail under the cap is retained");
        assert_eq!(reg.departed(), DepartedSummary::default());
    }
}
