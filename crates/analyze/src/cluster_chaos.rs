//! Allocation-scale chaos checking: node supervision under seeded
//! node-fault plans.
//!
//! The procfs chaos suite ([`crate::chaos`]) perturbs individual reads
//! on one node. This module judges the layer above: the
//! [`ClusterMonitor`](zerosum_core::ClusterMonitor)'s supervision of a
//! whole allocation while nodes are killed, stalled, rejoined late, and
//! clock-skewed by an [`AllocationFaultPlan`]. Per seeded plan it
//! asserts four properties:
//!
//! 1. **No panics** — the supervision layer survives every plan.
//! 2. **A report every round** — the allocation summary keeps rendering
//!    no matter how many nodes are down.
//! 3. **Honest degradation** — the `DEGRADED (k/n nodes)` marker
//!    appears exactly when the quorum shrank, with the right counts.
//! 4. **Exact survivors** — aggregates restricted to nodes that never
//!    went down match the fault-free run bit for bit (the differential
//!    property the independent per-node seeding guarantees).
//!
//! A separate [`bounded_memory_drill`] proves the monitor's series
//! memory stays constant over arbitrarily long runs: every time series
//! is a fixed-capacity ring that downsamples on wrap, so a million
//! sampling rounds hold the same storage as a few thousand.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use zerosum_core::{Monitor, NodeState, ProcessInfo, ZeroSumConfig};
use zerosum_experiments::cluster_chaos::{
    run_cluster_chaos, run_cluster_chaos_with_plan, ClusterChaosOutcome,
};
use zerosum_proc::{
    ArenaSpan, CpuTimes, MemInfo, Pid, ProcSource, ReadArena, SchedStat, SourceError, SourceResult,
    SystemStat, TaskStat, TaskStatus, Tid,
};
use zerosum_sched::AllocationFaultPlan;
use zerosum_topology::CpuSet;

/// The verdict on one seeded allocation fault plan.
#[derive(Debug)]
pub struct ClusterChaosReport {
    /// Schedule name (`alloc-f00` …).
    pub name: String,
    /// The plan seed this schedule ran with.
    pub seed: u64,
    /// Nodes in the allocation.
    pub nodes: usize,
    /// Monitoring rounds driven.
    pub rounds: u32,
    /// The supervision layer panicked under the plan.
    pub panicked: bool,
    /// Nodes the plan faulted in any way.
    pub faulted_nodes: usize,
    /// Nodes the supervisor had declared dead at run end.
    pub dead_at_end: usize,
    /// Rounds whose quorum was below the full node count.
    pub degraded_rounds: usize,
    /// Everything that failed; empty means the schedule passed.
    pub problems: Vec<String>,
}

impl ClusterChaosReport {
    /// True when every supervision property held.
    pub fn passed(&self) -> bool {
        self.problems.is_empty()
    }

    /// One-line summary plus one line per problem.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let status = if self.passed() { "ok" } else { "FAIL" };
        writeln!(
            out,
            "{:<10} seed={:<6} {} node(s)  {} faulted  {} dead  \
             {:>3}/{} degraded round(s)  [{status}]",
            self.name,
            self.seed,
            self.nodes,
            self.faulted_nodes,
            self.dead_at_end,
            self.degraded_rounds,
            self.rounds,
        )
        .unwrap();
        for p in &self.problems {
            writeln!(out, "  problem: {p}").unwrap();
        }
        out
    }
}

/// Runs one seeded allocation fault plan and judges the supervision
/// layer's behaviour against the four properties above.
pub fn judge_cluster_run(
    name: &str,
    seed: u64,
    node_count: usize,
    rounds: u32,
) -> ClusterChaosReport {
    let mut report = ClusterChaosReport {
        name: name.to_string(),
        seed,
        nodes: node_count,
        rounds,
        panicked: false,
        faulted_nodes: 0,
        dead_at_end: 0,
        degraded_rounds: 0,
        problems: Vec::new(),
    };
    let outcome = match catch_unwind(AssertUnwindSafe(|| {
        run_cluster_chaos(node_count, rounds, seed)
    })) {
        Ok(o) => o,
        Err(_) => {
            report.panicked = true;
            report
                .problems
                .push("supervision layer panicked under the fault plan".to_string());
            return report;
        }
    };
    report.faulted_nodes = outcome.plan.nodes.iter().filter(|p| p.is_faulty()).count();
    // Property 2: the allocation report appeared after every round.
    if outcome.round_summaries.len() != rounds as usize {
        report.problems.push(format!(
            "only {}/{} rounds produced an allocation summary",
            outcome.round_summaries.len(),
            rounds
        ));
    }
    // Property 3: the DEGRADED marker is present with the right counts
    // exactly when the quorum shrank — never on a full quorum.
    for (r, (summary, &(k, n))) in outcome
        .round_summaries
        .iter()
        .zip(&outcome.round_quorums)
        .enumerate()
    {
        if n != node_count {
            report
                .problems
                .push(format!("round {r}: quorum total {n} != {node_count} nodes"));
        }
        if !summary.contains("TOTAL:") {
            report
                .problems
                .push(format!("round {r}: summary missing its TOTAL line"));
        }
        if k < n {
            report.degraded_rounds += 1;
            let marker = format!("DEGRADED ({k}/{n} nodes)");
            if !summary.contains(&marker) {
                report.problems.push(format!(
                    "round {r}: quorum {k}/{n} but summary lacks {marker:?}"
                ));
            }
        } else if summary.contains("DEGRADED") {
            report.problems.push(format!(
                "round {r}: full quorum but summary claims degradation"
            ));
        }
    }
    report.dead_at_end = (0..node_count)
        .filter(|&i| {
            outcome
                .cluster
                .node_state(&ClusterChaosOutcome::hostname(i))
                == NodeState::Dead
        })
        .count();
    // Property 4: the differential check. Nodes that never went down
    // must aggregate identically to the fault-free run of the same seed.
    let clean = run_cluster_chaos_with_plan(
        node_count,
        rounds,
        seed,
        &AllocationFaultPlan::clean(node_count),
    );
    let clean_aggs = clean.cluster.aggregates();
    let faulted_aggs = outcome.cluster.aggregates();
    for i in outcome.plan.survivors(rounds) {
        let host = ClusterChaosOutcome::hostname(i);
        let f = faulted_aggs.iter().find(|a| a.hostname == host);
        let c = clean_aggs.iter().find(|a| a.hostname == host);
        match (f, c) {
            (Some(f), Some(c)) if f == c => {}
            (Some(_), Some(_)) => report
                .problems
                .push(format!("survivor {host} diverged from the fault-free run")),
            _ => report
                .problems
                .push(format!("survivor {host} missing from aggregates")),
        }
    }
    report
}

/// Runs the allocation-scale soak: `schedules` seeded fault plans over
/// `node_count`-node allocations, each judged by [`judge_cluster_run`].
/// Schedules fan out on the experiment engine; reports come back in
/// submission order.
pub fn run_cluster_suite(
    node_count: usize,
    rounds: u32,
    schedules: usize,
    base_seed: u64,
) -> Vec<ClusterChaosReport> {
    zerosum_experiments::parallel::run_jobs(
        (0..schedules)
            .map(|i| {
                move || {
                    let seed = base_seed
                        .wrapping_add(7919u64.wrapping_mul(i as u64))
                        .wrapping_add(1);
                    judge_cluster_run(&format!("alloc-f{i:02}"), seed, node_count, rounds)
                }
            })
            .collect(),
        0,
    )
}

/// A synthetic two-thread node whose counters are pure functions of the
/// round number — the cheapest possible `ProcSource`, so the drill can
/// push a million sampling rounds through the full monitor stack in
/// seconds.
struct SyntheticNode {
    round: u64,
    pid: Pid,
}

impl SyntheticNode {
    fn times(&self, cpu: u64) -> CpuTimes {
        CpuTimes {
            user: self.round * 60 + cpu * 13,
            nice: 0,
            system: self.round * 10,
            idle: self.round * 30,
            iowait: 0,
            irq: 0,
            softirq: 0,
            steal: 0,
        }
    }
}

impl ProcSource for SyntheticNode {
    fn system_stat(&self) -> SourceResult<SystemStat> {
        let mut sys = SystemStat::default();
        for cpu in 0..2u64 {
            let t = self.times(cpu);
            sys.total.user += t.user;
            sys.total.system += t.system;
            sys.total.idle += t.idle;
            sys.cpus.push((cpu as u32, t));
        }
        sys.ctxt = self.round * 1_000;
        sys.processes = 100;
        Ok(sys)
    }

    fn meminfo(&self) -> SourceResult<MemInfo> {
        Ok(MemInfo {
            mem_total_kib: 16_000_000,
            mem_free_kib: 8_000_000,
            mem_available_kib: 12_000_000,
            ..Default::default()
        })
    }

    fn list_tasks(&self, pid: Pid) -> SourceResult<Vec<Tid>> {
        Ok(vec![pid, pid + 1])
    }

    fn task_stat(&self, _pid: Pid, tid: Tid) -> SourceResult<TaskStat> {
        Ok(TaskStat {
            tid,
            comm: "drill".to_string(),
            utime: self.round * 80,
            stime: self.round * 5,
            num_threads: 2,
            processor: tid % 2,
            starttime: 1_234,
            ..Default::default()
        })
    }

    // The text forms write the same records as `/proc` text straight
    // into the arena: one format call per record.
    fn task_stat_text(
        &self,
        _pid: Pid,
        tid: Tid,
        arena: &mut ReadArena,
    ) -> SourceResult<ArenaSpan> {
        let (utime, stime) = (self.round * 80, self.round * 5);
        arena
            .try_append_with(|line| {
                write!(
                    line,
                    "{tid} (drill) S 0 0 0 0 0 0 0 0 0 0 {utime} {stime} 0 0 20 0 2 0 1234 \
                     0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 {} 0 0 0 0 0 0 0 0 0 0 0 0 0",
                    tid % 2
                )
            })
            .map_err(|_| SourceError::Malformed("drill stat render".into()))
    }

    fn task_status(&self, _pid: Pid, tid: Tid) -> SourceResult<TaskStatus> {
        Ok(TaskStatus {
            name: "drill".to_string(),
            tid,
            tgid: self.pid,
            vm_rss_kib: 100_000 + self.round % 1_000,
            vm_size_kib: 200_000,
            vm_hwm_kib: 101_000,
            cpus_allowed: CpuSet::from_indices([0u32, 1]),
            voluntary_ctxt_switches: self.round,
            nonvoluntary_ctxt_switches: self.round / 10,
            ..Default::default()
        })
    }

    fn task_status_text(
        &self,
        _pid: Pid,
        tid: Tid,
        arena: &mut ReadArena,
    ) -> SourceResult<ArenaSpan> {
        let r = self.round;
        arena
            .try_append_with(|text| {
                write!(
                    text,
                    "Name:\tdrill\nState:\tS (sleeping)\nTgid:\t{}\nPid:\t{tid}\n\
                     VmSize:\t200000 kB\nVmHWM:\t101000 kB\nVmRSS:\t{} kB\n\
                     Cpus_allowed_list:\t0-1\nvoluntary_ctxt_switches:\t{r}\n\
                     nonvoluntary_ctxt_switches:\t{}\n",
                    self.pid,
                    100_000 + r % 1_000,
                    r / 10
                )
            })
            .map_err(|_| SourceError::Malformed("drill status render".into()))
    }

    fn task_schedstat(&self, _pid: Pid, _tid: Tid) -> SourceResult<SchedStat> {
        Ok(SchedStat {
            run_ns: self.round * 1_000_000,
            wait_ns: self.round * 10_000,
            timeslices: self.round,
        })
    }
}

/// Drives `rounds` sampling rounds through a monitor whose series
/// capacity is `capacity` and checks the bounded-memory invariant:
/// every time series (per-LWP, per-HWT, memory, process RSS) holds at
/// most `capacity` points, no round was lost from the running totals,
/// the rings actually wrapped when `rounds > capacity`, and the latest
/// point is always the current round. Returns every violated invariant
/// (empty = pass).
pub fn bounded_memory_drill(rounds: u64, capacity: usize) -> Vec<String> {
    let mut problems = Vec::new();
    let pid: Pid = 4_242;
    let mut mon = Monitor::new(ZeroSumConfig::default().with_series_capacity(capacity));
    mon.watch_process(ProcessInfo {
        pid,
        rank: Some(0),
        hostname: "drill".into(),
        gpus: vec![],
        cpus_allowed: CpuSet::from_indices([0u32, 1]),
    });
    for round in 1..=rounds {
        let src = SyntheticNode { round, pid };
        mon.sample(round as f64, &src);
    }
    let last_t = rounds as f64;
    let must_wrap = rounds as usize > capacity;
    if mon.stats.rounds != rounds {
        problems.push(format!(
            "monitor completed {}/{rounds} rounds",
            mon.stats.rounds
        ));
    }
    let Some(w) = mon.process(pid) else {
        problems.push("watched process vanished from the monitor".to_string());
        return problems;
    };
    if w.rss_series.len() > capacity {
        problems.push(format!(
            "rss series holds {} points (capacity {capacity})",
            w.rss_series.len()
        ));
    }
    if w.rss_series.total_pushed() != rounds {
        problems.push(format!(
            "rss series recorded {}/{rounds} rounds",
            w.rss_series.total_pushed()
        ));
    }
    if must_wrap && w.rss_series.wraps() == 0 {
        problems.push("rss series never wrapped despite overflow".to_string());
    }
    if w.rss_series.last().map(|p| p.0) != Some(last_t) {
        problems.push("rss series lost the latest round".to_string());
    }
    for t in w.lwps.tracks() {
        if t.samples.len() > capacity {
            problems.push(format!(
                "LWP {} series holds {} points (capacity {capacity})",
                t.tid,
                t.samples.len()
            ));
        }
        if must_wrap && t.samples.wraps() == 0 {
            problems.push(format!("LWP {} series never wrapped", t.tid));
        }
        // Downsampling must preserve both ends of the series.
        if t.samples.last().map(|s| s.t_s) != Some(last_t) {
            problems.push(format!("LWP {} series lost the latest round", t.tid));
        }
        if t.samples.first().map(|s| s.t_s) != Some(1.0) {
            problems.push(format!("LWP {} series lost its first sample", t.tid));
        }
    }
    for cpu in mon.hwt.cpu_indices() {
        let s = mon.hwt.samples(cpu).unwrap_or(&[]);
        if s.len() > capacity {
            problems.push(format!(
                "CPU {cpu} series holds {} points (capacity {capacity})",
                s.len()
            ));
        }
        if s.last().map(|x| x.t_s) != Some(last_t) {
            problems.push(format!("CPU {cpu} series lost the latest round"));
        }
    }
    if mon.mem.samples().len() > capacity {
        problems.push(format!(
            "memory series holds {} points (capacity {capacity})",
            mon.mem.samples().len()
        ));
    }
    if mon.mem.samples().last().map(|s| s.t_s) != Some(last_t) {
        problems.push("memory series lost the latest round".to_string());
    }
    // The report must still render from downsampled series.
    let report = zerosum_core::render_process_report(&mon, pid, last_t, None);
    if !report.contains("Sampling Health:") {
        problems.push("report no longer renders after ring wrap".to_string());
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ISSUE acceptance soak: 20 seeded node-fault plans, zero
    /// panics, a report with honest DEGRADED markers every round, and
    /// survivor aggregates exactly matching the fault-free run.
    #[test]
    fn cluster_soak_twenty_plans_all_pass() {
        let reports = run_cluster_suite(4, 20, 20, 0xA110);
        assert_eq!(reports.len(), 20);
        let failed: Vec<&ClusterChaosReport> = reports.iter().filter(|r| !r.passed()).collect();
        assert!(
            failed.is_empty(),
            "failed plans:\n{}",
            failed.iter().map(|r| r.render()).collect::<String>()
        );
        // The soak must exercise the machinery: every generated plan is
        // chaotic, and across 20 plans some nodes die and degrade the
        // quorum.
        assert!(reports.iter().all(|r| r.faulted_nodes > 0));
        let degraded: usize = reports.iter().map(|r| r.degraded_rounds).sum();
        assert!(degraded > 0, "no plan ever degraded the quorum");
        assert!(
            reports.iter().any(|r| r.dead_at_end > 0),
            "no plan left a node dead"
        );
    }

    #[test]
    fn synthetic_node_text_forms_match_its_records() {
        let src = SyntheticNode { round: 7, pid: 40 };
        let mut arena = ReadArena::new();
        for tid in [40, 41] {
            let span = src.task_stat_text(40, tid, &mut arena).unwrap();
            let stat = zerosum_proc::parse::parse_task_stat(arena.get(span).unwrap()).unwrap();
            assert_eq!(stat, src.task_stat(40, tid).unwrap());
            let span = src.task_status_text(40, tid, &mut arena).unwrap();
            let status = zerosum_proc::parse::parse_task_status(arena.get(span).unwrap()).unwrap();
            assert_eq!(status, src.task_status(40, tid).unwrap());
        }
    }

    #[test]
    fn bounded_memory_drill_wraps_and_stays_constant() {
        // 20k rounds into capacity-64 rings: >300 wraps per series.
        let problems = bounded_memory_drill(20_000, 64);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn bounded_memory_drill_without_overflow_also_passes() {
        let problems = bounded_memory_drill(50, 4_096);
        assert!(problems.is_empty(), "{problems:?}");
    }
}
