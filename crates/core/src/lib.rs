//! # zerosum-core
//!
//! The ZeroSum monitor — the paper's primary contribution, as a library.
//!
//! ZeroSum (Huck & Malony, HUST-23) provides user-space monitoring of
//! application processes, threads, and hardware resources on
//! heterogeneous HPC systems: configuration detection through `/proc`,
//! periodic sampling by an asynchronous thread, utilization and
//! contention reports, and CSV export for time-series analysis — all at
//! under 0.5% overhead. This crate implements the tool:
//!
//! * [`config`] — sampling period, monitor-thread placement, cost model.
//! * [`monitor`] — the periodic sampler over any
//!   [`zerosum_proc::ProcSource`] (live Linux or the node simulation).
//! * [`lwp`], [`hwt`], [`memory`] — per-thread, per-CPU, and memory
//!   tracking (§3.1, §3.4, §3.5).
//! * [`report`] — the Listing 2 utilization report.
//! * [`contention`] — the §3.5 contention report.
//! * [`evaluator`] — configuration evaluation rules (the §3.2 extension).
//! * [`heartbeat`] — progress detection and deadlock heuristics (§3.3).
//! * [`export`] — CSV/log exportation (§3.6).
//! * [`signal`] — abnormal-exit reporting (§3.1).
//! * [`gpu_link`], [`runner`] — the virtual-time driver coupling the
//!   monitor to `zerosum-sched`'s node simulation.
//! * [`attach`] — live self-monitoring of a real process on Linux.
//! * [`shard`] — the sampling round (plan → read → fold) behind
//!   [`Monitor::sample`] (one shard, inline) and [`ShardedMonitor`]
//!   (per-HWT-group shards, inline or over SPSC swap rings), folding to
//!   bit-identical state whatever the shard count.

#![warn(missing_docs)]

pub mod attach;
pub mod cluster;
pub mod config;
pub mod contention;
pub mod evaluator;
pub mod export;
pub mod feed;
pub mod gpu_link;
pub mod health;
pub mod heartbeat;
pub mod hwt;
pub mod lwp;
pub mod memory;
pub mod monitor;
pub mod report;
pub mod role;
pub mod runner;
pub mod shard;
pub mod signal;
pub mod sync;

pub use attach::SelfMonitor;
pub use cluster::{ClusterMonitor, NodeAggregate, NodeState, NodeSupervision, SupervisionConfig};
pub use config::{MonitorCost, MonitorPlacement, OverheadConfig, ResilienceConfig, ZeroSumConfig};
pub use contention::{analyze, ContentionReport};
pub use evaluator::{evaluate, evaluate_gpu_memory, render_findings, Finding, Severity};
pub use feed::{LwpSnapshot, ProcessSnapshot, SampleFeed, SampleSnapshot};
pub use gpu_link::{GpuStack, SimGpuLink};
pub use health::{FailureAction, HealthLedger, ProcessHealth, TaskFailState};
pub use heartbeat::{Liveness, ProgressTracker};
pub use lwp::{DepartedSummary, LwpKind, LwpRegistry, LwpTrack};
pub use monitor::{
    GovernorState, Monitor, PeriodChange, ProcessInfo, ProcessWatch, SupervisorStats,
};
pub use report::{render_process_report, render_summary, GpuReportContext};
pub use runner::{
    attach_monitor_threads, run_baseline, run_monitored, run_monitored_faulty, RunOutcome,
};
pub use shard::{
    FaultyShardSource, LinuxShardSource, ShardMode, ShardSource, ShardedMonitor, SimShardSource,
    VanishShardSource,
};
pub use sync::{
    clear_observed_lock_edges, observed_lock_edges, Tracked, TrackedGuard, TrackedReadGuard,
    TrackedRw, TrackedWriteGuard,
};
