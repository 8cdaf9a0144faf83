//! Live self-monitoring on a real Linux system.
//!
//! The paper's ZeroSum is injected via `LD_PRELOAD` and spawns an
//! asynchronous thread at startup. A Rust application links this crate
//! instead and calls [`SelfMonitor::start`]: a background thread samples
//! the *calling process* through the real `/proc` at the configured
//! period until [`SelfMonitor::stop`] collects the monitor and its data.
//! This is the "always-on monitoring library" usage mode.

use crate::config::ZeroSumConfig;
use crate::monitor::{Monitor, ProcessInfo};
use crate::sync::{Tracked, TrackedGuard};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::sync::PoisonError;
use std::time::{Duration, Instant};
use zerosum_proc::{LinuxProc, ProcSource as _, SourceError};

/// A running self-monitoring session.
pub struct SelfMonitor {
    stop: Arc<AtomicBool>,
    shared: Arc<Tracked<Monitor>>,
    handle: Option<std::thread::JoinHandle<()>>,
    started: Instant,
}

/// Locks a mutex, recovering the data if a panicking holder poisoned it
/// (the monitor must keep working even if the monitored app misbehaves).
fn lock_unpoisoned<T>(m: &Tracked<T>) -> TrackedGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Reads the node hostname from `/proc` (no libc).
pub fn hostname() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "localhost".to_string())
}

impl SelfMonitor {
    /// Starts monitoring the calling process.
    ///
    /// `rank` tags the process for the report (pass the MPI rank when
    /// running under a launcher).
    pub fn start(config: ZeroSumConfig, rank: Option<u32>) -> Result<Self, SourceError> {
        let src = LinuxProc::new();
        let pid = src.self_pid()?;
        Self::start_for_pid(config, pid, rank)
    }

    /// Starts monitoring an arbitrary live process — the `zerosum`
    /// launcher-wrapper mode (§4's `srun -n8 zerosum-mpi miniqmc`): the
    /// wrapper spawns the application as a child and watches it from
    /// outside through `/proc/<pid>`.
    pub fn start_for_pid(
        config: ZeroSumConfig,
        pid: zerosum_proc::Pid,
        rank: Option<u32>,
    ) -> Result<Self, SourceError> {
        let src = LinuxProc::new();
        // Initial configuration detection: capture the process mask now,
        // before any runtime rebinding (the __libc_start_main moment).
        let cpus_allowed = src
            .process_status(pid)
            .map(|s| s.cpus_allowed)
            .unwrap_or_default();
        let mut monitor = Monitor::new(config.clone());
        monitor.watch_process(ProcessInfo {
            pid,
            rank,
            hostname: hostname(),
            gpus: vec![],
            cpus_allowed,
        });
        if config.signal_handler {
            crate::signal::install_panic_hook(rank);
        }
        let shared = Arc::new(Tracked::new("core.attach.monitor", monitor));
        let stop = Arc::new(AtomicBool::new(false));
        let started = Instant::now();
        let handle = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let period = Duration::from_micros(config.period_us);
            std::thread::Builder::new()
                .name("ZeroSum".to_string())
                .spawn(move || {
                    let _role = crate::role::enter("driver");
                    let src = LinuxProc::new();
                    // First sample immediately (initial configuration
                    // detection), then periodically.
                    loop {
                        {
                            let t_s = started.elapsed().as_secs_f64();
                            lock_unpoisoned(&shared).sample(t_s, &src);
                        }
                        // Sleep in short slices so stop() is responsive.
                        let mut remaining = period;
                        while remaining > Duration::ZERO {
                            if stop.load(Ordering::Relaxed) {
                                return;
                            }
                            let nap = remaining.min(Duration::from_millis(20));
                            std::thread::sleep(nap);
                            remaining = remaining.saturating_sub(nap);
                        }
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                    }
                })
                .expect("spawn ZeroSum monitor thread")
        };
        Ok(SelfMonitor {
            stop,
            shared,
            handle: Some(handle),
            started,
        })
    }

    /// Seconds since monitoring started.
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Runs `f` against the monitor's current state (e.g. for live
    /// heartbeats or steering exports, §3.6).
    pub fn with_monitor<R>(&self, f: impl FnOnce(&Monitor) -> R) -> R {
        f(&lock_unpoisoned(&self.shared))
    }

    /// Stops the background thread, takes a final sample, and returns the
    /// monitor plus the run duration in seconds.
    pub fn stop(mut self) -> (Monitor, f64) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        let duration = self.started.elapsed().as_secs_f64();
        let mut monitor = std::mem::replace(
            &mut *lock_unpoisoned(&self.shared),
            Monitor::new(ZeroSumConfig::default()),
        );
        monitor.sample(duration, &LinuxProc::new());
        (monitor, duration)
    }
}

impl Drop for SelfMonitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report;

    #[test]
    fn self_monitoring_observes_this_process() {
        let cfg = ZeroSumConfig {
            period_us: 50_000, // 20 Hz so the test is quick
            signal_handler: false,
            ..Default::default()
        };
        let sm = SelfMonitor::start(cfg, Some(0)).expect("start");
        // Burn some CPU so utilization is visible.
        let mut acc = 0u64;
        let until = Instant::now() + Duration::from_millis(300);
        while Instant::now() < until {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(acc);
        let live_threads =
            sm.with_monitor(|m| m.processes().first().map(|w| w.lwps.len()).unwrap_or(0));
        let (mon, dur) = sm.stop();
        assert!(dur >= 0.3);
        let w = &mon.processes()[0];
        // At least the main thread and the ZeroSum thread were seen.
        assert!(w.lwps.len() >= 2, "saw {} threads", w.lwps.len());
        assert!(live_threads >= 1);
        let zs = w
            .lwps
            .tracks()
            .find(|t| t.kind == crate::lwp::LwpKind::ZeroSum);
        assert!(zs.is_some(), "ZeroSum thread classified by name");
        // Report renders with real data.
        let rep = report::render_process_report(&mon, w.info.pid, dur, None);
        assert!(rep.contains("Process Summary:"));
        assert!(rep.contains("Hardware Summary:"));
        assert!(!w.cpus_allowed.is_empty());
    }

    #[test]
    fn hostname_is_nonempty() {
        assert!(!hostname().is_empty());
    }
}
