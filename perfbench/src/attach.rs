//! The live-attach workloads: the monitor samples this process through
//! the real `/proc` while 64 named worker threads stay parked
//! (`attach_idle`) or are each woken once between rounds
//! (`attach_busy`).
//!
//! Only the driving thread is runnable while a round is timed: a woken
//! worker has to be back asleep, as `/proc` reports it, before the
//! round's clock starts. A second runnable thread would compete with
//! the monitor for the host's CPUs and its cost would land in the
//! round.

use crate::host::Host;
use crate::probe::{timed, ProbeSource};
use crate::sys::{self, Rng, ThreadIo};
use crate::trace::{self, Name, Recorder};
use crate::{Args, Metric, Outcome, Rounds};
use std::cell::RefCell;
use std::fs::File;
use std::os::unix::fs::FileExt as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use zerosum_core::export;
use zerosum_core::{render_process_report, Monitor, ProcessInfo, ZeroSumConfig};
use zerosum_proc::{LinuxProc, Pid, ProcSource, Tid};

/// Worker threads beside the driving thread.
pub const WORKERS: usize = 64;
/// Times `export::write_logs` runs at the end of a run.
const REPORT_REPS: usize = 11;
/// Pause between them, so the repetitions spread over a few seconds
/// instead of landing in one slow phase of the host.
const REPORT_GAP: Duration = Duration::from_millis(400);
/// Spans one traced round can need: the sample plus three reads per
/// task and the fixed reads.
const SPANS_PER_ROUND: usize = 4 * (WORKERS + 1) + 16;

/// One worker's wake handshake: the driver bumps `target` and unparks;
/// the worker copies it to `done` and parks again.
struct Slot {
    target: AtomicU64,
    done: AtomicU64,
}

struct Worker {
    handle: JoinHandle<()>,
    slot: Arc<Slot>,
    tid: Tid,
    /// `/proc/self/task/<tid>/stat`, kept open to poll the run state.
    stat: File,
}

/// The parked worker threads.
struct Workers {
    list: Vec<Worker>,
    stop: Arc<AtomicBool>,
    generation: u64,
}

/// This thread's tid, from the `/proc/thread-self` link.
pub fn own_tid() -> Option<Tid> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// A thread name drawn from the seed: 6 to 15 bytes, as `comm` allows.
fn worker_name(rng: &mut Rng, i: usize) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-";
    let mut name = format!("w{i}-");
    let len = 6 + rng.below(10) as usize;
    while name.len() < len {
        name.push(ALPHABET[rng.below(ALPHABET.len() as u64) as usize] as char);
    }
    name
}

impl Workers {
    fn spawn(seed: u64) -> Result<Workers, String> {
        let stop = Arc::new(AtomicBool::new(false));
        let mut rng = Rng::new(seed, 1);
        let mut list = Vec::with_capacity(WORKERS);
        for i in 0..WORKERS {
            let slot = Arc::new(Slot {
                target: AtomicU64::new(0),
                done: AtomicU64::new(0),
            });
            let (tx, rx) = mpsc::channel();
            let (s, st) = (slot.clone(), stop.clone());
            let handle = std::thread::Builder::new()
                .name(worker_name(&mut rng, i))
                .spawn(move || {
                    let _ = tx.send(own_tid());
                    let mut seen = 0;
                    loop {
                        std::thread::park();
                        if st.load(Ordering::SeqCst) {
                            break;
                        }
                        let g = s.target.load(Ordering::SeqCst);
                        if g != seen {
                            seen = g;
                            s.done.store(g, Ordering::SeqCst);
                        }
                    }
                })
                .map_err(|e| format!("spawn worker: {e}"))?;
            let tid = rx
                .recv()
                .ok()
                .flatten()
                .ok_or("worker could not read its tid")?;
            let stat = File::open(format!("/proc/self/task/{tid}/stat"))
                .map_err(|e| format!("open worker stat: {e}"))?;
            list.push(Worker {
                handle,
                slot,
                tid,
                stat,
            });
        }
        let w = Workers {
            list,
            stop,
            generation: 0,
        };
        w.wait_parked()?;
        Ok(w)
    }

    /// Wakes every worker once and returns when all are asleep again.
    fn wake_all(&mut self) -> Result<(), String> {
        self.generation += 1;
        let g = self.generation;
        for w in &self.list {
            w.slot.target.store(g, Ordering::SeqCst);
            w.handle.thread().unpark();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        for w in &self.list {
            while w.slot.done.load(Ordering::SeqCst) != g {
                if Instant::now() > deadline {
                    return Err(format!("worker {} never woke", w.tid));
                }
                std::thread::yield_now();
            }
        }
        self.wait_parked()
    }

    /// Polls each worker's `/proc` run state until it reads `S`.
    fn wait_parked(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut buf = [0u8; 512];
        for w in &self.list {
            loop {
                let n = w.stat.read_at(&mut buf, 0).map_err(|e| e.to_string())?;
                let text = &buf[..n];
                let state = text
                    .iter()
                    .rposition(|&b| b == b')')
                    .and_then(|i| text.get(i + 2));
                if state == Some(&b'S') {
                    break;
                }
                if Instant::now() > deadline {
                    return Err(format!("worker {} never went back to sleep", w.tid));
                }
                std::thread::yield_now();
            }
        }
        Ok(())
    }

    fn tids(&self) -> Vec<Tid> {
        self.list.iter().map(|w| w.tid).collect()
    }

    fn join(self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        for w in &self.list {
            w.handle.thread().unpark();
        }
        for w in self.list {
            w.handle
                .join()
                .map_err(|_| "a worker thread panicked".to_string())?;
        }
        Ok(())
    }
}

/// Attach: from `Monitor::new` through the end of the first sample, as
/// `SelfMonitor::start_for_pid` does it (process mask, monitor,
/// watch, first observation of every task).
fn attach(pid: Pid) -> Result<(LinuxProc, Monitor, u64), String> {
    let t0 = Instant::now();
    let src = LinuxProc::new();
    let cpus_allowed = src
        .process_status(pid)
        .map(|s| s.cpus_allowed)
        .map_err(|e| format!("process status: {e}"))?;
    let mut mon = Monitor::new(ZeroSumConfig::default());
    mon.watch_process(ProcessInfo {
        pid,
        rank: None,
        hostname: zerosum_core::attach::hostname(),
        gpus: vec![],
        cpus_allowed,
    });
    mon.sample(0.0, &src);
    let ns = t0.elapsed().as_nanos() as u64;
    Ok((src, mon, ns))
}

/// Live (not exited) tracks of `pid`.
fn live_tasks(mon: &Monitor, pid: Pid) -> usize {
    mon.process(pid)
        .map(|w| w.lwps.tracks().filter(|t| !t.exited).count())
        .unwrap_or(0)
}

/// Per-round exact counts of the traced run.
#[derive(Clone, Copy)]
struct Counts {
    traced: bool,
    wall_ns: u64,
    calls: u64,
    allocs: u64,
    syscr: u64,
    rchar: u64,
}

/// Runs `attach_idle` (`busy == false`) or `attach_busy`.
pub fn run(args: &Args, busy: bool) -> Result<Outcome, String> {
    let mut workers = Workers::spawn(args.seed)?;
    let result = drive(args, busy, &mut workers);
    let joined = workers.join();
    let out = result?;
    joined?;
    Ok(out)
}

/// True when the monitor's series are exactly full. Series are rings
/// that halve when they wrap, so the log's size depends on where in
/// that cycle the run stops; stopping at a full ring makes the
/// end-of-run report the same size on every run.
fn series_full(mon: &Monitor, pid: Pid) -> bool {
    mon.process(pid)
        .and_then(|w| w.lwps.track(pid))
        .is_some_and(|t| t.samples.len() == t.samples.capacity())
}

fn drive(args: &Args, busy: bool, workers: &mut Workers) -> Result<Outcome, String> {
    let pid = std::process::id();
    let tasks = WORKERS + 1;
    let run_for = Duration::from_secs(args.seconds);
    let mut rounds = Rounds::new(Host::procfs());
    rounds.exit_host = Some(Host::format());
    let (linux, mut mon) = rounds.one_shot(true, || {
        let (src, mon, ns) = attach(pid)?;
        Ok(((src, mon), ns))
    })?;
    let rec = RefCell::new(Recorder::with_capacity(if args.trace {
        crate::TRACE_SPANS
    } else {
        0
    }));
    let probe = ProbeSource::new(&linux, &rec);
    let mut io = if args.trace {
        Some(ThreadIo::open().map_err(|e| format!("/proc/thread-self/io: {e}"))?)
    } else {
        None
    };
    let mut counts: Vec<Counts> = Vec::new();
    let start = Instant::now();
    let mut next_window = start + crate::WINDOW;
    let mut traced_last = true;
    let mut round: u32 = 1;
    let hits_before = mon.stats.delta_hits;
    loop {
        let now = Instant::now();
        let elapsed = now - start;
        if elapsed >= run_for && series_full(&mon, pid) {
            break;
        }
        if elapsed > crate::MAX_RUN {
            return Err(format!("only {} rounds in {elapsed:?}", rounds.total()));
        }
        if now >= next_window {
            rounds.close_window();
            if !args.trace {
                rounds.one_shot(true, || attach(pid).map(|(_, _, ns)| ((), ns)))?;
            }
            next_window += crate::WINDOW;
        }
        if busy {
            workers.wake_all()?;
        }
        rounds.tick();
        round += 1;
        let t_s = start.elapsed().as_secs_f64();
        let hits0 = mon.stats.delta_hits;
        if let Some(io) = io.as_mut() {
            // Trace a round when the buffer is no fuller than the run is
            // old, so traced rounds spread over the whole run.
            let due = rec.borrow().fill() <= elapsed.as_secs_f64() / run_for.as_secs_f64();
            let traced =
                !traced_last && due && rec.borrow_mut().start_round(round, SPANS_PER_ROUND);
            traced_last = traced;
            let calls0 = procfs_calls(&rec.borrow());
            let io0 = io.snapshot();
            let a0 = crate::alloc::thread_allocs();
            let c0 = sys::thread_cpu_ns();
            let t0 = Instant::now();
            timed(&rec, Name::Sample, || mon.sample(t_s, &probe));
            let wall = t0.elapsed().as_nanos() as u64;
            let cpu = sys::thread_cpu_ns() - c0;
            let allocs = crate::alloc::thread_allocs() - a0;
            let io1 = io.snapshot();
            rec.borrow_mut().stop();
            let (syscr, rchar) = io.delta(io0, io1);
            rounds.push(wall, cpu);
            counts.push(Counts {
                traced,
                wall_ns: wall,
                calls: procfs_calls(&rec.borrow()) - calls0,
                allocs,
                syscr,
                rchar,
            });
        } else {
            let c0 = sys::thread_cpu_ns();
            let t0 = Instant::now();
            mon.sample(t_s, &linux);
            let wall = t0.elapsed().as_nanos() as u64;
            let cpu = sys::thread_cpu_ns() - c0;
            rounds.push(wall, cpu);
        }
        let live = live_tasks(&mon, pid);
        if live != tasks {
            return Err(format!(
                "round {round} listed {live} tasks, expected {tasks}"
            ));
        }
        if busy && mon.stats.delta_hits != hits0 {
            return Err(format!(
                "round {round}: {} worker(s) kept a stale schedstat and skipped their stat/status read",
                mon.stats.delta_hits - hits0
            ));
        }
    }
    let duration = start.elapsed().as_secs_f64();
    let errors = mon.stats.errors + mon.stats.vanished;
    if errors > 0 || mon.supervisor.restarts > 0 {
        return Err(format!(
            "source errors {}, vanished {}, supervisor restarts {}",
            mon.stats.errors, mon.stats.vanished, mon.supervisor.restarts
        ));
    }
    let attempted = rounds.total() * tasks as u64;
    let report = report(args, &mon, pid, duration, &workers.tids(), &mut rounds)?;
    let metrics = if args.trace {
        let skipped = mon.stats.delta_hits - hits_before;
        let observed = rounds.total() as f64 * WORKERS as f64;
        crate::write_trace(args, &rec.borrow())?;
        per_layer(&rec.borrow(), &counts, skipped as f64 / observed, report)?
    } else {
        crate::end_to_end(&mut rounds)
    };
    Ok(Outcome {
        attempted,
        failed: errors,
        metrics,
    })
}

fn procfs_calls(rec: &Recorder) -> u64 {
    Name::ALL
        .iter()
        .filter(|n| n.is_procfs())
        .map(|&n| rec.calls[n as usize])
        .sum()
}

/// The parts of the end-of-run log write, timed in a traced run.
struct Report {
    render_ns: Vec<u64>,
    csv_ns: Vec<u64>,
    write_ns: Vec<u64>,
    bytes: u64,
}

/// Writes the §3.6 logs `REPORT_REPS` times into a scratch directory,
/// as the monitor does at exit, and checks that the log names every
/// worker thread.
fn report(
    args: &Args,
    mon: &Monitor,
    pid: Pid,
    duration: f64,
    worker_tids: &[Tid],
    rounds: &mut Rounds,
) -> Result<Report, String> {
    let dir = crate::out_dir().join(format!("logs-{}-{pid}", args.workload));
    let mut rep = Report {
        render_ns: Vec::new(),
        csv_ns: Vec::new(),
        write_ns: Vec::new(),
        bytes: 0,
    };
    let mut path = None;
    for i in 0..REPORT_REPS {
        if i > 0 {
            std::thread::sleep(REPORT_GAP);
        }
        if args.trace {
            // The parts `write_logs` is made of, timed one by one.
            let t0 = Instant::now();
            let text = render_process_report(mon, pid, duration, None);
            let t1 = Instant::now();
            let mut content = export::log_content(mon, pid, duration, &text);
            content.push_str(export::LOG_END_MARKER);
            content.push('\n');
            let t2 = Instant::now();
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            let p = dir.join(format!("zerosum.{pid}.log"));
            export::atomic_write(&p, &content).map_err(|e| format!("write log: {e}"))?;
            let t3 = Instant::now();
            rep.render_ns.push((t1 - t0).as_nanos() as u64);
            rep.csv_ns.push((t2 - t1).as_nanos() as u64);
            rep.write_ns.push((t3 - t2).as_nanos() as u64);
            rep.bytes = content.len() as u64;
            path = Some(p);
        } else {
            let paths = rounds.one_shot(false, || {
                let t0 = Instant::now();
                let paths = export::write_logs(mon, &dir, duration, |p| {
                    render_process_report(mon, p, duration, None)
                })
                .map_err(|e| format!("write_logs: {e}"))?;
                Ok((paths, t0.elapsed().as_nanos() as u64))
            })?;
            path = paths.into_iter().next();
        }
    }
    let path = path.ok_or("no log written")?;
    let log = std::fs::read_to_string(&path).map_err(|e| format!("read log: {e}"))?;
    let _ = std::fs::remove_dir_all(&dir);
    if !log.ends_with(&format!("{}\n", export::LOG_END_MARKER)) {
        return Err("log lacks its end marker".into());
    }
    for tid in worker_tids {
        if !log.contains(&format!(",{tid},")) {
            return Err(format!("log does not name worker tid {tid}"));
        }
    }
    Ok(rep)
}

/// Per-layer metrics of a traced attach run.
fn per_layer(
    rec: &Recorder,
    counts: &[Counts],
    gate_skip_ratio: f64,
    report: Report,
) -> Result<Vec<Metric>, String> {
    let exact = crate::check_counts(
        counts,
        &[
            ("procfs calls", |c: &Counts| c.calls),
            ("read syscalls", |c: &Counts| c.syscr),
            ("allocations", |c: &Counts| c.allocs),
        ],
        |c| c.traced,
    )?;
    let rows = trace::self_by_round(rec.spans());
    let us = |name: Name| {
        let mut v: Vec<f64> = rows
            .iter()
            .map(|r| r.1[name as usize] as f64 / 1e3)
            .collect();
        sys::median(&mut v)
    };
    let mut rchar: Vec<f64> = counts.iter().map(|c| c.rchar as f64).collect();
    let ms = |v: &[u64]| {
        let mut v: Vec<f64> = v.iter().map(|&x| x as f64 / 1e6).collect();
        sys::median(&mut v)
    };
    Ok(vec![
        Metric::new("procfs.list_us", us(Name::List), "us"),
        Metric::new("procfs.schedstat_us", us(Name::Schedstat), "us"),
        Metric::new("procfs.stat_us", us(Name::Stat), "us"),
        Metric::new("procfs.status_us", us(Name::Status), "us"),
        Metric::new("procfs.system_us", us(Name::System), "us"),
        Metric::new("procfs.calls_per_round", exact[0], "count"),
        Metric::new("procfs.read_syscalls_per_round", exact[1], "count"),
        Metric::new("procfs.bytes_per_round", sys::median(&mut rchar), "bytes"),
        Metric::new("core.sample_self_us", us(Name::Sample), "us"),
        Metric::new("core.gate_skip_ratio", gate_skip_ratio, "ratio"),
        Metric::new("core.allocs_per_round", exact[2], "count"),
        Metric::new("core.report_render_ms", ms(&report.render_ns), "ms"),
        Metric::new("core.log_csv_ms", ms(&report.csv_ns), "ms"),
        Metric::new("core.log_write_ms", ms(&report.write_ns), "ms"),
        Metric::new("core.log_bytes", report.bytes as f64, "bytes"),
        crate::overhead(counts, |c| (c.traced, c.wall_ns)),
    ])
}
