//! End-to-end and per-layer benchmark of ZeroSum's live attach mode and
//! its `stream` → `collect` wire path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload attach_idle|attach_busy|wire_inproc|wire_tcp|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload is driven from the calling thread, and the benchmark
//! times calls into the layers' public functions from outside the
//! program. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! runs the same workload through the timing adapters and prints the
//! per-layer metrics. The last line of output is one JSON object. A
//! failed output check prints no numbers and exits with code 1. See
//! `README.md` beside this file for the workloads and metrics.

mod alloc;
mod attach;
mod host;
mod probe;
mod sys;
mod trace;
mod wire;

use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Statistics window: every timing is summarised per window of run
/// time, and one set-up is measured at the start of each window.
const WINDOW_MS: usize = 500;
const WINDOW: Duration = Duration::from_millis(WINDOW_MS as u64);
/// Rounds kept per window (rounds beyond it are counted, not kept).
const WINDOW_ROUNDS: usize = 1 << 15;
/// Span buffer of a traced run (32 bytes a span).
const TRACE_SPANS: usize = 1 << 20;
/// A run that takes longer than this fails.
const MAX_RUN: Duration = Duration::from_secs(150);

/// Every workload, in the order `all` runs them.
const WORKLOADS: [&str; 4] = ["attach_idle", "attach_busy", "wire_inproc", "wire_tcp"];

/// The end-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("round_us_p50", "us"),
    ("round_us_p90", "us"),
    ("cpu_us_per_round", "us"),
    ("peak_rss_kib", "KiB"),
    ("report_ms", "ms"),
];

/// The per-layer metrics, printed by every traced run; a layer the
/// workload does not go through reads 0.
const PER_LAYER: [(&str, &str); 26] = [
    ("procfs.list_us", "us"),
    ("procfs.schedstat_us", "us"),
    ("procfs.stat_us", "us"),
    ("procfs.status_us", "us"),
    ("procfs.system_us", "us"),
    ("procfs.calls_per_round", "count"),
    ("procfs.read_syscalls_per_round", "count"),
    ("procfs.bytes_per_round", "bytes"),
    ("core.sample_self_us", "us"),
    ("core.gate_skip_ratio", "ratio"),
    ("core.allocs_per_round", "count"),
    ("core.report_render_ms", "ms"),
    ("core.log_csv_ms", "ms"),
    ("core.log_write_ms", "ms"),
    ("core.log_bytes", "bytes"),
    ("net.agent_us", "us"),
    ("net.collector_self_us", "us"),
    ("net.link_send_us", "us"),
    ("net.link_recv_us", "us"),
    ("net.link_calls_per_round", "count"),
    ("net.frames_per_round", "count"),
    ("net.bytes_per_round", "bytes"),
    ("net.allocs_per_round", "count"),
    ("net.details_shed", "count"),
    ("net.budget_exhausted", "count"),
    ("trace.overhead_pct", "%"),
];

/// Command-line arguments.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.clamp(1, 120),
            "--trace" => args.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            note: String::new(),
        }
    }

    fn with_note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// What a workload run produced.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Wall and CPU time of the timed rounds, normalised by the host probe
/// and summarised per window of [`WINDOW`] run time; plus the one-shot
/// timings (set-up, exit). The round buffers are allocated and touched
/// before timing starts, so the benchmark's own memory does not grow
/// with the number of rounds.
pub struct Rounds {
    wall: Vec<u32>,
    cpu: Vec<u32>,
    raw: Vec<u32>,
    len: usize,
    total: u64,
    /// Per closed window: `[p50 wall, p90 wall, p50 cpu, raw p50 wall]`,
    /// ns.
    windows: Vec<[u64; 4]>,
    /// Per closed window: the host's median slowdown.
    factors: Vec<f64>,
    host: host::Host,
    /// The probe for exits, when they are made of other work than rounds.
    exit_host: Option<host::Host>,
    /// `(normalised, raw)` ns of each set-up.
    setups: Vec<(u64, u64)>,
    /// `(normalised, raw)` ns of each exit (end-of-run) operation.
    exits: Vec<(u64, u64)>,
}

impl Rounds {
    fn new(host: host::Host) -> Rounds {
        let windows = 2 * MAX_RUN.as_secs() as usize * 1_000 / WINDOW_MS;
        Rounds {
            wall: vec![u32::MAX; WINDOW_ROUNDS],
            cpu: vec![u32::MAX; WINDOW_ROUNDS],
            raw: vec![u32::MAX; WINDOW_ROUNDS],
            len: 0,
            total: 0,
            windows: Vec::with_capacity(windows),
            factors: Vec::with_capacity(windows),
            host,
            exit_host: None,
            setups: Vec::new(),
            exits: Vec::new(),
        }
    }

    /// Rounds timed so far.
    fn total(&self) -> u64 {
        self.total
    }

    /// Call before each round, outside its timing: runs the host probe
    /// when it is due.
    fn tick(&mut self) {
        self.host.tick();
    }

    fn push(&mut self, wall: u64, cpu: u64) {
        self.total += 1;
        if self.len < WINDOW_ROUNDS {
            let clip = |x: u64| x.min(u64::from(u32::MAX)) as u32;
            self.wall[self.len] = clip(self.host.normalise(wall));
            self.cpu[self.len] = clip(self.host.normalise(cpu));
            self.raw[self.len] = clip(wall);
            self.len += 1;
        }
    }

    /// Times a one-shot operation `f` (a set-up or an exit), with fresh
    /// host probe batches just before it.
    fn one_shot<T>(
        &mut self,
        setup: bool,
        f: impl FnOnce() -> Result<(T, u64), String>,
    ) -> Result<T, String> {
        let host = match self.exit_host.as_mut() {
            Some(h) if !setup => h,
            _ => &mut self.host,
        };
        host.refresh();
        let (out, ns) = f()?;
        let pair = (host.normalise(ns), ns);
        if setup {
            self.setups.push(pair);
        } else {
            self.exits.push(pair);
        }
        Ok(out)
    }

    /// Summarises the rounds since the last call as one window.
    fn close_window(&mut self) {
        if self.len == 0 {
            return;
        }
        let n = self.len;
        let col = |v: &[u32]| -> Vec<u64> { v[..n].iter().map(|&x| u64::from(x)).collect() };
        let (mut wall, mut cpu, mut raw) = (col(&self.wall), col(&self.cpu), col(&self.raw));
        self.windows.push([
            sys::percentile(&mut wall, 0.5),
            sys::percentile(&mut wall, 0.9),
            sys::percentile(&mut cpu, 0.5),
            sys::percentile(&mut raw, 0.5),
        ]);
        self.factors.push(self.host.take_factor());
        self.len = 0;
    }
}

/// The end-to-end metrics: medians over windows (or repetitions) of
/// figures normalised by the host probe. The notes give the raw median
/// and the host's slowdown.
fn end_to_end(rounds: &mut Rounds) -> Vec<Metric> {
    rounds.close_window();
    let (n, w) = (rounds.total(), rounds.windows.len());
    let median = |v: &mut dyn Iterator<Item = u64>| {
        let mut v: Vec<f64> = v.map(|x| x as f64).collect();
        sys::median(&mut v)
    };
    let col = |i: usize| median(&mut rounds.windows.iter().map(|x| x[i]));
    let pair = |v: &[(u64, u64)]| {
        (
            median(&mut v.iter().map(|x| x.0)),
            median(&mut v.iter().map(|x| x.1)),
        )
    };
    let (setup, exit) = (pair(&rounds.setups), pair(&rounds.exits));
    let factor = sys::median(&mut rounds.factors.clone());
    let rss = sys::status_kib("VmHWM").unwrap_or(0) as f64;
    let per_window = format!(
        "median over {w} windows of {n} rounds; host {factor:.2}x, raw p50 {:.1} us",
        col(3) / 1e3
    );
    vec![
        Metric::new("setup_s", setup.0 / 1e9, "s").with_note(format!(
            "median of {}; raw {:.6} s",
            rounds.setups.len(),
            setup.1 / 1e9
        )),
        Metric::new("round_us_p50", col(0) / 1e3, "us").with_note(per_window.clone()),
        Metric::new("round_us_p90", col(1) / 1e3, "us").with_note(format!(
            "{per_window}; ~{} rounds above p90 per window",
            n / w.max(1) as u64 / 10
        )),
        Metric::new("cpu_us_per_round", col(2) / 1e3, "us").with_note(per_window),
        Metric::new("peak_rss_kib", rss, "KiB"),
        Metric::new("report_ms", exit.0 / 1e6, "ms").with_note(format!(
            "median of {}; raw {:.3} ms",
            rounds.exits.len(),
            exit.1 / 1e6
        )),
    ]
}

/// `trace.overhead_pct`: median traced round against median untraced
/// round of the same traced run.
fn overhead<T>(rounds: &[T], key: impl Fn(&T) -> (bool, u64)) -> Metric {
    let mut traced: Vec<u64> = rounds
        .iter()
        .map(&key)
        .filter(|k| k.0)
        .map(|k| k.1)
        .collect();
    let mut plain: Vec<u64> = rounds
        .iter()
        .map(&key)
        .filter(|k| !k.0)
        .map(|k| k.1)
        .collect();
    let (t, p) = (
        sys::percentile(&mut traced, 0.5) as f64,
        sys::percentile(&mut plain, 0.5) as f64,
    );
    Metric::new("trace.overhead_pct", (t / p.max(1.0) - 1.0) * 100.0, "%").with_note(format!(
        "{} traced, {} untraced rounds",
        traced.len(),
        plain.len()
    ))
}

/// A named exact count read off one round's record.
type ExactCount<T> = (&'static str, fn(&T) -> u64);

/// The self-test of the adapters: each exact per-round count must have
/// the same median in traced and untraced rounds. Returns the medians.
fn check_counts<T>(
    rounds: &[T],
    counts: &[ExactCount<T>],
    traced: fn(&T) -> bool,
) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for (label, f) in counts {
        let mut on: Vec<u64> = rounds.iter().filter(|r| traced(r)).map(f).collect();
        let mut off: Vec<u64> = rounds.iter().filter(|r| !traced(r)).map(f).collect();
        if on.is_empty() || off.is_empty() {
            return Err("the traced run needs traced and untraced rounds".into());
        }
        let (a, b) = (
            sys::percentile(&mut on, 0.5),
            sys::percentile(&mut off, 0.5),
        );
        if a != b {
            return Err(format!(
                "{label} per round: {a} traced vs {b} untraced; tracing changed the work"
            ));
        }
        out.push(a as f64);
    }
    Ok(out)
}

/// Scratch output directory inside the benchmark's own directory.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the traced run's spans to `out/trace-<workload>.tsv`.
fn write_trace(args: &Args, rec: &trace::Recorder) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    rec.write_tsv(&dir.join(format!("trace-{}.tsv", args.workload)))
        .map_err(|e| format!("write trace: {e}"))
}

fn run_one(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "attach_idle" => attach::run(args, false),
        "attach_busy" => attach::run(args, true),
        "wire_inproc" => wire::run(args, wire::Backend::InProc),
        "wire_tcp" => {
            if !wire::sockets_allowed() {
                // Never a zero: the workload is absent, loudly.
                return Err("SKIPPED wire_tcp: this sandbox forbids loopback sockets".into());
            }
            wire::run(args, wire::Backend::Tcp)
        }
        other => Err(format!("unknown workload {other}")),
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn print_outcome(args: &Args, out: &Outcome) {
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    debug_assert!(out
        .metrics
        .iter()
        .all(|m| expected.contains(&(m.name, m.unit))));
    let mut fields = Vec::new();
    for &(name, unit) in expected {
        let (value, note) = out
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or((0.0, "not on this workload"), |m| {
                (m.value, m.note.as_str())
            });
        println!(
            "{:<12} {:<32} {:>14.4} {:<6} {}",
            args.workload, name, value, unit, note
        );
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            json_escape(name),
            json_escape(unit)
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
}

/// `--workload all`: each workload in its own process, one after the
/// other; fails if any of them fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            failed.push(w);
        }
    }
    if failed.is_empty() {
        eprintln!("perfbench: every workload passed its output checks");
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: FAILED: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match run_one(&args) {
        Ok(out) => {
            print_outcome(&args, &out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {}: output check failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
