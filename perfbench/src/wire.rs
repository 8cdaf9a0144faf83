//! The wire fan-in workloads: node agents stream heartbeats and per-LWP
//! detail to one collector, over in-process pipes (`wire_inproc`) or
//! loopback TCP (`wire_tcp`), all driven from the calling thread.

use crate::host::Host;
use crate::probe::{timed, ProbeLink};
use crate::sys::{self, Rng};
use crate::trace::{self, Name, Recorder};
use crate::{Args, Metric, Outcome, Rounds};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};
use zerosum_core::{NodeAggregate, NodeState};
use zerosum_net::{
    in_proc_pair, Acceptor, Collector, CollectorConfig, Link, NodeAgent, TcpLink, DEFAULT_WINDOW,
};

/// Per-LWP detail frames each node sends per round: under the
/// collector's 64-frame per-node decode budget with the heartbeat.
const DETAILS: usize = 48;
/// The supervision period the heartbeats are stamped against, s.
const PERIOD_S: f64 = 0.1;
/// Detail values cycle through this many rounds of generated input.
const INPUT_ROUNDS: usize = 16;
/// Distinct generated aggregate sets the end-of-run deliveries cycle
/// through.
const AGG_SETS: usize = 8;
/// Collector pumps allowed for one round's frames to arrive.
const MAX_PUMPS: usize = 10_000;

/// Which transport the links use.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `in_proc_pair` pipes.
    InProc,
    /// Loopback `TcpLink`s accepted from an `Acceptor`.
    Tcp,
}

impl Backend {
    /// Nodes: 64 in process; over TCP no more connections than the
    /// 2 CPUs of the reference host.
    pub fn nodes(self) -> usize {
        match self {
            Backend::InProc => 64,
            Backend::Tcp => 2,
        }
    }
}

/// Loopback TCP is usable here (the same probe `zerosum collect
/// --probe` makes).
pub fn sockets_allowed() -> bool {
    Acceptor::bind("127.0.0.1:0").is_ok()
}

/// `n` connected link pairs `(agent side, collector side)`.
trait Pairs: Link + Sized + 'static {
    fn pairs(n: usize) -> Result<Vec<(Self, Self)>, String>;
}

impl Pairs for zerosum_net::InProcLink {
    fn pairs(n: usize) -> Result<Vec<(Self, Self)>, String> {
        Ok((0..n).map(|_| in_proc_pair(DEFAULT_WINDOW)).collect())
    }
}

impl Pairs for TcpLink {
    fn pairs(n: usize) -> Result<Vec<(Self, Self)>, String> {
        let acceptor = Acceptor::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = acceptor.local_addr().map_err(|e| e.to_string())?;
        let mut dialed = Vec::with_capacity(n);
        for _ in 0..n {
            dialed.push(TcpLink::dial(&addr, DEFAULT_WINDOW).map_err(|e| format!("dial: {e}"))?);
        }
        let mut accepted = Vec::with_capacity(n);
        let deadline = Instant::now() + Duration::from_secs(10);
        while accepted.len() < n {
            match acceptor.poll_accept(DEFAULT_WINDOW) {
                Ok(Some(l)) => accepted.push(l),
                Ok(None) if Instant::now() < deadline => std::thread::yield_now(),
                Ok(None) => return Err("loopback accept timed out".into()),
                Err(e) => return Err(format!("accept: {e}")),
            }
        }
        Ok(dialed.into_iter().zip(accepted).collect())
    }
}

/// The generated inputs: hostnames, detail tids and values, and the
/// end-of-run aggregates.
struct Inputs {
    hosts: Vec<String>,
    tids: Vec<[u32; DETAILS]>,
    /// `busy[(round % INPUT_ROUNDS) * nodes * DETAILS + node * DETAILS + d]`.
    busy: Vec<f64>,
    /// `aggs[rep][node]`.
    aggs: Vec<Vec<NodeAggregate>>,
}

impl Inputs {
    fn new(seed: u64, nodes: usize) -> Inputs {
        let mut rng = Rng::new(seed, 2);
        let hosts: Vec<String> = (0..nodes)
            .map(|i| format!("nid{:05}-{:x}", i, rng.below(1 << 20)))
            .collect();
        let tids = (0..nodes)
            .map(|_| std::array::from_fn(|_| 1_000 + rng.below(4_000_000) as u32))
            .collect();
        let busy = (0..INPUT_ROUNDS * nodes * DETAILS)
            .map(|_| rng.unit() * 100.0)
            .collect();
        let aggs = (0..AGG_SETS)
            .map(|_| {
                hosts
                    .iter()
                    .map(|h| NodeAggregate {
                        hostname: h.clone(),
                        ranks: 1 + rng.below(8) as usize,
                        lwps: 1 + rng.below(256) as usize,
                        mean_user_pct: rng.unit() * 100.0,
                        mean_idle_pct: rng.unit() * 100.0,
                        total_nvcsw: rng.below(1 << 40),
                        rss_kib: rng.below(1 << 30),
                    })
                    .collect()
            })
            .collect();
        Inputs {
            hosts,
            tids,
            busy,
            aggs,
        }
    }
}

/// One collector and its agents.
struct Fanin<A: Link> {
    agents: Vec<NodeAgent<A>>,
    collector: Collector,
    round: u64,
}

/// Optional span around a call: `None` in the untraced run.
fn call<T>(rec: Option<&Rc<RefCell<Recorder>>>, name: Name, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => timed(r, name, f),
        None => f(),
    }
}

/// Setup: builds the collector and the links, then runs handshake
/// rounds until every node's Hello is acked and every node is Alive.
fn setup<L: Pairs, A: Link>(
    inputs: &Inputs,
    wrap_agent: &impl Fn(L) -> A,
    wrap_collector: &impl Fn(L) -> Box<dyn Link>,
) -> Result<(Fanin<A>, u64), String> {
    let t0 = Instant::now();
    let n = inputs.hosts.len();
    let mut collector = Collector::with_config(CollectorConfig {
        period_s: PERIOD_S,
        ..CollectorConfig::default()
    });
    for h in &inputs.hosts {
        collector.expect_node(h);
    }
    let mut agents = Vec::with_capacity(n);
    for ((a, c), host) in L::pairs(n)?.into_iter().zip(&inputs.hosts) {
        agents.push(NodeAgent::new(wrap_agent(a), host.clone()));
        collector.add_link(wrap_collector(c));
    }
    let mut f = Fanin {
        agents,
        collector,
        round: 0,
    };
    loop {
        f.round += 1;
        let t_s = f.round as f64 * PERIOD_S;
        for a in &mut f.agents {
            a.begin_round(f.round, t_s);
            a.tick();
        }
        f.collector.pump_frames();
        f.collector.run_round();
        for a in &mut f.agents {
            a.tick();
        }
        let acked = f.agents.iter().all(|a| a.stats.acks_rx >= 1);
        let alive = inputs
            .hosts
            .iter()
            .all(|h| f.collector.cluster().node_state(h) == NodeState::Alive);
        if acked && alive && f.collector.stats.heartbeats_rx >= n as u64 {
            break;
        }
        if f.round > 1_000 {
            return Err("nodes never became Alive".into());
        }
    }
    Ok((f, t0.elapsed().as_nanos() as u64))
}

/// Per-round exact counts of the traced run.
#[derive(Clone, Copy)]
struct Counts {
    traced: bool,
    wall_ns: u64,
    frames: u64,
    link_calls: u64,
    link_bytes: u64,
    allocs: u64,
}

/// Runs `wire_inproc` or `wire_tcp`.
pub fn run(args: &Args, backend: Backend) -> Result<Outcome, String> {
    match backend {
        Backend::InProc => run_on::<zerosum_net::InProcLink>(args, backend),
        Backend::Tcp => run_on::<TcpLink>(args, backend),
    }
}

fn run_on<L: Pairs>(args: &Args, backend: Backend) -> Result<Outcome, String> {
    let inputs = Inputs::new(args.seed, backend.nodes());
    if args.trace {
        let rec = Rc::new(RefCell::new(Recorder::with_capacity(crate::TRACE_SPANS)));
        let (r1, r2) = (rec.clone(), rec.clone());
        let (mut f, _) = setup::<L, _>(
            &inputs,
            &move |l| ProbeLink::new(l, r1.clone()),
            &move |l| Box::new(ProbeLink::new(l, r2.clone())),
        )?;
        drive(args, &inputs, &mut f, Some(&rec))
    } else {
        let plain = |l: L| -> Box<dyn Link> { Box::new(l) };
        let mut rounds = Rounds::new(match backend {
            Backend::InProc => Host::queue(),
            Backend::Tcp => Host::tcp()?,
        });
        drive_timed(args, &inputs, &mut rounds, &|| {
            setup::<L, L>(&inputs, &|l| l, &plain)
        })
    }
}

/// The untimed-run driver. Every window is one whole session: set-up,
/// rounds, and the exit drain, so each session opens fresh connections.
/// A loopback TCP connection can settle into a slower mode for its whole
/// life; a run made of many sessions measures that mode at its real
/// frequency instead of taking whichever one its single connection drew.
fn drive_timed<A: Link>(
    args: &Args,
    inputs: &Inputs,
    rounds: &mut Rounds,
    session: &dyn Fn() -> Result<(Fanin<A>, u64), String>,
) -> Result<Outcome, String> {
    let run_for = Duration::from_secs(args.seconds);
    let (mut attempted, mut failed) = (0, 0);
    let mut f = rounds.one_shot(true, session)?;
    let start = Instant::now();
    let mut next_window = start + crate::WINDOW;
    let mut sessions = 0;
    loop {
        let last = start.elapsed() >= run_for;
        if last || Instant::now() >= next_window {
            rounds.close_window();
            rounds.one_shot(false, || {
                exit_drain(inputs, &mut f, sessions, None).map(|ns| ((), ns))
            })?;
            let (a, x) = check_run(inputs, &f)?;
            (attempted, failed) = (attempted + a, failed + x);
            sessions += 1;
            if last {
                break;
            }
            f = rounds.one_shot(true, session)?;
            next_window += crate::WINDOW;
        }
        rounds.tick();
        let c0 = sys::thread_cpu_ns();
        let t0 = Instant::now();
        round(inputs, &mut f, None)?;
        let wall = t0.elapsed().as_nanos() as u64;
        rounds.push(wall, sys::thread_cpu_ns() - c0);
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: crate::end_to_end(rounds),
    })
}

/// One timed round: every agent opens the round and sends its detail,
/// then the collector pumps until it has every frame of the round and
/// closes the supervision round.
fn round<A: Link>(
    inputs: &Inputs,
    f: &mut Fanin<A>,
    rec: Option<&Rc<RefCell<Recorder>>>,
) -> Result<(), String> {
    f.round += 1;
    let r = f.round;
    let t_s = r as f64 * PERIOD_S;
    let n = f.agents.len();
    let row = (r as usize % INPUT_ROUNDS) * n * DETAILS;
    let expected = f.collector.stats.frames_rx + (n * (DETAILS + 1)) as u64;
    for (i, a) in f.agents.iter_mut().enumerate() {
        call(rec, Name::Agent, || a.begin_round(r, t_s));
        let busy = &inputs.busy[row + i * DETAILS..row + (i + 1) * DETAILS];
        for (&tid, &pct) in inputs.tids[i].iter().zip(busy) {
            call(rec, Name::Agent, || a.send_detail(r, tid, pct));
        }
        call(rec, Name::Agent, || a.tick());
    }
    let mut pumps = 0;
    while f.collector.stats.frames_rx < expected {
        if pumps == MAX_PUMPS {
            return Err(format!(
                "round {r}: {} of {} frames arrived",
                f.collector.stats.frames_rx + (n * (DETAILS + 1)) as u64 - expected,
                n * (DETAILS + 1)
            ));
        }
        call(rec, Name::Collector, || f.collector.pump_frames());
        pumps += 1;
    }
    call(rec, Name::Collector, || f.collector.run_round());
    if f.collector.stats.frames_rx != expected {
        return Err(format!("round {r}: collector decoded extra frames"));
    }
    Ok(())
}

/// The end of a run, as `zerosum stream` and `zerosum collect` do it:
/// every agent hands over its aggregate (the `rep`-th generated set),
/// agents and collector pump until each one is delivered and acked, and
/// the collector renders its summary. Returns the time it took, ns.
fn exit_drain<A: Link>(
    inputs: &Inputs,
    f: &mut Fanin<A>,
    rep: usize,
    rec: Option<&Rc<RefCell<Recorder>>>,
) -> Result<u64, String> {
    let aggs = &inputs.aggs[rep % inputs.aggs.len()];
    let r = f.round;
    let mut handover = aggs.clone();
    let t0 = Instant::now();
    for (a, agg) in f.agents.iter_mut().zip(handover.drain(..)) {
        call(rec, Name::Agent, || a.finish(r, agg));
    }
    let mut pumps = 0;
    while !f.agents.iter().all(|a| a.done()) {
        if pumps == MAX_PUMPS {
            return Err("aggregates were never acknowledged".into());
        }
        for a in &mut f.agents {
            call(rec, Name::Agent, || a.tick());
        }
        call(rec, Name::Collector, || f.collector.pump_frames());
        for a in &mut f.agents {
            call(rec, Name::Agent, || a.tick());
        }
        pumps += 1;
    }
    let summary = f.collector.render_summary();
    let ns = t0.elapsed().as_nanos() as u64;
    check_aggregates(aggs, &f.collector.wire_aggregates(), &summary)?;
    Ok(ns)
}

/// The run's output checks. Returns `(frames offered, frames failed)`.
fn check_run<A: Link>(inputs: &Inputs, f: &Fanin<A>) -> Result<(u64, u64), String> {
    let c = f.collector.stats;
    let sent: u64 = f.agents.iter().map(|a| a.stats.frames_tx).sum();
    let shed: u64 = f.agents.iter().map(|a| a.stats.details_shed).sum();
    let offered = sent + shed;
    let failed = shed + c.decode_errors + sent.saturating_sub(c.frames_rx);
    let (quorum, total) = f.collector.quorum();
    let mut problems = Vec::new();
    if c.frames_rx != sent {
        problems.push(format!(
            "collector decoded {} of {sent} frames",
            c.frames_rx
        ));
    }
    if shed + c.decode_errors + c.budget_exhausted + c.orphan_frames + c.header_timeouts > 0 {
        problems.push(format!(
            "shed {shed}, decode errors {}, budget exhausted {}, orphans {}, header timeouts {}",
            c.decode_errors, c.budget_exhausted, c.orphan_frames, c.header_timeouts
        ));
    }
    if quorum != total || total != inputs.hosts.len() {
        problems.push(format!("quorum {quorum}/{total}"));
    }
    for h in &inputs.hosts {
        let transitions = f
            .collector
            .cluster()
            .supervision_of(h)
            .map_or(0, |s| s.transitions.len());
        if transitions > 0 {
            problems.push(format!("{h} left Alive {transitions} time(s)"));
        }
    }
    if !problems.is_empty() {
        return Err(problems.join("; "));
    }
    Ok((offered, failed))
}

/// Every delivered aggregate must be bit-identical to the one its agent
/// sent, and the summary must name every node.
fn check_aggregates(
    sent: &[NodeAggregate],
    got: &[NodeAggregate],
    summary: &str,
) -> Result<(), String> {
    if got.len() != sent.len() {
        return Err(format!(
            "{} of {} aggregates delivered",
            got.len(),
            sent.len()
        ));
    }
    for s in sent {
        let same = got.iter().any(|g| {
            g.hostname == s.hostname
                && g.ranks == s.ranks
                && g.lwps == s.lwps
                && g.mean_user_pct.to_bits() == s.mean_user_pct.to_bits()
                && g.mean_idle_pct.to_bits() == s.mean_idle_pct.to_bits()
                && g.total_nvcsw == s.total_nvcsw
                && g.rss_kib == s.rss_kib
        });
        if !same || !summary.contains(&s.hostname) {
            return Err(format!(
                "aggregate of {} was not delivered intact",
                s.hostname
            ));
        }
    }
    Ok(())
}

/// The traced run: traced rounds spread over the window, alternating
/// with untraced ones through the same adapters.
fn drive<A: Link>(
    args: &Args,
    inputs: &Inputs,
    f: &mut Fanin<A>,
    rec: Option<&Rc<RefCell<Recorder>>>,
) -> Result<Outcome, String> {
    let rec = rec.ok_or("traced run without a recorder")?;
    let n = inputs.hosts.len();
    let spans_per_round = n * (2 * DETAILS + 16) + 16;
    let window = Duration::from_secs(args.seconds);
    let mut counts: Vec<Counts> = Vec::new();
    let start = Instant::now();
    let mut traced_last = true;
    while start.elapsed() < window {
        let due = rec.borrow().fill() <= start.elapsed().as_secs_f64() / window.as_secs_f64();
        let traced = !traced_last
            && due
            && rec
                .borrow_mut()
                .start_round(f.round as u32 + 1, spans_per_round);
        traced_last = traced;
        let (calls0, bytes0) = link_counts(&rec.borrow());
        let frames0 = f.collector.stats.frames_rx;
        let a0 = crate::alloc::thread_allocs();
        let t0 = Instant::now();
        timed(rec, Name::WireRound, || round(inputs, f, Some(rec)))?;
        let wall = t0.elapsed().as_nanos() as u64;
        let allocs = crate::alloc::thread_allocs() - a0;
        rec.borrow_mut().stop();
        let (calls1, bytes1) = link_counts(&rec.borrow());
        counts.push(Counts {
            traced,
            wall_ns: wall,
            frames: f.collector.stats.frames_rx - frames0,
            link_calls: calls1 - calls0,
            link_bytes: bytes1 - bytes0,
            allocs,
        });
    }
    exit_drain(inputs, f, 0, Some(rec))?;
    let (attempted, failed) = check_run(inputs, f)?;
    let exact = crate::check_counts(
        &counts,
        &[
            ("frames", |c: &Counts| c.frames),
            ("link calls", |c: &Counts| c.link_calls),
            ("link bytes", |c: &Counts| c.link_bytes),
            ("allocations", |c: &Counts| c.allocs),
        ],
        |c| c.traced,
    )?;
    let rows = trace::self_by_round(rec.borrow().spans());
    let us = |names: &[Name]| {
        let mut v: Vec<f64> = rows
            .iter()
            .map(|r| names.iter().map(|&n| r.1[n as usize]).sum::<u64>() as f64 / 1e3)
            .collect();
        sys::median(&mut v)
    };
    let shed: u64 = f.agents.iter().map(|a| a.stats.details_shed).sum();
    let metrics = vec![
        Metric::new("net.agent_us", us(&[Name::Agent]), "us"),
        Metric::new("net.collector_self_us", us(&[Name::Collector]), "us"),
        Metric::new("net.link_send_us", us(&[Name::LinkSend]), "us"),
        Metric::new("net.link_recv_us", us(&[Name::LinkRecv]), "us"),
        Metric::new("net.link_calls_per_round", exact[1], "count"),
        Metric::new("net.frames_per_round", exact[0], "count"),
        Metric::new("net.bytes_per_round", exact[2], "bytes"),
        Metric::new("net.allocs_per_round", exact[3], "count"),
        Metric::new("net.details_shed", shed as f64, "count"),
        Metric::new(
            "net.budget_exhausted",
            f.collector.stats.budget_exhausted as f64,
            "count",
        ),
        crate::overhead(&counts, |c| (c.traced, c.wall_ns)),
    ];
    crate::write_trace(args, &rec.borrow())?;
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn link_counts(rec: &Recorder) -> (u64, u64) {
    let calls = Name::ALL
        .iter()
        .filter(|n| n.is_link())
        .map(|&n| rec.calls[n as usize])
        .sum();
    (calls, rec.link_bytes)
}
