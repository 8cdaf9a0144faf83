//! The host probe: a fixed reference operation, timed every few
//! milliseconds between rounds, that tells how fast the host is running
//! right now.
//!
//! On the reference host (a 2-vCPU KVM guest) syscalls and load/store-
//! heavy code slow by 1.4-2.5x for seconds to minutes at a time while a
//! latency-bound ALU loop does not move: the vCPUs share their cores with
//! other tenants, and which resource those tenants load changes over
//! time. Each workload therefore gets a probe made of the same primitive
//! operations its rounds spend their time on, done by plain `std` code
//! and no ZeroSum code. A timing is scaled by the probe's cost on the
//! quiet reference host over the probe's cost measured beside it, so it
//! reads as it would on the quiet host. A change to the program moves
//! the figures and never the probe.

use std::collections::VecDeque;
use std::fs::File;
use std::hint::black_box;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Time between probe batches while rounds run.
const EVERY: Duration = Duration::from_millis(5);
/// Shape of the TCP probe: connections, writes per connection, bytes a
/// write (one `wire_tcp` round: 2 nodes, 49 frames of about 33 bytes).
const TCP_PAIRS: usize = 2;
const TCP_WRITES: usize = 49;
const TCP_BYTES: usize = 33;

/// The reference operation.
enum Kind {
    /// `open`, `read`, `close` of the driving thread's `schedstat`,
    /// `stat` and `status`, as the monitor reads each task.
    Procfs([String; 3], String),
    /// Two loopback TCP pairs, each carrying a burst of 49 writes of 33
    /// bytes read back with nonblocking reads, as one `wire_tcp` round
    /// does.
    Tcp(Vec<(TcpStream, TcpStream)>, Vec<u8>),
    /// 32-byte buffers allocated and pushed through a locked queue, as
    /// an in-process link carries frames.
    Queue(Mutex<VecDeque<Vec<u8>>>),
    /// CSV lines of numbers formatted into a string, as the monitor
    /// writes its log.
    Format(String),
}

/// The probe, its reference cost, and its recent batch times. The
/// reference costs were set so that normalised figures match the raw
/// figures measured while the reference host was quiet, to within about
/// 10%.
pub struct Host {
    kind: Kind,
    reference_ns: f64,
    samples: Vec<u64>,
    recent: [u64; 3],
    last: Instant,
}

impl Host {
    /// The probe for the attach workloads.
    pub fn procfs() -> Host {
        let base = format!("/proc/self/task/{}", crate::attach::own_tid().unwrap_or(0));
        let paths = ["schedstat", "stat", "status"].map(|leaf| format!("{base}/{leaf}"));
        Host::new(Kind::Procfs(paths, String::with_capacity(2048)), 130_000.0)
    }

    /// The probe for `wire_tcp`.
    pub fn tcp() -> Result<Host, String> {
        let err = |e: std::io::Error| format!("probe socket: {e}");
        let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
        let mut pairs = Vec::new();
        for _ in 0..TCP_PAIRS {
            let a = TcpStream::connect(listener.local_addr().map_err(err)?).map_err(err)?;
            let (b, _) = listener.accept().map_err(err)?;
            a.set_nodelay(true).map_err(err)?;
            b.set_nonblocking(true).map_err(err)?;
            pairs.push((a, b));
        }
        let buf = vec![0; TCP_WRITES * TCP_BYTES];
        Ok(Host::new(Kind::Tcp(pairs, buf), 225_000.0))
    }

    /// The probe for `wire_inproc`.
    pub fn queue() -> Host {
        Host::new(
            Kind::Queue(Mutex::new(VecDeque::with_capacity(128))),
            25_000.0,
        )
    }

    /// The probe for the attach workloads' end-of-run log write.
    pub fn format() -> Host {
        Host::new(Kind::Format(String::with_capacity(64 * 1024)), 370_000.0)
    }

    fn new(kind: Kind, reference_ns: f64) -> Host {
        let mut h = Host {
            kind,
            reference_ns,
            samples: Vec::with_capacity(4_096),
            recent: [0; 3],
            last: Instant::now(),
        };
        for _ in 0..3 {
            h.batch();
        }
        h
    }

    /// Runs one batch if [`EVERY`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.batch();
        }
    }

    /// Times one batch.
    fn batch(&mut self) {
        let t0 = Instant::now();
        match &mut self.kind {
            Kind::Procfs(paths, text) => {
                for _ in 0..8 {
                    for p in paths.iter() {
                        text.clear();
                        if let Ok(mut f) = File::open(p) {
                            let _ = f.read_to_string(text);
                        }
                        black_box(&text);
                    }
                }
            }
            Kind::Tcp(pairs, buf) => {
                for (a, _) in pairs.iter_mut() {
                    for chunk in buf.chunks(TCP_BYTES) {
                        let _ = a.write_all(chunk);
                    }
                }
                // Nonblocking reads, polled until the burst is in, as the
                // collector pumps its links.
                let deadline = Instant::now() + Duration::from_secs(1);
                for (_, b) in pairs.iter_mut() {
                    let mut got = 0;
                    while got < buf.len() && Instant::now() < deadline {
                        match b.read(&mut buf[got..]) {
                            Ok(0) => break,
                            Ok(n) => got += n,
                            Err(_) => std::hint::spin_loop(),
                        }
                    }
                }
                black_box(&buf);
            }
            // Taking the lock is part of the operation being mirrored.
            #[allow(clippy::mut_mutex_lock)]
            Kind::Queue(q) => {
                for i in 0..1_024u32 {
                    let mut v = Vec::with_capacity(32);
                    v.extend_from_slice(&i.to_le_bytes());
                    v.resize(30, i as u8);
                    let mut q = q.lock().unwrap_or_else(|p| p.into_inner());
                    q.push_back(v);
                    if q.len() > 64 {
                        black_box(q.pop_front());
                    }
                }
            }
            Kind::Format(text) => {
                use std::fmt::Write as _;
                text.clear();
                for i in 0..1_024u32 {
                    let t = f64::from(i) * 0.5;
                    let _ = writeln!(text, "{t:.3},{},{},{}", i * 7, i ^ 0x55, i / 3);
                }
                black_box(&text);
            }
        }
        let ns = t0.elapsed().as_nanos() as u64;
        if self.samples.len() < self.samples.capacity() {
            self.samples.push(ns);
        }
        self.recent.rotate_left(1);
        self.recent[2] = ns;
        self.last = Instant::now();
    }

    /// Median of the last three batches, ns: the host's speed right now.
    fn now_ns(&self) -> u64 {
        let mut r = self.recent;
        r.sort_unstable();
        r[1]
    }

    /// `x` as it would read on the quiet reference host, judged by the
    /// last three batches.
    pub fn normalise(&self, x: u64) -> u64 {
        (x as f64 * self.reference_ns / self.now_ns().max(1) as f64) as u64
    }

    /// Runs three fresh batches, for a one-shot timing that follows.
    pub fn refresh(&mut self) {
        for _ in 0..3 {
            self.batch();
        }
    }

    /// Median slowdown against the quiet reference host since the last
    /// call.
    pub fn take_factor(&mut self) -> f64 {
        let m = crate::sys::percentile(&mut self.samples, 0.5);
        self.samples.clear();
        m as f64 / self.reference_ns
    }
}
