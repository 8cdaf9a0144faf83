//! Measurement primitives: the driving thread's CPU clock, its I/O
//! counters, peak RSS, percentiles and the seeded input generator.

use std::fs::File;
use std::os::unix::fs::FileExt as _;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed by the calling thread, ns.
///
/// `/proc/thread-self/schedstat` is stale by up to a scheduler tick for
/// the thread reading it, so one round's CPU time cannot come from it;
/// the thread CPU clock is brought up to date by the kernel on every
/// read.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on x86_64 and aarch64 Linux, matching `Timespec`) through
    // a pointer to a live, exclusively borrowed local.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_THREAD_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The calling thread's `/proc/thread-self/io`, kept open and re-read
/// with one `pread` at offset 0, so each snapshot costs exactly one
/// read syscall (subtracted by [`ThreadIo::calibrate`]).
pub struct ThreadIo {
    file: File,
    buf: [u8; 512],
    /// `(syscr, rchar)` that one snapshot adds to the next one.
    offset: (u64, u64),
}

impl ThreadIo {
    /// Opens the counters of the calling thread; they must be read from
    /// that thread only.
    pub fn open() -> std::io::Result<ThreadIo> {
        let mut io = ThreadIo {
            file: File::open("/proc/thread-self/io")?,
            buf: [0; 512],
            offset: (0, 0),
        };
        io.calibrate()?;
        Ok(io)
    }

    /// Measures what one snapshot adds to the counters.
    fn calibrate(&mut self) -> std::io::Result<()> {
        let a = self.raw()?;
        let b = self.raw()?;
        self.offset = (b.0 - a.0, b.1 - a.1);
        Ok(())
    }

    fn raw(&mut self) -> std::io::Result<(u64, u64)> {
        let n = self.file.read_at(&mut self.buf, 0)?;
        let text = std::str::from_utf8(&self.buf[..n]).unwrap_or("");
        let field = |key: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().parse::<u64>().ok())
                .unwrap_or(0)
        };
        Ok((field("syscr:"), field("rchar:")))
    }

    /// `(read syscalls, bytes read)` so far.
    pub fn snapshot(&mut self) -> (u64, u64) {
        self.raw().unwrap_or((0, 0))
    }

    /// The work done between two snapshots, with the snapshot's own
    /// read removed.
    pub fn delta(&self, a: (u64, u64), b: (u64, u64)) -> (u64, u64) {
        (
            (b.0 - a.0).saturating_sub(self.offset.0),
            (b.1 - a.1).saturating_sub(self.offset.1),
        )
    }
}

/// A `KiB` field of `/proc/self/status` (e.g. `VmHWM`).
pub fn status_kib(key: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Nearest-rank percentile of `xs` (`q` in 0..=1); sorts in place.
pub fn percentile(xs: &mut [u64], q: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Median of `xs` (sorts in place); the mean of the middle pair for an
/// even count.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// SplitMix64: the seeded generator every workload input comes from.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut xs: Vec<u64> = (1..=10).rev().collect();
        assert_eq!(percentile(&mut xs, 0.5), 5);
        assert_eq!(percentile(&mut xs, 0.9), 9);
        assert_eq!(percentile(&mut xs, 1.0), 10);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn thread_io_snapshots_cancel_out() {
        let mut io = ThreadIo::open().unwrap();
        let a = io.snapshot();
        let b = io.snapshot();
        // Syscalls cancel exactly; bytes may drift by a few as the
        // counters in the file gain digits.
        let (reads, bytes) = io.delta(a, b);
        assert_eq!(reads, 0);
        assert!(bytes < 8);
        let a = io.snapshot();
        std::fs::read("/proc/self/stat").unwrap();
        let b = io.snapshot();
        let (reads, bytes) = io.delta(a, b);
        assert!(reads >= 1 && bytes > 0);
    }
}
