//! Parsers for the `/proc` text formats.
//!
//! These accept the exact formats the Linux kernel emits (`man 5 proc`),
//! including the awkward parenthesized-`comm` field of `stat` — a thread
//! name may itself contain spaces and parentheses, so the parser scans for
//! the *last* closing parenthesis, as every robust procfs consumer must.

use crate::types::{CpuTimes, MemInfo, SystemStat, TaskStat, TaskState, TaskStatus};
use std::fmt;

/// Error produced when a `/proc` record cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Which file/record kind failed.
    pub what: &'static str,
    /// Description of the failure.
    pub detail: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "failed to parse {}: {}", self.what, self.detail)
    }
}

impl std::error::Error for ParseError {}

fn err(what: &'static str, detail: impl Into<String>) -> ParseError {
    ParseError {
        what,
        detail: detail.into(),
    }
}

/// Parses the full text of `/proc/stat`.
pub fn parse_system_stat(text: &str) -> Result<SystemStat, ParseError> {
    let mut out = SystemStat::default();
    parse_system_stat_into(text, &mut out)?;
    Ok(out)
}

/// Parses `/proc/stat` into an existing record, reusing its per-CPU
/// vector (the sampling hot path re-reads this every period; on a
/// many-core node the row vector is the dominant allocation). On error
/// the contents of `out` are unspecified.
pub fn parse_system_stat_into(text: &str, out: &mut SystemStat) -> Result<(), ParseError> {
    out.cpus.clear();
    out.total = CpuTimes::default();
    out.ctxt = 0;
    out.processes = 0;
    let mut saw_total = false;
    for line in text.lines() {
        let mut it = line.split_ascii_whitespace();
        let Some(key) = it.next() else { continue };
        if key == "cpu" {
            out.total = parse_cpu_times(&mut it)?;
            saw_total = true;
        } else if let Some(idx) = key.strip_prefix("cpu") {
            let idx: u32 = idx
                .parse()
                .map_err(|_| err("/proc/stat", format!("bad cpu row {key:?}")))?;
            out.cpus.push((idx, parse_cpu_times(&mut it)?));
        } else if key == "ctxt" {
            out.ctxt = next_u64(&mut it, "/proc/stat ctxt")?;
        } else if key == "processes" {
            out.processes = next_u64(&mut it, "/proc/stat processes")?;
        }
    }
    if !saw_total {
        return Err(err("/proc/stat", "missing aggregate cpu row"));
    }
    out.cpus.sort_by_key(|(i, _)| *i);
    Ok(())
}

fn next_u64<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    what: &'static str,
) -> Result<u64, ParseError> {
    it.next()
        .ok_or_else(|| err(what, "missing field"))?
        .parse()
        .map_err(|_| err(what, "non-numeric field"))
}

fn parse_cpu_times<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<CpuTimes, ParseError> {
    let mut vals = [0u64; 8];
    for (i, v) in vals.iter_mut().enumerate() {
        // Kernels may omit trailing fields (steal etc.); treat as zero.
        match it.next() {
            Some(tok) => {
                *v = tok
                    .parse()
                    .map_err(|_| err("/proc/stat", format!("bad jiffy field {i}")))?
            }
            None if i >= 4 => break,
            None => return Err(err("/proc/stat", "cpu row too short")),
        }
    }
    Ok(CpuTimes {
        user: vals[0],
        nice: vals[1],
        system: vals[2],
        idle: vals[3],
        iowait: vals[4],
        irq: vals[5],
        softirq: vals[6],
        steal: vals[7],
    })
}

/// Parses `/proc/meminfo`.
pub fn parse_meminfo(text: &str) -> Result<MemInfo, ParseError> {
    let mut m = MemInfo::default();
    let mut saw_total = false;
    for line in text.lines() {
        let Some((key, rest)) = line.split_once(':') else {
            continue;
        };
        let value: u64 = rest
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .unwrap_or(0);
        match key.trim() {
            "MemTotal" => {
                m.mem_total_kib = value;
                saw_total = true;
            }
            "MemFree" => m.mem_free_kib = value,
            "MemAvailable" => m.mem_available_kib = value,
            "Buffers" => m.buffers_kib = value,
            "Cached" => m.cached_kib = value,
            "SwapTotal" => m.swap_total_kib = value,
            "SwapFree" => m.swap_free_kib = value,
            _ => {}
        }
    }
    if !saw_total {
        return Err(err("/proc/meminfo", "missing MemTotal"));
    }
    Ok(m)
}

/// A borrowed view of one `/proc/<pid>/task/<tid>/stat` line: the same
/// fields as [`TaskStat`], with `comm` borrowing from the input text.
///
/// Produced by [`parse_task_stat_view`], this is the zero-allocation
/// form the sampling hot path uses; [`TaskStatView::to_owned`] and
/// [`TaskStatView::assign_to`] convert to the owning record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskStatView<'a> {
    /// Thread id.
    pub tid: u32,
    /// Executable / thread name, borrowed from the line.
    pub comm: &'a str,
    /// Scheduler state.
    pub state: TaskState,
    /// Minor page faults.
    pub minflt: u64,
    /// Major page faults.
    pub majflt: u64,
    /// User-mode jiffies.
    pub utime: u64,
    /// Kernel-mode jiffies.
    pub stime: u64,
    /// Nice value.
    pub nice: i32,
    /// Threads in the owning process.
    pub num_threads: u32,
    /// CPU last executed on (field 39).
    pub processor: u32,
    /// Pages swapped (field 36).
    pub nswap: u64,
    /// Start time after boot in clock ticks (field 22) — the PID-reuse
    /// discriminator.
    pub starttime: u64,
}

impl TaskStatView<'_> {
    /// Copies the view into a fresh owning [`TaskStat`].
    pub fn to_owned(&self) -> TaskStat {
        let mut out = TaskStat::default();
        self.assign_to(&mut out);
        out
    }

    /// Copies the view into an existing [`TaskStat`], reusing its `comm`
    /// buffer.
    pub fn assign_to(&self, out: &mut TaskStat) {
        out.tid = self.tid;
        out.comm.clear();
        out.comm.push_str(self.comm);
        out.state = self.state;
        out.minflt = self.minflt;
        out.majflt = self.majflt;
        out.utime = self.utime;
        out.stime = self.stime;
        out.nice = self.nice;
        out.num_threads = self.num_threads;
        out.processor = self.processor;
        out.nswap = self.nswap;
        out.starttime = self.starttime;
    }
}

/// Parses one `/proc/<pid>/task/<tid>/stat` line without allocating: the
/// returned view borrows `comm` from the input. Single pass over the
/// post-comm fields — no token vector is collected. Slices of the line
/// are bounds-checked (`get`); the only index sites address the fixed
/// picked-field array.
pub fn parse_task_stat_view(line: &str) -> Result<TaskStatView<'_>, ParseError> {
    // Format: "tid (comm) S field4 field5 ..." where comm may contain
    // anything including ')' — find the *last* ')'.
    let open = line
        .find('(')
        .ok_or_else(|| err("task stat", "missing '('"))?;
    let close = line
        .rfind(')')
        .ok_or_else(|| err("task stat", "missing ')'"))?;
    if close < open {
        return Err(err("task stat", "mismatched parentheses"));
    }
    // `(`/`)` are ASCII, so both indices are char boundaries.
    let tid: u32 = line
        .get(..open)
        .unwrap_or("")
        .trim()
        .parse()
        .map_err(|_| err("task stat", "bad tid"))?;
    let comm = line.get(open + 1..close).unwrap_or("");
    // Walk fields 3.. once, picking out the ones ZeroSum samples
    // (numbering per man 5 proc; the last one needed is 39).
    let mut state = None;
    let mut nice: i32 = 0;
    let mut picked = [0u64; 9];
    const FIELDS: [usize; 9] = [10, 12, 14, 15, 19, 20, 22, 36, 39];
    let mut it = line.get(close + 1..).unwrap_or("").split_ascii_whitespace();
    let mut field = 2usize;
    while field < 39 {
        field += 1;
        let tok = match it.next() {
            Some(t) => t,
            // Report the first *sampled* field that is missing, like the
            // indexed accessor this replaces.
            None => {
                let missing = if field <= 3 {
                    3
                } else {
                    *FIELDS.iter().find(|&&f| f >= field).unwrap_or(&39)
                };
                return Err(err("task stat", format!("missing field {missing}")));
            }
        };
        if field == 3 {
            let state_ch = tok
                .chars()
                .next()
                .ok_or_else(|| err("task stat", "empty state"))?;
            state = Some(
                TaskState::from_code(state_ch)
                    .ok_or_else(|| err("task stat", format!("unknown state {state_ch:?}")))?,
            );
        } else if field == 19 {
            // nice is the one signed field.
            nice = tok.parse().map_err(|_| err("task stat", "bad nice"))?;
        } else if let Some(slot) = FIELDS.iter().position(|&f| f == field) {
            picked[slot] = tok
                .parse()
                .map_err(|_| err("task stat", format!("bad numeric field {field}")))?;
        }
    }
    Ok(TaskStatView {
        tid,
        comm,
        state: state.ok_or_else(|| err("task stat", "empty state"))?,
        minflt: picked[0],
        majflt: picked[1],
        utime: picked[2],
        stime: picked[3],
        nice,
        num_threads: picked[5] as u32,
        starttime: picked[6],
        processor: picked[8] as u32,
        nswap: picked[7],
    })
}

/// Parses one `/proc/<pid>/task/<tid>/stat` line.
pub fn parse_task_stat(line: &str) -> Result<TaskStat, ParseError> {
    parse_task_stat_view(line).map(|v| v.to_owned())
}

/// Fast path for [`parse_task_stat_view`]: the sampling pump's parser.
///
/// Same contract, same results — `fast(line) == view(line)` for every
/// input, including the exact error text (the view-vs-owning
/// differential test and a seeded fuzz differential enforce it). Lines
/// in the single-space layout the kernel (and the simulator's
/// renderer) actually emit take a byte walk that skips the ~28
/// unsampled fields unparsed; any deviation — tabs, doubled spaces,
/// control bytes, short lines, unparsable sampled fields — is handed
/// to the reference parser, which owns the exact error semantics.
pub fn parse_task_stat_view_fast(line: &str) -> Result<TaskStatView<'_>, ParseError> {
    match stat_view_single_space(line) {
        Some(v) => Ok(v),
        None => parse_task_stat_view(line),
    }
}

/// Single-space happy path for [`parse_task_stat_view_fast`]: walks
/// the post-`comm` tail assuming every field is separated by exactly
/// one `' '` (the layout `/proc` emits), with a two-compare inner
/// byte loop instead of the five-way ASCII-whitespace class test.
/// Returns `None` — never a wrong or partial result — on any input
/// the assumption does not hold for, handing the line to the reference
/// parser unchanged.
fn stat_view_single_space(line: &str) -> Option<TaskStatView<'_>> {
    let bytes = line.as_bytes();
    // memchr-backed scans, as in the reference parser: a byte-wise
    // `rposition` walks the whole tail back to the `)`.
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    // `ascii_u64` accepts a strict subset of `u32::from_str` after an
    // ASCII-only trim; anything it rejects (Unicode whitespace, signs,
    // overflow) bails to the reference parser for the exact error.
    let tid_tok = ascii_trim(bytes.get(..open)?);
    let tid = ascii_u64(tid_tok).and_then(|v| u32::try_from(v).ok())?;
    // `(`/`)` are ASCII, so both indices are char boundaries.
    let comm = line.get(open + 1..close)?;
    let rest = bytes.get(close + 1..)?;

    let mut state = None;
    let mut nice = 0i32;
    let mut minflt = 0u64;
    let mut majflt = 0u64;
    let mut utime = 0u64;
    let mut stime = 0u64;
    let mut num_threads = 0u64;
    let mut starttime = 0u64;
    let mut nswap = 0u64;
    let mut processor = 0u64;
    let mut i = 0usize;
    for field in 3..=39usize {
        // Exactly one space before every field.
        if rest.get(i) != Some(&b' ') {
            return None;
        }
        i += 1;
        let start = i;
        // Token bytes are everything above `' '`; a doubled space, an
        // embedded control byte, or (before field 39) a premature end
        // of line all bail out. Field 39 may instead be terminated by
        // any ASCII whitespace or the end of the line, exactly like
        // the whitespace-class tokenizer.
        while let Some(&c) = rest.get(i) {
            if c == b' ' {
                break;
            }
            if c < b' ' {
                if field == 39 && matches!(c, b'\t' | b'\n' | b'\x0C' | b'\r') {
                    break;
                }
                return None;
            }
            i += 1;
        }
        if i == start {
            return None;
        }
        let tok = rest.get(start..i)?;
        match field {
            3 => {
                // A byte split of valid UTF-8 on ASCII whitespace
                // yields valid UTF-8 fragments.
                let c = std::str::from_utf8(tok)
                    .ok()
                    .and_then(|s| s.chars().next())?;
                state = Some(TaskState::from_code(c)?);
            }
            19 => nice = ascii_i32(tok)?,
            10 | 12 | 14 | 15 | 20 | 22 | 36 | 39 => {
                let v = ascii_u64(tok)?;
                match field {
                    10 => minflt = v,
                    12 => majflt = v,
                    14 => utime = v,
                    15 => stime = v,
                    20 => num_threads = v,
                    22 => starttime = v,
                    36 => nswap = v,
                    _ => processor = v,
                }
            }
            _ => {}
        }
    }
    Some(TaskStatView {
        tid,
        comm,
        state: state?,
        minflt,
        majflt,
        utime,
        stime,
        nice,
        num_threads: num_threads as u32,
        starttime,
        processor: processor as u32,
        nswap,
    })
}

/// Unsigned ASCII decimal with `u64::from_str` semantics: optional
/// leading `+`, one or more digits, checked overflow.
fn ascii_u64(tok: &[u8]) -> Option<u64> {
    let digits = match tok.split_first() {
        Some((&b'+', rest)) => rest,
        _ => tok,
    };
    if digits.is_empty() {
        return None;
    }
    let mut v: u64 = 0;
    for &c in digits {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(u64::from(d))?;
    }
    Some(v)
}

/// Signed ASCII decimal with `i32::from_str` semantics: optional
/// `+`/`-`, one or more digits, checked overflow (accumulating toward
/// `i32::MIN` for negatives so the full range round-trips).
fn ascii_i32(tok: &[u8]) -> Option<i32> {
    let (neg, digits) = match tok.split_first() {
        Some((&b'+', rest)) => (false, rest),
        Some((&b'-', rest)) => (true, rest),
        _ => (false, tok),
    };
    if digits.is_empty() {
        return None;
    }
    let mut v: i32 = 0;
    for &c in digits {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v.checked_mul(10)?;
        v = if neg {
            v.checked_sub(i32::from(d))?
        } else {
            v.checked_add(i32::from(d))?
        };
    }
    Some(v)
}

/// Parses a `stat` line into an existing record, reusing its `comm`
/// buffer. On error the contents of `out` are unspecified.
pub fn parse_task_stat_into(line: &str, out: &mut TaskStat) -> Result<(), ParseError> {
    let view = parse_task_stat_view(line)?;
    view.assign_to(out);
    Ok(())
}

/// Parses `/proc/<pid>/task/<tid>/schedstat` (three space-separated
/// integers).
pub fn parse_schedstat(text: &str) -> Result<crate::types::SchedStat, ParseError> {
    // Byte fast path: schedstat is read once per task per round, and
    // the well-formed case (three decimal tokens) never needs the
    // iterator/`FromStr` machinery. Any deviation falls back to the
    // reference path below, which owns the exact error messages.
    if let Some(ss) = parse_schedstat_bytes(text.as_bytes()) {
        return Ok(ss);
    }
    let mut it = text.split_ascii_whitespace();
    let mut next = |what: &'static str| -> Result<u64, ParseError> {
        it.next()
            .ok_or_else(|| err("schedstat", format!("missing {what}")))?
            .parse()
            .map_err(|_| err("schedstat", format!("bad {what}")))
    };
    Ok(crate::types::SchedStat {
        run_ns: next("run_ns")?,
        wait_ns: next("wait_ns")?,
        timeslices: next("timeslices")?,
    })
}

/// The schedstat happy path: the first three ASCII-whitespace-separated
/// tokens as `u64`s (trailing tokens ignored, exactly like the
/// reference path's three `next()` calls). `None` on anything else —
/// including overflow — so the reference path can produce its error.
fn parse_schedstat_bytes(b: &[u8]) -> Option<crate::types::SchedStat> {
    let mut it = b
        .split(|c: &u8| c.is_ascii_whitespace())
        .filter(|tok| !tok.is_empty());
    let ss = crate::types::SchedStat {
        run_ns: ascii_u64(it.next()?)?,
        wait_ns: ascii_u64(it.next()?)?,
        timeslices: ascii_u64(it.next()?)?,
    };
    Some(ss)
}

/// Parses `/proc/<pid>/task/<tid>/status`.
pub fn parse_task_status(text: &str) -> Result<TaskStatus, ParseError> {
    let mut out = TaskStatus::default();
    parse_task_status_into(text, &mut out)?;
    Ok(out)
}

/// Parses a `status` record into an existing one, reusing its name
/// buffer and affinity-mask allocation. On error the contents of `out`
/// are unspecified.
pub fn parse_task_status_into(text: &str, out: &mut TaskStatus) -> Result<(), ParseError> {
    out.name.clear();
    out.state = TaskState::Sleeping;
    out.vm_rss_kib = 0;
    out.vm_size_kib = 0;
    out.vm_hwm_kib = 0;
    out.cpus_allowed.clear_all();
    out.voluntary_ctxt_switches = 0;
    out.nonvoluntary_ctxt_switches = 0;
    let mut tid = None;
    let mut tgid = None;
    for line in text.lines() {
        let Some((key, rest)) = line.split_once(':') else {
            continue;
        };
        let rest = rest.trim();
        match key.trim() {
            "Name" => {
                out.name.clear();
                out.name.push_str(rest);
            }
            "Pid" => tid = rest.parse().ok(),
            "Tgid" => tgid = rest.parse().ok(),
            "State" => {
                if let Some(c) = rest.chars().next() {
                    out.state = TaskState::from_code(c)
                        .ok_or_else(|| err("task status", format!("unknown state {c:?}")))?;
                }
            }
            "VmRSS" => out.vm_rss_kib = kib_value(rest),
            "VmSize" => out.vm_size_kib = kib_value(rest),
            "VmHWM" => out.vm_hwm_kib = kib_value(rest),
            "Cpus_allowed_list" => {
                out.cpus_allowed
                    .parse_list_into(rest)
                    .map_err(|e| err("task status", format!("bad cpu list: {e}")))?;
            }
            "voluntary_ctxt_switches" => out.voluntary_ctxt_switches = rest.parse().unwrap_or(0),
            "nonvoluntary_ctxt_switches" => {
                out.nonvoluntary_ctxt_switches = rest.parse().unwrap_or(0)
            }
            _ => {}
        }
    }
    out.tid = tid.ok_or_else(|| err("task status", "missing Pid"))?;
    out.tgid = tgid.ok_or_else(|| err("task status", "missing Tgid"))?;
    Ok(())
}

fn kib_value(rest: &str) -> u64 {
    rest.trim_end_matches("kB").trim().parse().unwrap_or(0)
}

/// Byte-scanning fast path for [`parse_task_status_into`]: the sharded
/// sampling pump's status parser.
///
/// Same contract, same results, same error text — enforced by a
/// fixture differential and a seeded fuzz differential. Non-ASCII
/// input falls back to the reference parser wholesale (for pure-ASCII
/// text, `str::trim` and ASCII-whitespace trimming agree exactly, so
/// every byte-level shortcut below is semantics-preserving; with
/// non-ASCII bytes it would not be, and real `/proc` status files are
/// ASCII outside `Name`, which the fallback still handles).
///
/// Every byte access is bounds-checked (`get`) and token scans use
/// slice-iterator `position`, so the fast path adds no
/// panic-reachable sites to the sampling supervisor's frontier.
pub fn parse_task_status_fast(text: &str, out: &mut TaskStatus) -> Result<(), ParseError> {
    if !text.is_ascii() {
        return parse_task_status_into(text, out);
    }
    // Tier 1: the fixed line order the renderer (and Linux, for these
    // ten keys relative to each other) emits. Any other shape —
    // reordered, repeated, missing, or extra lines, space-padded
    // keys, unparsable values — falls through to the per-line scan
    // below, which re-initializes `out` and owns the reference
    // semantics including error text.
    if status_fixed_layout(text.as_bytes(), out).is_some() {
        return Ok(());
    }
    out.name.clear();
    out.state = TaskState::Sleeping;
    out.vm_rss_kib = 0;
    out.vm_size_kib = 0;
    out.vm_hwm_kib = 0;
    out.cpus_allowed.clear_all();
    out.voluntary_ctxt_switches = 0;
    out.nonvoluntary_ctxt_switches = 0;
    let mut tid = None;
    let mut tgid = None;
    // `str::lines` splits on `\n` and strips one trailing `\r`; a bare
    // byte split leaves the `\r` in place, where the value-side trim
    // removes it (it is ASCII whitespace) and a key-side `\r` means the
    // line had no `:`, which both parsers skip.
    for line in text.as_bytes().split(|&b| b == b'\n') {
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            continue;
        };
        let key = ascii_trim(line.get(..colon).unwrap_or(&[]));
        let rest = ascii_trim(line.get(colon + 1..).unwrap_or(&[]));
        match key {
            b"Name" => {
                out.name.clear();
                out.name.push_str(std::str::from_utf8(rest).unwrap_or(""));
            }
            b"Pid" => tid = ascii_u64(rest).and_then(|v| u32::try_from(v).ok()),
            b"Tgid" => tgid = ascii_u64(rest).and_then(|v| u32::try_from(v).ok()),
            b"State" => {
                if let Some(&c) = rest.first() {
                    out.state = TaskState::from_code(c as char).ok_or_else(|| {
                        err("task status", format!("unknown state {:?}", c as char))
                    })?;
                }
            }
            b"VmRSS" => out.vm_rss_kib = kib_value_bytes(rest),
            b"VmSize" => out.vm_size_kib = kib_value_bytes(rest),
            b"VmHWM" => out.vm_hwm_kib = kib_value_bytes(rest),
            b"Cpus_allowed_list" => {
                out.cpus_allowed
                    .parse_list_into(std::str::from_utf8(rest).unwrap_or(""))
                    .map_err(|e| err("task status", format!("bad cpu list: {e}")))?;
            }
            b"voluntary_ctxt_switches" => {
                out.voluntary_ctxt_switches = ascii_u64(rest).unwrap_or(0)
            }
            b"nonvoluntary_ctxt_switches" => {
                out.nonvoluntary_ctxt_switches = ascii_u64(rest).unwrap_or(0)
            }
            _ => {}
        }
    }
    out.tid = tid.ok_or_else(|| err("task status", "missing Pid"))?;
    out.tgid = tgid.ok_or_else(|| err("task status", "missing Tgid"))?;
    Ok(())
}

/// The ten status keys [`status_fixed_layout`] expects, in the order
/// `write_task_status` renders them.
const STATUS_KEYS: [&[u8]; 10] = [
    b"Name:",
    b"State:",
    b"Tgid:",
    b"Pid:",
    b"VmSize:",
    b"VmHWM:",
    b"VmRSS:",
    b"Cpus_allowed_list:",
    b"voluntary_ctxt_switches:",
    b"nonvoluntary_ctxt_switches:",
];

/// Fixed-layout happy path for [`parse_task_status_fast`]: one
/// prefix compare per line instead of a colon scan, a key trim, and a
/// ten-way key match. Returns `None` — never a wrong or partial
/// result — whenever the text is not exactly the ten known lines in
/// renderer order (trailing whitespace aside); `out` may then hold
/// partial values, which the general scan re-initializes wholesale.
fn status_fixed_layout(b: &[u8], out: &mut TaskStatus) -> Option<()> {
    let mut tid = 0u32;
    let mut tgid = 0u32;
    let mut line_start = 0usize;
    for (idx, key) in STATUS_KEYS.iter().enumerate() {
        let line = b.get(line_start..)?;
        if !line.starts_with(key) {
            return None;
        }
        let after = line_start + key.len();
        let line_end = match b.get(after..)?.iter().position(|&c| c == b'\n') {
            Some(p) => after + p,
            None => b.len(),
        };
        let v = ascii_trim(b.get(after..line_end)?);
        match idx {
            0 => {
                out.name.clear();
                out.name.push_str(std::str::from_utf8(v).unwrap_or(""));
            }
            1 => {
                out.state = TaskState::Sleeping;
                if let Some(&c) = v.first() {
                    out.state = TaskState::from_code(c as char)?;
                }
            }
            2 => tgid = ascii_u64(v).and_then(|x| u32::try_from(x).ok())?,
            3 => tid = ascii_u64(v).and_then(|x| u32::try_from(x).ok())?,
            4 => out.vm_size_kib = kib_value_bytes(v),
            5 => out.vm_hwm_kib = kib_value_bytes(v),
            6 => out.vm_rss_kib = kib_value_bytes(v),
            7 => {
                out.cpus_allowed
                    .parse_list_into(std::str::from_utf8(v).unwrap_or(""))
                    .ok()?;
            }
            8 => out.voluntary_ctxt_switches = ascii_u64(v).unwrap_or(0),
            _ => out.nonvoluntary_ctxt_switches = ascii_u64(v).unwrap_or(0),
        }
        line_start = line_end + 1;
    }
    // Anything beyond the tenth line other than whitespace (an extra
    // key, a duplicate) must take the general scan.
    if let Some(tail) = b.get(line_start..) {
        if tail.iter().any(|&c| !c.is_ascii_whitespace()) {
            return None;
        }
    }
    out.tid = tid;
    out.tgid = tgid;
    Some(())
}

/// Byte twin of [`kib_value`]: strips every trailing `kB` repetition
/// (`trim_end_matches` semantics), ASCII-trims, then parses with
/// `u64::from_str` acceptance; anything else is 0.
fn kib_value_bytes(rest: &[u8]) -> u64 {
    let mut v = rest;
    while let Some(stripped) = v.strip_suffix(b"kB") {
        v = stripped;
    }
    ascii_u64(ascii_trim(v)).unwrap_or(0)
}

/// `str::trim` for byte slices known to be ASCII (where the ASCII and
/// Unicode whitespace sets coincide).
fn ascii_trim(b: &[u8]) -> &[u8] {
    let start = b
        .iter()
        .position(|c| !c.is_ascii_whitespace())
        .unwrap_or(b.len());
    let end = b
        .iter()
        .rposition(|c| !c.is_ascii_whitespace())
        .map_or(start, |e| e + 1);
    b.get(start..end).unwrap_or(&[])
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "\
cpu  100 2 50 840 5 1 2 0 0 0
cpu0 60 1 30 400 3 1 1 0 0 0
cpu1 40 1 20 440 2 0 1 0 0 0
intr 12345 0 0
ctxt 987654
btime 1700000000
processes 4242
procs_running 2
procs_blocked 0
";

    #[test]
    fn system_stat_parses() {
        let s = parse_system_stat(STAT).unwrap();
        assert_eq!(s.total.user, 100);
        assert_eq!(s.cpus.len(), 2);
        assert_eq!(s.cpus[1].0, 1);
        assert_eq!(s.cpus[1].1.idle, 440);
        assert_eq!(s.ctxt, 987654);
        assert_eq!(s.processes, 4242);
    }

    #[test]
    fn system_stat_requires_total_row() {
        assert!(parse_system_stat("cpu0 1 2 3 4\n").is_err());
    }

    #[test]
    fn system_stat_short_rows_ok() {
        // Ancient kernels emit only 4 fields.
        let s = parse_system_stat("cpu 1 2 3 4\ncpu0 1 2 3 4\n").unwrap();
        assert_eq!(s.total.idle, 4);
        assert_eq!(s.total.iowait, 0);
    }

    #[test]
    fn meminfo_parses() {
        let text = "\
MemTotal:       527942792 kB
MemFree:        480000000 kB
MemAvailable:   500000000 kB
Buffers:          100000 kB
Cached:          5000000 kB
SwapCached:            0 kB
SwapTotal:             0 kB
SwapFree:              0 kB
";
        let m = parse_meminfo(text).unwrap();
        assert_eq!(m.mem_total_kib, 527942792);
        assert_eq!(m.mem_available_kib, 500000000);
        assert_eq!(m.used_kib(), 27942792);
    }

    #[test]
    fn meminfo_requires_total() {
        assert!(parse_meminfo("MemFree: 5 kB\n").is_err());
    }

    #[test]
    fn task_stat_parses_basic() {
        let line = "51334 (miniqmc) R 51000 51334 51334 0 -1 4194304 \
            1234 0 5 0 6394 1248 0 0 20 0 9 0 100 123456789 4321 \
            18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0";
        let t = parse_task_stat(line).unwrap();
        assert_eq!(t.tid, 51334);
        assert_eq!(t.comm, "miniqmc");
        assert_eq!(t.state, TaskState::Running);
        assert_eq!(t.minflt, 1234);
        assert_eq!(t.majflt, 5);
        assert_eq!(t.utime, 6394);
        assert_eq!(t.stime, 1248);
        assert_eq!(t.nice, 0);
        assert_eq!(t.num_threads, 9);
        assert_eq!(t.starttime, 100);
        assert_eq!(t.processor, 1);
    }

    #[test]
    fn task_stat_handles_evil_comm() {
        // comm containing spaces and a ')' — the classic procfs trap.
        let line = "7 (evil) name)) S 1 7 7 0 -1 0 \
            0 0 0 0 1 2 0 0 20 0 1 0 0 0 0 \
            18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 3 0 0 0 0 0 0 0 0 0 0 0 0 0";
        let t = parse_task_stat(line).unwrap();
        assert_eq!(t.comm, "evil) name)");
        assert_eq!(t.state, TaskState::Sleeping);
        assert_eq!(t.processor, 3);
    }

    #[test]
    fn task_stat_rejects_garbage() {
        assert!(parse_task_stat("no parens here").is_err());
        assert!(parse_task_stat("1 (x) R 1").is_err()); // too short
    }

    #[test]
    fn view_and_owning_parsers_agree_on_all_fixtures() {
        // Differential check over the golden lines, the evil-comm trap,
        // garbage, and every byte-truncation of the golden lines (torn
        // procfs reads): the borrowed-view parser, the owning parser,
        // and the buffer-reusing `_into` form must accept exactly the
        // same inputs and produce identical records.
        let basic = "51334 (miniqmc) R 51000 51334 51334 0 -1 4194304 \
            1234 0 5 0 6394 1248 0 0 20 0 9 0 100 123456789 4321 \
            18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0";
        let evil = "7 (evil) name)) S 1 7 7 0 -1 0 \
            0 0 0 0 1 2 0 0 20 0 1 0 0 0 0 \
            18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 3 0 0 0 0 0 0 0 0 0 0 0 0 0";
        let mut fixtures: Vec<String> = vec![
            basic.to_string(),
            evil.to_string(),
            "no parens here".into(),
            "1 (x) R 1".into(),
            String::new(),
            // The golden capture of a read racing task exit: zero bytes
            // (tests/fixtures/proc_pid_stat_vanished.txt). Identical to
            // the empty string above, but pinned to the on-disk fixture
            // so the capture and the differential can never drift apart.
            include_str!("../../../tests/fixtures/proc_pid_stat_vanished.txt").to_string(),
            // Single-space tier-1 deviations: each must bail to the
            // reference parser, never change the result.
            basic.replace(' ', "\t"),
            basic.replace(") R", ")  R"),
            format!("{basic}\n"),
            format!(" {basic}"),
            // Control byte inside a skipped token: the reference
            // parser keeps it in the token unparsed and accepts.
            basic.replace("51000", "51\u{1}000"),
            // Control byte inside a sampled token: both reject.
            basic.replace("123456789", "12\u{3}456789"),
        ];
        for line in [basic, evil] {
            for i in 0..line.len() {
                fixtures.push(line[..i].to_string());
            }
        }
        let soiled = || TaskStat {
            comm: "stale-garbage".into(),
            utime: u64::MAX,
            nice: -7,
            ..Default::default()
        };
        for fx in &fixtures {
            match (parse_task_stat(fx), parse_task_stat_view(fx)) {
                (Ok(owned), Ok(view)) => {
                    assert_eq!(view.to_owned(), owned, "to_owned on {fx:?}");
                    let mut assigned = soiled();
                    view.assign_to(&mut assigned);
                    assert_eq!(assigned, owned, "assign_to on {fx:?}");
                    let mut reused = soiled();
                    parse_task_stat_into(fx, &mut reused).unwrap();
                    assert_eq!(reused, owned, "parse_task_stat_into on {fx:?}");
                    assert_eq!(
                        parse_task_stat_view_fast(fx),
                        Ok(view),
                        "fast path on {fx:?}"
                    );
                }
                (Err(_), Err(view_err)) => {
                    assert!(
                        parse_task_stat_into(fx, &mut soiled()).is_err(),
                        "`_into` accepted what the owning parser rejected: {fx:?}"
                    );
                    assert_eq!(
                        parse_task_stat_view_fast(fx),
                        Err(view_err),
                        "fast path error on {fx:?}"
                    );
                }
                (owned, view) => {
                    panic!("parsers disagree on {fx:?}: owned {owned:?}, view {view:?}")
                }
            }
        }
    }

    #[test]
    fn fast_parser_matches_reference_under_seeded_fuzz() {
        // Deterministic differential fuzz of the byte-scanning fast path
        // against the reference view parser: render plausible stat
        // lines, then corrupt them (byte flips, splices, truncations,
        // sign/overflow injections) with an xorshift PRNG. Accept/reject
        // AND the exact error (`what` + `detail`) must agree on every
        // input — the fast path is only a fast path if it is the same
        // function.
        let mut rng: u64 = 0x5eed_2e05_u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let comms = ["miniqmc", "a b", "ev)il", "(((", "Ω-wave", "", ")", "x(y"];
        let glyphs: &[u8] = b" \t()+-0123456789abcR~\xc3\x89";
        for case in 0u32..4000 {
            let tid = next() % (1 << (next() % 33));
            let comm = comms[(next() % comms.len() as u64) as usize];
            let state = ['R', 'S', 'D', 'Z', 'T', 'q', 'Ω'][(next() % 7) as usize];
            let mut line = format!("{tid} ({comm}) {state} 1 2 3 4 -1 6");
            for field in 10..=(40 - next() % 6) {
                let v = next() % (1 << (next() % 40));
                if field == 19 && next() % 2 == 0 {
                    line.push_str(&format!(" -{v}"));
                } else {
                    line.push_str(&format!(" {v}"));
                }
            }
            let mut fuzzed = line.clone();
            for _ in 0..next() % 4 {
                match next() % 5 {
                    0 => {
                        // Flip one byte to a structural glyph at a char
                        // boundary (keep the fixture a valid &str).
                        let at = (next() % fuzzed.len().max(1) as u64) as usize;
                        if let Some((pos, ch)) =
                            fuzzed[at..].char_indices().next().map(|(p, c)| (at + p, c))
                        {
                            let g = glyphs[(next() % glyphs.len() as u64) as usize];
                            if g.is_ascii() {
                                fuzzed.replace_range(pos..pos + ch.len_utf8(), "");
                                fuzzed.insert(pos, g as char);
                            }
                        }
                    }
                    1 => {
                        let mut at = (next() % (fuzzed.len() + 1) as u64) as usize;
                        while !fuzzed.is_char_boundary(at) {
                            at -= 1;
                        }
                        fuzzed.truncate(at);
                    }
                    2 => fuzzed.insert_str(0, "  +"),
                    3 => fuzzed.push_str(" 99999999999999999999999999"),
                    _ => {
                        let mut at = (next() % (fuzzed.len() + 1) as u64) as usize;
                        while !fuzzed.is_char_boundary(at) {
                            at -= 1;
                        }
                        fuzzed
                            .insert_str(at, ["(", ")", " -", "+", "\u{a0}"][(next() % 5) as usize]);
                    }
                }
            }
            for fx in [&line, &fuzzed] {
                assert_eq!(
                    parse_task_stat_view_fast(fx),
                    parse_task_stat_view(fx),
                    "case {case}: fast and reference parsers disagree on {fx:?}"
                );
            }
        }
    }

    #[test]
    fn schedstat_parses() {
        let ss = parse_schedstat("123456789 42000 77\n").unwrap();
        assert_eq!(ss.run_ns, 123456789);
        assert_eq!(ss.wait_ns, 42000);
        assert_eq!(ss.timeslices, 77);
        assert!(parse_schedstat("1 2").is_err());
        assert!(parse_schedstat("a b c").is_err());
    }

    #[test]
    fn schedstat_fast_path_matches_reference_semantics() {
        // Happy paths the byte walk must take (value-identical to the
        // `split_ascii_whitespace` + `FromStr` reference).
        for (text, want) in [
            ("1 2 3", (1, 2, 3)),
            ("  7 \t 8 \n 9  ", (7, 8, 9)),
            ("+1 +2 +3", (1, 2, 3)),
            ("18446744073709551615 0 0", (u64::MAX, 0, 0)),
            ("1 2 3 4 trailing ignored", (1, 2, 3)),
            ("1 2 3 \u{3a9}", (1, 2, 3)),
        ] {
            let ss = parse_schedstat(text).unwrap();
            assert_eq!((ss.run_ns, ss.wait_ns, ss.timeslices), want, "{text:?}");
        }
        // Deviations must fall through to the reference path and keep
        // its exact error wording.
        for (text, msg) in [
            ("", "missing run_ns"),
            ("1", "missing wait_ns"),
            ("1 2", "missing timeslices"),
            ("x 2 3", "bad run_ns"),
            ("1 x 3", "bad wait_ns"),
            ("1 2 x", "bad timeslices"),
            ("-1 2 3", "bad run_ns"),
            ("18446744073709551616 0 0", "bad run_ns"),
            ("1 2 \u{3a9}", "bad timeslices"),
        ] {
            let e = parse_schedstat(text).unwrap_err().to_string();
            assert!(e.contains(msg), "{text:?}: {e}");
        }
    }

    #[test]
    fn task_status_parses() {
        let text = "\
Name:\tminiqmc
State:\tR (running)
Tgid:\t51334
Pid:\t51384
VmSize:\t  900000 kB
VmHWM:\t  123456 kB
VmRSS:\t  120000 kB
Cpus_allowed:\tfe
Cpus_allowed_list:\t1-7
voluntary_ctxt_switches:\t365742
nonvoluntary_ctxt_switches:\t3
";
        let s = parse_task_status(text).unwrap();
        assert_eq!(s.name, "miniqmc");
        assert_eq!(s.tid, 51384);
        assert_eq!(s.tgid, 51334);
        assert_eq!(s.state, TaskState::Running);
        assert_eq!(s.vm_rss_kib, 120000);
        assert_eq!(s.cpus_allowed.to_list_string(), "1-7");
        assert_eq!(s.voluntary_ctxt_switches, 365742);
        assert_eq!(s.nonvoluntary_ctxt_switches, 3);
    }

    #[test]
    fn task_status_missing_pid_is_error() {
        assert!(parse_task_status("Name: x\n").is_err());
    }

    /// Accept/reject, the exact error, and (on accept) every field of
    /// the resulting record must agree between the byte-scanning status
    /// fast path and the reference parser.
    fn assert_status_parsers_agree(text: &str) {
        let soiled = || TaskStatus {
            name: "stale-garbage".into(),
            tid: 77,
            tgid: 77,
            vm_rss_kib: u64::MAX,
            voluntary_ctxt_switches: 3,
            ..Default::default()
        };
        let (mut reference, mut fast) = (soiled(), soiled());
        let r = parse_task_status_into(text, &mut reference);
        let f = parse_task_status_fast(text, &mut fast);
        assert_eq!(r, f, "status parsers disagree on {text:?}");
        if r.is_ok() {
            assert_eq!(reference, fast, "status records differ on {text:?}");
        }
    }

    #[test]
    fn status_fast_path_matches_reference_on_fixtures() {
        let golden = "\
Name:\tminiqmc
State:\tR (running)
Tgid:\t51334
Pid:\t51384
VmSize:\t  900000 kB
VmHWM:\t  123456 kB
VmRSS:\t  120000 kB
Cpus_allowed:\tfe
Cpus_allowed_list:\t1-7
voluntary_ctxt_switches:\t365742
nonvoluntary_ctxt_switches:\t3
";
        let rendered = "\
Name:\tworker1
State:\tR (running)
Tgid:\t5
Pid:\t9
VmSize:\t  900000 kB
VmHWM:\t  123456 kB
VmRSS:\t  120000 kB
Cpus_allowed_list:\t1-7
voluntary_ctxt_switches:\t365742
nonvoluntary_ctxt_switches:\t3
";
        let fixtures: Vec<String> = vec![
            golden.to_string(),
            golden.replace('\n', "\r\n"),
            // Non-ASCII name takes the reference fallback wholesale.
            golden.replace("miniqmc", "Ω-wave"),
            golden.replace("R (running)", "q (?)"),
            golden.replace("R (running)", ""),
            golden.replace("1-7", "7-1"),
            golden.replace("120000 kB", "120000kBkB"),
            golden.replace("120000 kB", "+120000"),
            golden.replace("51384", "99999999999999999999"),
            golden.replace("51384", "-3"),
            golden.replace("Pid", "Pie"),
            golden.replace(":\t", " :  "),
            "no colons at all\n".into(),
            String::new(),
            // The exact ten-line renderer shape: the only input the
            // fixed-layout tier accepts end-to-end.
            rendered.to_string(),
            // And near-misses that must bail to the per-line scan
            // with identical results: shape deviations fore and aft,
            // duplicate and reordered keys, values whose errors the
            // general scan owns.
            rendered.trim_end().to_string(),
            format!("{rendered}  \n"),
            format!("{rendered}VmRSS:\t5 kB\n"),
            format!("Umask:\t0022\n{rendered}"),
            rendered.replace("Tgid:\t5\nPid:\t9", "Pid:\t9\nTgid:\t5"),
            rendered.replace("Tgid:\t5", "Tgid:\tx"),
            rendered.replace("R (running)", "q (?)"),
            rendered.replace("R (running)", ""),
            rendered.replace("1-7", "7-1"),
        ];
        for fx in &fixtures {
            assert_status_parsers_agree(fx);
        }
        for i in 0..golden.len() {
            assert_status_parsers_agree(&golden[..i]);
        }
        for i in 0..rendered.len() {
            assert_status_parsers_agree(&rendered[..i]);
        }
    }

    #[test]
    fn status_fast_path_matches_reference_under_seeded_fuzz() {
        let mut rng: u64 = 0x57a7_05f2_u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let base = "\
Name:\tworker3
State:\tS (sleeping)
Tgid:\t1000
Pid:\t1003
VmSize:\t400000 kB
VmHWM:\t220000 kB
VmRSS:\t200000 kB
Cpus_allowed_list:\t0-127
voluntary_ctxt_switches:\t300
nonvoluntary_ctxt_switches:\t9
";
        let splices = [
            ":",
            "\t",
            " kB",
            "kB",
            "+",
            "-",
            "\n",
            "Pid:\t7\n",
            "State:\tZ\n",
            "\u{a0}",
            "Ω",
            "0-9999",
            ",",
        ];
        for _ in 0u32..3000 {
            let mut fx = base.to_string();
            for _ in 0..1 + next() % 4 {
                match next() % 4 {
                    0 => {
                        let mut at = (next() % (fx.len() + 1) as u64) as usize;
                        while !fx.is_char_boundary(at) {
                            at -= 1;
                        }
                        fx.truncate(at);
                    }
                    1 => {
                        let mut at = (next() % (fx.len() + 1) as u64) as usize;
                        while !fx.is_char_boundary(at) {
                            at -= 1;
                        }
                        fx.insert_str(at, splices[(next() % splices.len() as u64) as usize]);
                    }
                    2 => {
                        let at = (next() % fx.len().max(1) as u64) as usize;
                        if let Some((pos, ch)) =
                            fx[at..].char_indices().next().map(|(p, c)| (at + p, c))
                        {
                            fx.replace_range(pos..pos + ch.len_utf8(), "");
                            let g = b" \t:+-0123456789kBR"[(next() % 18) as usize];
                            fx.insert(pos, g as char);
                        }
                    }
                    _ => {
                        let digits = format!("{}", next() % (1 << (next() % 40)));
                        fx.push_str("VmRSS:\t");
                        fx.push_str(&digits);
                        fx.push_str(" kB\n");
                    }
                }
            }
            assert_status_parsers_agree(&fx);
        }
    }
}
