//! The span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer (see `probe.rs`). Every span has a name, a start, an
//! end, its parent and the round it belongs to. They go into a buffer
//! allocated once before timing, so recording never allocates, and are
//! folded into per-layer self times and written out after the run.
//! Calls are counted per name even while recording is off, so traced
//! and untraced rounds can be compared count for count.

use std::io::Write as _;
use std::time::Instant;

/// What a span times. The order is the index into the per-name tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// `Monitor::sample`.
    Sample,
    /// `/proc/stat` and `/proc/meminfo` reads.
    System,
    /// Task listing.
    List,
    /// Per-task `schedstat` reads.
    Schedstat,
    /// Per-task `stat` reads (read and parse are one call).
    Stat,
    /// Per-task and per-process `status` reads.
    Status,
    /// One whole wire round.
    WireRound,
    /// A `NodeAgent` call.
    Agent,
    /// A `Collector` call.
    Collector,
    /// `Link::send_bytes` and `Link::tick` (which flushes sends).
    LinkSend,
    /// `Link::recv_bytes`.
    LinkRecv,
    /// Connection management: `connect`, `shutdown`, `is_connected`.
    LinkCtl,
}

/// Number of [`Name`]s.
pub const NAMES: usize = 12;

impl Name {
    /// Every name, in index order.
    pub const ALL: [Name; NAMES] = [
        Name::Sample,
        Name::System,
        Name::List,
        Name::Schedstat,
        Name::Stat,
        Name::Status,
        Name::WireRound,
        Name::Agent,
        Name::Collector,
        Name::LinkSend,
        Name::LinkRecv,
        Name::LinkCtl,
    ];

    /// The layer-qualified label written to the trace file.
    pub fn label(self) -> &'static str {
        match self {
            Name::Sample => "core.sample",
            Name::System => "procfs.system",
            Name::List => "procfs.list",
            Name::Schedstat => "procfs.schedstat",
            Name::Stat => "procfs.stat",
            Name::Status => "procfs.status",
            Name::WireRound => "wire.round",
            Name::Agent => "net.agent",
            Name::Collector => "net.collector",
            Name::LinkSend => "net.link_send",
            Name::LinkRecv => "net.link_recv",
            Name::LinkCtl => "net.link_ctl",
        }
    }

    /// True for the `ProcSource` reads.
    pub fn is_procfs(self) -> bool {
        matches!(
            self,
            Name::System | Name::List | Name::Schedstat | Name::Stat | Name::Status
        )
    }

    /// True for the `Link` calls.
    pub fn is_link(self) -> bool {
        matches!(self, Name::LinkSend | Name::LinkRecv | Name::LinkCtl)
    }
}

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are ns since the recorder was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was timed.
    pub name: Name,
    /// Index of the enclosing span in the buffer, or [`ROOT`].
    pub parent: u32,
    /// The round the span belongs to.
    pub round: u32,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// Open-span handle returned by [`Recorder::enter`].
#[derive(Debug, Clone, Copy)]
pub struct Token(u32);

const NOT_RECORDED: u32 = u32::MAX;

/// The span buffer plus per-name call and byte counters.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    stack: Vec<u32>,
    enabled: bool,
    round: u32,
    /// Calls per name, counted whether or not spans are recorded.
    pub calls: [u64; NAMES],
    /// Bytes handed to `Link::send_bytes`.
    pub link_bytes: u64,
}

impl Recorder {
    /// A recorder holding at most `capacity` spans, allocated now.
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(64),
            enabled: false,
            round: 0,
            calls: [0; NAMES],
            link_bytes: 0,
        }
    }

    /// Turns span recording on for round `round`, as long as the buffer
    /// has room for `need` more spans. Returns whether it did.
    pub fn start_round(&mut self, round: u32, need: usize) -> bool {
        self.round = round;
        self.enabled = self.spans.len() + need <= self.spans.capacity();
        self.enabled
    }

    /// Turns span recording off (calls are still counted).
    pub fn stop(&mut self) {
        self.enabled = false;
    }

    /// Share of the buffer used so far.
    pub fn fill(&self) -> f64 {
        self.spans.len() as f64 / self.spans.capacity().max(1) as f64
    }

    /// Opens a span (and counts the call).
    pub fn enter(&mut self, name: Name) -> Token {
        self.calls[name as usize] += 1;
        if !self.enabled || self.spans.len() == self.spans.capacity() {
            return Token(NOT_RECORDED);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied().unwrap_or(ROOT),
            round: self.round,
            start: self.epoch.elapsed().as_nanos() as u64,
            end: 0,
        });
        if self.stack.len() < self.stack.capacity() {
            self.stack.push(idx);
        }
        Token(idx)
    }

    /// Closes the span `t` opened.
    pub fn exit(&mut self, t: Token) {
        if t.0 == NOT_RECORDED {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        if let Some(s) = self.spans.get_mut(t.0 as usize) {
            s.end = now;
        }
        if self.stack.last() == Some(&t.0) {
            self.stack.pop();
        }
    }

    /// The recorded spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as tab-separated text: round, name, parent
    /// index, start ns, end ns, self ns.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "round\tname\tparent\tstart_ns\tend_ns\tself_ns")?;
        for (s, own) in self.spans.iter().zip(&selfs) {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.round,
                s.name.label(),
                parent,
                s.start,
                s.end,
                own
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != ROOT)
        .filter_map(|s| {
            let p = spans.get(s.parent as usize)?;
            let (a, b) = (s.start.max(p.start), s.end.min(p.end));
            (a < b).then_some((s.parent, a, b))
        })
        .collect();
    kids.sort_unstable();
    let mut out: Vec<u64> = spans
        .iter()
        .map(|s| s.end.saturating_sub(s.start))
        .collect();
    let mut i = 0;
    while i < kids.len() {
        let parent = kids[i].0;
        let (mut lo, mut hi) = (kids[i].1, kids[i].2);
        let mut covered = 0;
        while i < kids.len() && kids[i].0 == parent {
            let (a, b) = (kids[i].1, kids[i].2);
            if a > hi {
                covered += hi - lo;
                (lo, hi) = (a, b);
            } else {
                hi = hi.max(b);
            }
            i += 1;
        }
        covered += hi - lo;
        out[parent as usize] = out[parent as usize].saturating_sub(covered);
    }
    out
}

/// Per-round sums of self time by name, ns: one row per round that has
/// spans, in round order.
pub fn self_by_round(spans: &[Span]) -> Vec<(u32, [u64; NAMES])> {
    let selfs = self_times(spans);
    let mut rows: Vec<(u32, [u64; NAMES])> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        if rows.last().map(|r| r.0) != Some(s.round) {
            rows.push((s.round, [0; NAMES]));
        }
        if let Some(row) = rows.last_mut() {
            row.1[s.name as usize] += own;
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            round: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // 0: root [0,100)
        //   1: child [10,30)
        //     3: grandchild [12,20)
        //   2: child [25,60)   overlaps 1 on [25,30)
        //   4: child [90,120)  sticks out of the root; only [90,100) counts
        // 5: second root [200,210)
        let spans = [
            span(Name::Sample, ROOT, 0, 100),
            span(Name::Stat, 0, 10, 30),
            span(Name::Status, 0, 25, 60),
            span(Name::List, 1, 12, 20),
            span(Name::System, 0, 90, 120),
            span(Name::Sample, ROOT, 200, 210),
        ];
        let selfs = self_times(&spans);
        // Root: covered [10,60) + [90,100) = 60.
        assert_eq!(selfs, vec![40, 12, 35, 8, 30, 10]);
    }

    #[test]
    fn recorder_nests_counts_and_stops_at_capacity() {
        let mut r = Recorder::with_capacity(3);
        assert!(r.start_round(7, 2));
        let a = r.enter(Name::Sample);
        let b = r.enter(Name::Stat);
        r.exit(b);
        r.exit(a);
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (ROOT, 0));
        assert!(spans.iter().all(|s| s.round == 7 && s.end >= s.start));
        // One slot left: a two-span round is refused, calls still count.
        assert!(!r.start_round(8, 2));
        let c = r.enter(Name::Stat);
        r.exit(c);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.calls[Name::Stat as usize], 2);
        let rows = self_by_round(r.spans());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, 7);
    }
}
