//! Batched raw-text reads: the per-shard record arena.
//!
//! The monitor's sampling pump reads every record of its task slice
//! into one [`ReadArena`] per round — a reusable text buffer that
//! records land in back-to-back, addressed by [`ArenaSpan`]s — and
//! parses the spans afterwards with the view parsers. Compared to the
//! one-record typed `_into` reads, the arena batch:
//!
//! * performs **one `read` syscall per file** on the live backend (a
//!   `read_to_string` loop costs at least two: one for the bytes, one
//!   to observe EOF — see [`ReadArena::append_file`]);
//! * lets the simulated backend render records **directly into the
//!   arena tail**, skipping its per-read scratch round-trip;
//! * keeps the parse step out of the source entirely, so the shard can
//!   run the byte-scanning fast path over the span.
//!
//! The arena never shrinks: after the first few rounds every append
//! lands in memory the arena already owns, and `reset` is a pair of
//! length stores. One arena serves one shard — there is no sharing and
//! therefore no locking.

use crate::types::{TaskStat, TaskStatus};
use std::io::Read;

/// The half-open byte range of one record inside a [`ReadArena`].
///
/// Spans are only meaningful against the arena that produced them, and
/// only until its next [`ReadArena::reset`]; [`ReadArena::get`] returns
/// `None` (never panics) if a stale or foreign span is presented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaSpan {
    start: usize,
    end: usize,
}

impl ArenaSpan {
    /// Length of the record in bytes.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Whether the span is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Chunk granularity for [`ReadArena::append_file`]. Every `/proc`
/// record ZeroSum samples (a `stat` line, a `status` block, a
/// `schedstat` triplet) fits in one chunk on real kernels, so the
/// common case is exactly one `read` syscall.
const READ_CHUNK: usize = 4096;

/// A reusable text arena batching many raw `/proc` records.
///
/// Obtain spans via [`ProcSource::task_stat_text`] /
/// [`ProcSource::task_status_text`] (or the lower-level `append_*`
/// methods), then resolve them with [`ReadArena::get`]. Call
/// [`ReadArena::reset`] once per sampling round to recycle the memory.
///
/// [`ProcSource::task_stat_text`]: crate::source::ProcSource::task_stat_text
/// [`ProcSource::task_status_text`]: crate::source::ProcSource::task_status_text
#[derive(Debug, Default)]
pub struct ReadArena {
    /// The record storage; spans index into this.
    text: String,
    /// Byte-level I/O staging for [`ReadArena::append_file`].
    bytes: Vec<u8>,
    /// Scratch record for the default (typed-read-then-render) fallback
    /// of [`ProcSource::task_stat_text`].
    ///
    /// [`ProcSource::task_stat_text`]: crate::source::ProcSource::task_stat_text
    pub(crate) stat_scratch: TaskStat,
    /// Scratch record for the default fallback of
    /// [`ProcSource::task_status_text`].
    ///
    /// [`ProcSource::task_status_text`]: crate::source::ProcSource::task_status_text
    pub(crate) status_scratch: TaskStatus,
}

impl ReadArena {
    /// An empty arena (allocates nothing until the first append).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all spans and recycles the storage; capacity is kept.
    pub fn reset(&mut self) {
        self.text.clear();
    }

    /// Total bytes currently stored.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether the arena holds no records.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Resolves a span to its text. `None` for spans that do not lie on
    /// valid boundaries of the current contents (e.g. issued before the
    /// last [`ReadArena::reset`]).
    pub fn get(&self, span: ArenaSpan) -> Option<&str> {
        self.text.get(span.start..span.end)
    }

    /// Appends a record verbatim.
    pub fn append_str(&mut self, record: &str) -> ArenaSpan {
        let start = self.text.len();
        self.text.push_str(record);
        ArenaSpan {
            start,
            end: self.text.len(),
        }
    }

    /// Appends whatever `render` writes to the arena tail, returning its
    /// span. On `Err` the partial write is rolled back and the arena is
    /// unchanged — a failed render never leaks bytes into the batch.
    pub fn try_append_with<E>(
        &mut self,
        fill: impl FnOnce(&mut String) -> Result<(), E>,
    ) -> Result<ArenaSpan, E> {
        let start = self.text.len();
        match fill(&mut self.text) {
            Ok(()) => Ok(ArenaSpan {
                start,
                end: self.text.len(),
            }),
            Err(e) => {
                self.text.truncate(start);
                Err(e)
            }
        }
    }

    /// Reads a whole file into the arena with a single `read` syscall in
    /// the common case: the staging buffer offers [`READ_CHUNK`] bytes,
    /// and a short read from procfs means the record is complete (only a
    /// read that fills the chunk exactly forces another call). With
    /// `trim_end` the trailing whitespace/newline is dropped from the
    /// span — the shape `stat`-line consumers want.
    pub fn append_file(&mut self, path: &str, trim_end: bool) -> std::io::Result<ArenaSpan> {
        let mut f = std::fs::File::open(path)?;
        let mut filled = 0usize;
        loop {
            self.bytes.resize(filled + READ_CHUNK, 0);
            let Some(dst) = self.bytes.get_mut(filled..) else {
                break; // unreachable: resize just extended past `filled`
            };
            let n = f.read(dst)?;
            filled += n;
            if n < READ_CHUNK {
                break; // short read: procfs records are generated whole
            }
        }
        if trim_end {
            while self
                .bytes
                .get(filled.wrapping_sub(1))
                .is_some_and(|b| b.is_ascii_whitespace())
                && filled > 0
            {
                filled -= 1;
            }
        }
        let record = self.bytes.get(..filled).unwrap_or(&[]);
        let record = std::str::from_utf8(record).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{path}: {e}"))
        })?;
        let start = self.text.len();
        self.text.push_str(record);
        Ok(ArenaSpan {
            start,
            end: self.text.len(),
        })
    }

    /// Renders the internal stat scratch to the arena tail (the typed
    /// fallback path of `task_stat_text`).
    pub(crate) fn render_stat_scratch(&mut self) -> ArenaSpan {
        let start = self.text.len();
        crate::format::write_task_stat(&self.stat_scratch, &mut self.text);
        ArenaSpan {
            start,
            end: self.text.len(),
        }
    }

    /// Renders the internal status scratch to the arena tail (the typed
    /// fallback path of `task_status_text`).
    pub(crate) fn render_status_scratch(&mut self) -> ArenaSpan {
        let start = self.text.len();
        crate::format::write_task_status(&self.status_scratch, &mut self.text);
        ArenaSpan {
            start,
            end: self.text.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_address_their_records() {
        let mut a = ReadArena::new();
        let s1 = a.append_str("first");
        let s2 = a.append_str("second record");
        assert_eq!(a.get(s1), Some("first"));
        assert_eq!(a.get(s2), Some("second record"));
        assert_eq!(s2.len(), 13);
        assert!(!s2.is_empty());
        let stale = s2;
        a.reset();
        assert!(a.is_empty());
        assert_eq!(a.get(stale), None, "stale span resolves to None");
    }

    #[test]
    fn reset_keeps_capacity() {
        let mut a = ReadArena::new();
        a.append_str(&"x".repeat(1000));
        let cap = a.text.capacity();
        a.reset();
        a.append_str("y");
        assert_eq!(a.text.capacity(), cap);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn failed_render_rolls_back() {
        let mut a = ReadArena::new();
        a.append_str("keep");
        let r: Result<ArenaSpan, &str> = a.try_append_with(|t| {
            t.push_str("partial garbage");
            Err("render failed")
        });
        assert_eq!(r, Err("render failed"));
        assert_eq!(a.len(), 4, "partial write rolled back");
        let ok = a.try_append_with::<()>(|t| {
            t.push_str("good");
            Ok(())
        });
        assert_eq!(a.get(ok.unwrap()), Some("good"));
    }

    #[test]
    fn append_file_reads_and_trims() {
        let dir = std::env::temp_dir().join(format!("zs-arena-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("stat");
        std::fs::write(&p, "1 (x) R 0 0\n").unwrap();
        let mut a = ReadArena::new();
        let trimmed = a.append_file(p.to_str().unwrap(), true).unwrap();
        assert_eq!(a.get(trimmed), Some("1 (x) R 0 0"));
        let raw = a.append_file(p.to_str().unwrap(), false).unwrap();
        assert_eq!(a.get(raw), Some("1 (x) R 0 0\n"));
        // Larger than one chunk: the multi-read path still returns
        // everything.
        let big = "z".repeat(3 * super::READ_CHUNK + 17);
        std::fs::write(&p, &big).unwrap();
        let span = a.append_file(p.to_str().unwrap(), false).unwrap();
        assert_eq!(a.get(span), Some(big.as_str()));
        assert!(a.append_file("/definitely/not/here", false).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
