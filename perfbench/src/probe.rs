//! Timing adapters: a [`ProcSource`] and a [`Link`] that time every call
//! into the wrapped layer with a span.
//!
//! Each adapter forwards *every* trait method to the same method of the
//! inner value, the defaulted ones included. A method left to its
//! default would send the monitor down the owning or render-to-text
//! path instead of the one the bare backend takes, and the traced run
//! would measure a different program.

use crate::trace::{Name, Recorder};
use std::cell::RefCell;
use std::rc::Rc;
use zerosum_net::{Link, SendStatus, TransportError};
use zerosum_proc::{
    ArenaSpan, MemInfo, Pid, ProcSource, ReadArena, SchedStat, SourceResult, SystemStat, TaskStat,
    TaskStatus, Tid,
};

/// Runs `f` inside a span named `name`.
pub fn timed<T>(rec: &RefCell<Recorder>, name: Name, f: impl FnOnce() -> T) -> T {
    let t = rec.borrow_mut().enter(name);
    let out = f();
    rec.borrow_mut().exit(t);
    out
}

/// A [`ProcSource`] timing every read of the inner source.
pub struct ProbeSource<'a, S: ProcSource> {
    inner: &'a S,
    rec: &'a RefCell<Recorder>,
}

impl<'a, S: ProcSource> ProbeSource<'a, S> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: &'a S, rec: &'a RefCell<Recorder>) -> Self {
        ProbeSource { inner, rec }
    }
}

impl<S: ProcSource> ProcSource for ProbeSource<'_, S> {
    fn system_stat(&self) -> SourceResult<SystemStat> {
        timed(self.rec, Name::System, || self.inner.system_stat())
    }
    fn meminfo(&self) -> SourceResult<MemInfo> {
        timed(self.rec, Name::System, || self.inner.meminfo())
    }
    fn list_tasks(&self, pid: Pid) -> SourceResult<Vec<Tid>> {
        timed(self.rec, Name::List, || self.inner.list_tasks(pid))
    }
    fn task_stat(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStat> {
        timed(self.rec, Name::Stat, || self.inner.task_stat(pid, tid))
    }
    fn task_status(&self, pid: Pid, tid: Tid) -> SourceResult<TaskStatus> {
        timed(self.rec, Name::Status, || self.inner.task_status(pid, tid))
    }
    fn task_schedstat(&self, pid: Pid, tid: Tid) -> SourceResult<SchedStat> {
        timed(self.rec, Name::Schedstat, || {
            self.inner.task_schedstat(pid, tid)
        })
    }
    fn process_status(&self, pid: Pid) -> SourceResult<TaskStatus> {
        timed(self.rec, Name::Status, || self.inner.process_status(pid))
    }
    fn system_stat_into(&self, out: &mut SystemStat) -> SourceResult<()> {
        timed(self.rec, Name::System, || self.inner.system_stat_into(out))
    }
    fn list_tasks_into(&self, pid: Pid, out: &mut Vec<Tid>) -> SourceResult<()> {
        timed(self.rec, Name::List, || {
            self.inner.list_tasks_into(pid, out)
        })
    }
    fn task_stat_into(&self, pid: Pid, tid: Tid, out: &mut TaskStat) -> SourceResult<()> {
        timed(self.rec, Name::Stat, || {
            self.inner.task_stat_into(pid, tid, out)
        })
    }
    fn task_status_into(&self, pid: Pid, tid: Tid, out: &mut TaskStatus) -> SourceResult<()> {
        timed(self.rec, Name::Status, || {
            self.inner.task_status_into(pid, tid, out)
        })
    }
    fn task_stat_text(&self, pid: Pid, tid: Tid, arena: &mut ReadArena) -> SourceResult<ArenaSpan> {
        timed(self.rec, Name::Stat, || {
            self.inner.task_stat_text(pid, tid, arena)
        })
    }
    fn task_status_text(
        &self,
        pid: Pid,
        tid: Tid,
        arena: &mut ReadArena,
    ) -> SourceResult<ArenaSpan> {
        timed(self.rec, Name::Status, || {
            self.inner.task_status_text(pid, tid, arena)
        })
    }
}

/// A [`Link`] timing every call into the inner link and counting the
/// bytes it is handed.
pub struct ProbeLink<L: Link> {
    inner: L,
    rec: Rc<RefCell<Recorder>>,
}

impl<L: Link> ProbeLink<L> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: L, rec: Rc<RefCell<Recorder>>) -> Self {
        ProbeLink { inner, rec }
    }
}

impl<L: Link> Link for ProbeLink<L> {
    fn send_bytes(&mut self, frame: &[u8]) -> Result<SendStatus, TransportError> {
        self.rec.borrow_mut().link_bytes += frame.len() as u64;
        timed(&self.rec, Name::LinkSend, || self.inner.send_bytes(frame))
    }
    fn recv_bytes(&mut self, buf: &mut Vec<u8>) -> Result<usize, TransportError> {
        timed(&self.rec, Name::LinkRecv, || self.inner.recv_bytes(buf))
    }
    fn tick(&mut self) {
        timed(&self.rec, Name::LinkSend, || self.inner.tick())
    }
    fn is_connected(&self) -> bool {
        timed(&self.rec, Name::LinkCtl, || self.inner.is_connected())
    }
    fn connect(&mut self) -> Result<(), TransportError> {
        timed(&self.rec, Name::LinkCtl, || self.inner.connect())
    }
    fn shutdown(&mut self) {
        timed(&self.rec, Name::LinkCtl, || self.inner.shutdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Counts which of its methods were called; every method answers,
    /// so a default-method fallback in the adapter would show up as a
    /// call to a different slot.
    #[derive(Default)]
    struct Tally {
        hits: [Cell<u32>; 13],
    }

    impl Tally {
        fn hit(&self, slot: usize) {
            self.hits[slot].set(self.hits[slot].get() + 1);
        }
    }

    impl ProcSource for Tally {
        fn system_stat(&self) -> SourceResult<SystemStat> {
            self.hit(0);
            Ok(SystemStat::default())
        }
        fn meminfo(&self) -> SourceResult<MemInfo> {
            self.hit(1);
            Ok(MemInfo::default())
        }
        fn list_tasks(&self, _: Pid) -> SourceResult<Vec<Tid>> {
            self.hit(2);
            Ok(vec![])
        }
        fn task_stat(&self, _: Pid, _: Tid) -> SourceResult<TaskStat> {
            self.hit(3);
            Ok(TaskStat::default())
        }
        fn task_status(&self, _: Pid, _: Tid) -> SourceResult<TaskStatus> {
            self.hit(4);
            Ok(TaskStatus::default())
        }
        fn task_schedstat(&self, _: Pid, _: Tid) -> SourceResult<SchedStat> {
            self.hit(5);
            Ok(SchedStat::default())
        }
        fn process_status(&self, _: Pid) -> SourceResult<TaskStatus> {
            self.hit(6);
            Ok(TaskStatus::default())
        }
        fn system_stat_into(&self, _: &mut SystemStat) -> SourceResult<()> {
            self.hit(7);
            Ok(())
        }
        fn list_tasks_into(&self, _: Pid, _: &mut Vec<Tid>) -> SourceResult<()> {
            self.hit(8);
            Ok(())
        }
        fn task_stat_into(&self, _: Pid, _: Tid, _: &mut TaskStat) -> SourceResult<()> {
            self.hit(9);
            Ok(())
        }
        fn task_status_into(&self, _: Pid, _: Tid, _: &mut TaskStatus) -> SourceResult<()> {
            self.hit(10);
            Ok(())
        }
        fn task_stat_text(&self, _: Pid, _: Tid, a: &mut ReadArena) -> SourceResult<ArenaSpan> {
            self.hit(11);
            Ok(a.append_str("stat"))
        }
        fn task_status_text(&self, _: Pid, _: Tid, a: &mut ReadArena) -> SourceResult<ArenaSpan> {
            self.hit(12);
            Ok(a.append_str("status"))
        }
    }

    #[test]
    fn probe_source_forwards_every_method_to_its_own_slot() {
        let inner = Tally::default();
        let rec = RefCell::new(Recorder::with_capacity(64));
        rec.borrow_mut().start_round(1, 13);
        let p = ProbeSource::new(&inner, &rec);
        let mut arena = ReadArena::default();
        let _ = p.system_stat();
        let _ = p.meminfo();
        let _ = p.list_tasks(1);
        let _ = p.task_stat(1, 1);
        let _ = p.task_status(1, 1);
        let _ = p.task_schedstat(1, 1);
        let _ = p.process_status(1);
        let _ = p.system_stat_into(&mut SystemStat::default());
        let _ = p.list_tasks_into(1, &mut Vec::new());
        let _ = p.task_stat_into(1, 1, &mut TaskStat::default());
        let _ = p.task_status_into(1, 1, &mut TaskStatus::default());
        let _ = p.task_stat_text(1, 1, &mut arena);
        let _ = p.task_status_text(1, 1, &mut arena);
        let hits: Vec<u32> = inner.hits.iter().map(Cell::get).collect();
        assert_eq!(hits, vec![1; 13]);
        assert_eq!(rec.borrow().spans().len(), 13);
        let procfs_calls: u64 = Name::ALL
            .iter()
            .filter(|n| n.is_procfs())
            .map(|&n| rec.borrow().calls[n as usize])
            .sum();
        assert_eq!(procfs_calls, 13);
    }

    /// Records which `Link` method ran.
    struct LinkTally(Rc<RefCell<Vec<&'static str>>>);

    impl Link for LinkTally {
        fn send_bytes(&mut self, _: &[u8]) -> Result<SendStatus, TransportError> {
            self.0.borrow_mut().push("send");
            Ok(SendStatus::Sent)
        }
        fn recv_bytes(&mut self, _: &mut Vec<u8>) -> Result<usize, TransportError> {
            self.0.borrow_mut().push("recv");
            Ok(0)
        }
        fn tick(&mut self) {
            self.0.borrow_mut().push("tick");
        }
        fn is_connected(&self) -> bool {
            self.0.borrow_mut().push("connected");
            true
        }
        fn connect(&mut self) -> Result<(), TransportError> {
            self.0.borrow_mut().push("connect");
            Ok(())
        }
        fn shutdown(&mut self) {
            self.0.borrow_mut().push("shutdown");
        }
    }

    #[test]
    fn probe_link_forwards_every_method_and_counts_bytes() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let rec = Rc::new(RefCell::new(Recorder::with_capacity(16)));
        let mut l = ProbeLink::new(LinkTally(log.clone()), rec.clone());
        let _ = l.send_bytes(&[0; 7]);
        let _ = l.recv_bytes(&mut Vec::new());
        l.tick();
        let _ = l.is_connected();
        let _ = l.connect();
        l.shutdown();
        assert_eq!(
            *log.borrow(),
            vec!["send", "recv", "tick", "connected", "connect", "shutdown"]
        );
        let rec = rec.borrow();
        assert_eq!(rec.link_bytes, 7);
        let link_calls: u64 = Name::ALL
            .iter()
            .filter(|n| n.is_link())
            .map(|&n| rec.calls[n as usize])
            .sum();
        assert_eq!(link_calls, 6);
    }
}
