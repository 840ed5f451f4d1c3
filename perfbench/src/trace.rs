//! The benchmark's spans.  Each op is one root span carrying the op id;
//! each public call the benchmark makes inside it is a child span.  Spans
//! live in memory, one log per thread, and are written out when the run
//! ends.  The program's own recorder stays off: these spans are timed from
//! the benchmark's side of each call.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span inside its thread's log.
pub type SpanId = u32;

const NO_PARENT: SpanId = SpanId::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.call`, e.g. `minic.parse`; the layer is the part before the
    /// first dot.
    pub name: &'static str,
    pub op: u64,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's spans, timed against a shared epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    pub thread: u32,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, thread: u32) -> Self {
        SpanLog {
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        let id = self.spans.len() as SpanId;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op,
            parent: parent.unwrap_or(NO_PARENT),
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: SpanId) -> u64 {
        let end = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        span.duration_ns()
    }

    /// Time `f` as a child of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, Some(parent));
        let out = f();
        self.close(id);
        out
    }
}

/// A span's duration minus the part of it its children cover.  Children
/// may overlap each other (or spill past the parent); covered time is the
/// union of their intervals clipped to the parent.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = ps;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    pe.saturating_sub(ps) - covered
}

/// Totals per span name over every log: (calls, total ns, self ns).
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals(logs: &[SpanLog]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for log in logs {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); log.spans.len()];
        for s in &log.spans {
            if s.parent != NO_PARENT {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        for (s, kids) in log.spans.iter().zip(&children) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_time((s.start_ns, s.end_ns), kids);
        }
    }
    out
}

/// Most spans a written trace holds; a traced run keeps every span in
/// memory for its metrics, but writes only its first ops, whole, up to
/// this many spans.
pub const WRITE_LIMIT: usize = 50_000;

/// The highest op id whose spans, with every lower op's, fit in `limit`.
fn op_cutoff(logs: &[SpanLog], limit: usize) -> Option<u64> {
    let mut per_op: BTreeMap<u64, usize> = BTreeMap::new();
    for s in logs.iter().flat_map(|l| &l.spans) {
        *per_op.entry(s.op).or_default() += 1;
    }
    let mut written = 0;
    let mut cutoff = None;
    for (op, n) in per_op {
        written += n;
        if written > limit {
            break;
        }
        cutoff = Some(op);
    }
    cutoff
}

/// Write the first ops' spans as a Chrome `trace_event` JSON array
/// (complete events; load it at `ui.perfetto.dev`).  Parents are carried
/// as span indices within the thread.  Returns the spans written.
pub fn write_chrome_trace(path: &std::path::Path, logs: &[SpanLog]) -> std::io::Result<usize> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let cutoff = op_cutoff(logs, WRITE_LIMIT);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"[\n")?;
    let mut written = 0;
    for log in logs {
        for (i, s) in log.spans.iter().enumerate() {
            if cutoff.is_none_or(|c| s.op > c) {
                continue;
            }
            if written > 0 {
                out.write_all(b",\n")?;
            }
            written += 1;
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
                s.name,
                s.layer(),
                log.thread,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.op,
                i,
                parent
            )?;
        }
    }
    out.write_all(b"\n]\n")?;
    out.flush()?;
    Ok(written)
}

/// Write a traced run's spans and print its per-span summary.
pub fn write_trace(workload: &str, logs: &[SpanLog], totals: &BTreeMap<&str, NameTotals>) {
    let path = std::path::PathBuf::from(".perfbench_out").join(format!("trace-{workload}.json"));
    match write_chrome_trace(&path, logs) {
        Ok(n) => println!("{n} of the run's first spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    println!(
        "{:<22} {:>10} {:>12} {:>12}",
        "span", "calls", "total_ms", "self_ms"
    );
    for (name, t) in totals {
        println!(
            "{:<22} {:>10} {:>12.3} {:>12.3}",
            name,
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 30), (50, 60)]), 70);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        assert_eq!(self_time((0, 100), &[(10, 40), (20, 50)]), 60);
        assert_eq!(self_time((0, 100), &[(10, 40), (10, 40)]), 70);
        // A child nested inside another child.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time((10, 20), &[(0, 15)]), 5);
        assert_eq!(self_time((10, 20), &[(18, 40)]), 8);
        assert_eq!(self_time((10, 20), &[(30, 40)]), 10);
        assert_eq!(self_time((10, 20), &[(0, 40)]), 0);
    }

    #[test]
    fn totals_group_by_name_and_compute_self_time() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch, 0);
        log.spans.push(Span {
            name: "op",
            op: 0,
            parent: NO_PARENT,
            start_ns: 0,
            end_ns: 100,
        });
        for (s, e) in [(10, 30), (40, 70)] {
            log.spans.push(Span {
                name: "vm.run",
                op: 0,
                parent: 0,
                start_ns: s,
                end_ns: e,
            });
        }
        let t = totals(&[log]);
        assert_eq!(t["op"].calls, 1);
        assert_eq!(t["op"].total_ns, 100);
        assert_eq!(t["op"].self_ns, 50);
        assert_eq!(t["vm.run"].calls, 2);
        assert_eq!(t["vm.run"].total_ns, 50);
        assert_eq!(t["vm.run"].self_ns, 50);
    }

    #[test]
    fn written_traces_keep_whole_ops() {
        let mut log = SpanLog::new(Instant::now(), 0);
        for op in 0..4 {
            let root = log.open("op", op, None);
            log.time("vm.run", op, root, || ());
            log.close(root);
        }
        let logs = [log];
        assert_eq!(op_cutoff(&logs, 8), Some(3));
        assert_eq!(op_cutoff(&logs, 5), Some(1));
        assert_eq!(op_cutoff(&logs, 1), None);
    }

    #[test]
    fn spans_nest_through_the_log() {
        let mut log = SpanLog::new(Instant::now(), 3);
        let op = log.open("op", 7, None);
        let v = log.time("vm.load", 7, op, || 5);
        log.close(op);
        assert_eq!(v, 5);
        assert_eq!(log.spans.len(), 2);
        assert_eq!(log.spans[1].parent, op);
        assert_eq!(log.spans[1].layer(), "vm");
        assert!(log.spans[0].start_ns <= log.spans[1].start_ns);
        assert!(log.spans[1].end_ns <= log.spans[0].end_ns);
    }
}
