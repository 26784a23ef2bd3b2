//! In-memory span recorder for the traced run.
//!
//! Each span records its name, start, end, parent span, the workload, the
//! step or member id it belongs to and the rank that recorded it. Spans
//! live in a `Vec` until the run ends and are then written out as JSON
//! lines. A layer's self time is its spans' durations minus the part of
//! each interval that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open: `end_ns == 0`) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `homme.prim.hypervis`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Step or member id the work belongs to.
    pub id: u64,
    /// Rank that recorded the span (0 outside the distributed workload).
    pub rank: u32,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one thread of work.
pub struct Tracer {
    epoch: Instant,
    rank: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// Recorder whose timestamps count from `epoch` (share one epoch
    /// between the ranks of a world so their spans line up).
    pub fn new(epoch: Instant, rank: u32) -> Self {
        Tracer {
            epoch,
            rank,
            spans: Vec::with_capacity(4096),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one; returns its handle.
    pub fn open(&mut self, name: &'static str, id: u64) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.stack.last().copied(),
            id,
            rank: self.rank,
        });
        self.stack.push(idx);
        idx
    }

    /// Close span `idx` (must be the innermost open span).
    ///
    /// # Panics
    /// Panics when spans are closed out of order.
    pub fn close(&mut self, idx: usize) {
        assert_eq!(self.stack.pop(), Some(idx), "spans closed out of order");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let s = self.open(name, id);
        let out = f();
        self.close(s);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Hand the recorded spans over (ends the recorder).
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span name, ns: each span's duration minus the union of
/// its direct children's intervals clipped to it. `spans` must hold one
/// recorder's spans (parents are indices into the same slice).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut iv: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_ns.max(s.start_ns),
                    spans[c].end_ns.min(s.end_ns),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_unstable();
        let mut covered = 0;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in iv {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        *out.entry(s.name).or_insert(0) += s.dur_ns() - covered;
    }
    out
}

/// Total (inclusive) time and count per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let mut out = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_insert((0, 0));
        e.0 += s.dur_ns();
        e.1 += 1;
    }
    out
}

/// Write `spans` as JSON lines (one span per line, times in µs).
pub fn write_spans(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"span\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\
             \"workload\":\"{workload}\",\"id\":{},\"rank\":{}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            s.id,
            s.rank
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
            rank: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // step [0,100) > rk [10,40) > dss [20,30); step > hv [50,90).
        let spans = vec![
            sp("step", 0, 100, None),
            sp("rk", 10, 40, Some(0)),
            sp("dss", 20, 30, Some(1)),
            sp("hv", 50, 90, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["step"], 100 - 30 - 40);
        assert_eq!(st["rk"], 30 - 10);
        assert_eq!(st["dss"], 10);
        assert_eq!(st["hv"], 40);
        // Self times partition the root interval.
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children recorded on other threads may overlap each other or
        // overhang the parent: only the covered part of the parent counts.
        let spans = vec![
            sp("root", 100, 200, None),
            sp("a", 90, 150, Some(0)),
            sp("a", 140, 160, Some(0)),
            sp("b", 190, 250, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["root"], 100 - 60 - 10);
        assert_eq!(st["a"], 60 + 20);
        assert_eq!(st["b"], 60);
    }

    #[test]
    fn recorder_nests_and_sums_repeated_names() {
        let mut t = Tracer::new(Instant::now(), 3);
        for id in 0..3 {
            t.span("outer", id, || ());
        }
        let o = t.open("outer", 9);
        let i = t.open("inner", 9);
        t.close(i);
        t.close(o);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!(spans[3].parent, None);
        assert!(spans.iter().all(|s| s.rank == 3 && s.end_ns >= s.start_ns));
        assert_eq!(totals(&spans)["outer"].1, 4);
    }
}
