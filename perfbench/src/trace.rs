//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Each span has a name, a start and end (nanoseconds since the
//! run's epoch), its parent span and a window or request id. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover. Spans are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Window or request id the span belongs to.
    pub id: u64,
}

/// A per-thread span recorder. Disabled tracers record nothing and cost
/// one branch per call.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(Instant::now(), false)
    }

    /// A tracer on the same epoch, for another thread or phase.
    pub fn fork(&self, enabled: bool) -> Tracer {
        Tracer::new(self.epoch, enabled)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its handle (meaningless when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Closes the span `open` returned.
    pub fn close(&mut self, handle: usize) {
        if self.enabled {
            let now = self.now_ns();
            self.spans[handle].end_ns = now;
        }
    }

    /// Records a span whose interval the caller measured itself.
    pub fn record(&mut self, span: Span) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Nanoseconds since the run's epoch, for spans measured by the caller.
    pub fn stamp(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Moves every span of `other` into `self`, re-basing parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as CSV after a `#`-prefixed header of `stamp` lines.
    pub fn write_csv(&self, path: &std::path::Path, stamp: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for line in stamp {
            writeln!(w, "# {line}")?;
        }
        writeln!(w, "idx,name,start_ns,end_ns,parent,id")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                w,
                "{i},{},{},{},{parent},{}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            let (a, b) = (s.start_ns.max(ps.start_ns), s.end_ns.min(ps.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
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
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: (count, total duration ns, total self time ns).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span("window", 0, 100, None),
            span("core", 10, 30, Some(0)),
            span("wal", 25, 50, Some(0)), // overlaps core by 5
            span("core", 70, 80, Some(0)),
            span("io", 12, 20, Some(1)),
        ];
        let selfs = self_times(&spans);
        // Children of the window cover [10,50) and [70,80): 50 ns.
        assert_eq!(selfs[0], 50);
        assert_eq!(selfs[1], 12);
        assert_eq!(selfs[2], 25);
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[4], 8);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("p", 10, 20, None),
            span("c", 0, 15, Some(0)),
            span("c", 18, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 3);
    }

    #[test]
    fn totals_group_by_name_and_absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, true);
        a.record(span("x", 0, 10, None));
        let mut b = Tracer::new(epoch, true);
        let root = b.record(span("w", 0, 10, None));
        b.record(span("x", 2, 6, Some(root)));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let t = totals_by_name(a.spans());
        assert_eq!(
            t["x"],
            NameTotals {
                count: 2,
                total_ns: 14,
                self_ns: 14
            }
        );
        assert_eq!(
            t["w"],
            NameTotals {
                count: 1,
                total_ns: 10,
                self_ns: 6
            }
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let h = t.open("x", None, 1);
        t.close(h);
        assert!(t.spans().is_empty());
    }
}
