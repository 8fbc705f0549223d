//! The traced run's span buffer.
//!
//! Spans are kept in a buffer allocated up front and written out when
//! the run ends, so tracing adds no I/O to the measured loops. Phases
//! are spans with no parent; sampled layer calls are children of the
//! phase that made them, and carry the op's index as its id. Spans are
//! recorded from the benchmark's side of each call into the program.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;
/// The parent of a top-level (phase) span.
pub const ROOT: SpanId = u32::MAX;
/// Spans kept per run; later ones are counted as dropped.
const CAPACITY: usize = 1 << 20;

pub struct Span {
    pub name: &'static str,
    pub parent: SpanId,
    /// The op index for a layer call; unused for phases.
    pub op: u64,
    /// Work units: keys for a scan call, ops for a phase.
    pub work: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// A phase whose time is all operations (so its time should be
    /// covered by its sampled children), not waiting on a schedule.
    pub busy: bool,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        let spans = if on {
            Vec::with_capacity(CAPACITY)
        } else {
            Vec::new()
        };
        Tracer {
            on,
            epoch: Instant::now(),
            spans,
            dropped: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&mut self, span: Span) -> SpanId {
        if self.spans.len() == CAPACITY {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Start a phase span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.at(Instant::now());
        self.push(Span {
            name,
            parent,
            op: 0,
            work: 0,
            start_ns,
            end_ns: start_ns,
            busy: false,
        })
    }

    pub fn close(&mut self, id: SpanId) {
        self.finish(id, 0, false);
    }

    /// Close a phase whose time is all operations: `ops` of them.
    pub fn close_busy(&mut self, id: SpanId, ops: u64) {
        self.finish(id, ops, true);
    }

    fn finish(&mut self, id: SpanId, work: u64, busy: bool) {
        if id == ROOT {
            return;
        }
        let end_ns = self.at(Instant::now());
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.work = work;
        span.busy = busy;
    }

    /// Run `f` as one phase span.
    pub fn phase<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, ROOT);
        let value = f();
        self.close(id);
        value
    }

    /// Record a finished layer call made by phase `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        work: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.push(Span {
            name,
            parent,
            op,
            work,
            start_ns,
            end_ns,
            busy: false,
        });
    }

    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Mean duration (ns) of the spans named `name`, and their count.
    pub fn mean_ns(&self, name: &str) -> (f64, usize) {
        let (mut total, mut count) = (0u64, 0usize);
        for s in self.spans_named(name) {
            total += s.end_ns - s.start_ns;
            count += 1;
        }
        (
            if count == 0 {
                0.0
            } else {
                total as f64 / count as f64
            },
            count,
        )
    }

    /// `(covered, wall)` ns over busy phases: each phase's sampled child
    /// time, less `timer_ns` per span for reading the clock, scaled up to
    /// all of its ops; and the phases' wall time.
    pub fn busy_coverage(&self, timer_ns: f64) -> (f64, f64) {
        let mut children: Vec<(f64, u64)> = vec![(0.0, 0); self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                let c = &mut children[s.parent as usize];
                c.0 += ((s.end_ns - s.start_ns) as f64 - timer_ns).max(0.0);
                c.1 += 1;
            }
        }
        let (mut covered, mut wall) = (0.0, 0.0);
        for (s, &(child_ns, child_count)) in self.spans.iter().zip(&children) {
            if s.busy && child_count > 0 {
                covered += child_ns * s.work as f64 / child_count as f64;
                wall += (s.end_ns - s.start_ns) as f64;
            }
        }
        (covered, wall)
    }

    /// Layer-call spans recorded inside busy phases.
    pub fn busy_child_spans(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| s.parent != ROOT && self.spans[s.parent as usize].busy)
            .count()
    }

    /// Spans whose interval is not inside their parent's.
    pub fn nesting_violations(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| {
                s.parent != ROOT && {
                    let p = &self.spans[s.parent as usize];
                    s.start_ns < p.start_ns || s.end_ns > p.end_ns
                }
            })
            .count()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Write every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\top\twork\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.op, s.work, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The time a span reads between two back-to-back clock reads, in ns:
/// the part of every span's duration that is the timer itself.
pub fn timer_ns() -> f64 {
    let mut gaps: Vec<u32> = (0..100_000)
        .map(|_| {
            let t0 = Instant::now();
            crate::measure::nanos_u32(t0.elapsed())
        })
        .collect();
    gaps.sort_unstable();
    f64::from(gaps[gaps.len() / 2])
}

/// The cost of recording one span, in ns, measured on a throwaway
/// tracer.
pub fn span_cost_ns() -> f64 {
    const N: usize = 200_000;
    let mut spare = Tracer::new(true);
    let parent = spare.open("calibrate", ROOT);
    let t = Instant::now();
    for i in 0..N {
        let t0 = Instant::now();
        spare.record("calibrate.op", parent, i as u64, 1, t0, t0);
    }
    t.elapsed().as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_cover_their_phase() {
        let mut tracer = Tracer::new(true);
        let phase = tracer.open("phase", ROOT);
        let t0 = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let t1 = Instant::now();
        tracer.record("layer.call", phase, 0, 1, t0, t1);
        tracer.close_busy(phase, 1);
        assert_eq!(tracer.nesting_violations(), 0);
        let (covered, wall) = tracer.busy_coverage(0.0);
        assert!(covered > 0.0 && covered <= wall);
        assert_eq!(tracer.busy_child_spans(), 1);
    }

    #[test]
    fn a_child_outside_its_parent_is_a_violation() {
        let mut tracer = Tracer::new(true);
        let before = Instant::now();
        let phase = tracer.open("phase", ROOT);
        tracer.close(phase);
        tracer.record("layer.call", phase, 0, 1, before, Instant::now());
        assert_eq!(tracer.nesting_violations(), 1);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let phase = tracer.open("phase", ROOT);
        assert_eq!(phase, ROOT);
        tracer.record("layer.call", phase, 0, 1, Instant::now(), Instant::now());
        assert_eq!(tracer.spans_named("layer.call").count(), 0);
    }
}
