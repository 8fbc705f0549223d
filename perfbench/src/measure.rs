//! Timed loops, the reference kernel that paces them, and the robust
//! statistics every workload reports.
//!
//! A timed loop runs in windows of a fixed number of operations. Each
//! window yields a rate and a set of sampled per-operation latencies;
//! a run reports the **median over windows**. On a shared 2-vCPU VM the
//! hypervisor stalls a thread for 1–10 ms a few times a second, and a
//! median over windows keeps those stalls out of the gated numbers
//! while they stay visible in the per-layer tails.
//!
//! The VM's speed also drifts, by 20–40% over minutes and at times 2×,
//! as other tenants' load comes and goes; that moves whole runs, which
//! no median within a run can undo. So every timed window is followed by
//! a [`Reference`] measurement, and the window's times are scaled by the
//! speed it read: each end-to-end time is reported at the reference
//! VM's speed.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::rng::Rng;
use crate::trace::{self, SpanId, Tracer};

/// One op in `SAMPLE_EVERY` is timed individually for the latency
/// percentiles; one in `SPAN_EVERY` also gets a trace span. Both are
/// coprime with the WAL's 64-op group commit, so sampling cannot alias
/// with it.
pub const SAMPLE_EVERY: usize = 7;
pub const SPAN_EVERY: usize = 63;

/// Searches per reference measurement.
const REFERENCE_SEARCHES: usize = 1 << 14;
/// The reference array is the same in every run of a workload.
const REFERENCE_SEED: u64 = 0x0005_EED0_F4EF;

/// The reference kernel: binary searches (`partition_point`) of random
/// probes over a sorted array of random `u64`, as many as the
/// workload's keys, so it reaches the same levels of the memory
/// hierarchy as the index does. It is the benchmark's own code on the
/// benchmark's own data, so no change to the program can change it.
///
/// Its speed is `nominal_ns` (its time per search on the reference VM
/// on a quiet host, a constant of each workload) over the time per
/// search just measured. On the reference VM, one ALEX get's time over
/// one search's stayed within ±1% over minutes in which both moved by
/// 25%.
pub struct Reference {
    sorted: Vec<u64>,
    probes: Vec<u64>,
    next: usize,
    nominal_ns: f64,
    speeds: Vec<f64>,
}

impl Reference {
    pub fn new(len: usize, nominal_ns: f64) -> Self {
        let mut rng = Rng::new(REFERENCE_SEED, 0);
        let mut sorted: Vec<u64> = (0..len.max(1)).map(|_| rng.next_u64()).collect();
        sorted.sort_unstable();
        let probes = (0..1 << 16).map(|_| rng.next_u64()).collect();
        Reference {
            sorted,
            probes,
            next: 0,
            nominal_ns,
            speeds: Vec::new(),
        }
    }

    /// Time one round of searches and return the machine's speed
    /// relative to the reference VM: below 1 when slower.
    pub fn speed(&mut self) -> f64 {
        let t = Instant::now();
        let mut found = 0usize;
        for _ in 0..REFERENCE_SEARCHES {
            let probe = self.probes[self.next % self.probes.len()];
            self.next += 1;
            found += self.sorted.partition_point(|&x| x < probe);
        }
        black_box(found);
        let ns = t.elapsed().as_nanos() as f64 / REFERENCE_SEARCHES as f64;
        let speed = self.nominal_ns / ns;
        self.speeds.push(speed);
        speed
    }

    /// Median of every speed measured in this run.
    pub fn median_speed(&self) -> f64 {
        median(self.speeds.clone())
    }
}

/// What a timed loop measured.
pub struct LoopStats {
    /// `(work, seconds, speed)` per window.
    windows: Vec<(u64, f64, f64)>,
    /// Sampled latencies (ns) per window.
    samples: Vec<Vec<u32>>,
}

impl LoopStats {
    /// Add another loop's windows to this one's.
    pub fn absorb(&mut self, other: LoopStats) {
        self.windows.extend(other.windows);
        self.samples.extend(other.samples);
    }

    /// Seconds spent in the windows, as measured.
    pub fn busy_secs(&self) -> f64 {
        self.windows.iter().map(|w| w.1).sum()
    }

    /// Median over windows of work per second, at the reference speed.
    pub fn median_rate(&self) -> f64 {
        median(
            self.windows
                .iter()
                .map(|&(work, secs, speed)| work as f64 / (secs * speed))
                .collect(),
        )
    }

    /// Median over windows of the window's `q` latency quantile, in ns
    /// at the reference speed.
    pub fn median_quantile_ns(&self, q: f64) -> f64 {
        median(
            self.samples
                .iter()
                .zip(&self.windows)
                .filter(|(s, _)| !s.is_empty())
                .map(|(s, &(_, _, speed))| quantile(s, q) * speed)
                .collect(),
        )
    }
}

/// How long a timed loop runs: up to `max_ops` operations, stopping
/// early at `deadline`.
pub struct LoopSpec {
    pub window_ops: usize,
    pub max_ops: usize,
    pub deadline: Option<Instant>,
}

/// Run `op(i)` for `i = 0, 1, …` under `spec`, measuring `reference`
/// after each window. `op` returns the name of the layer call it made
/// (the span name) and the work it did. The loop is one trace phase
/// named `phase`, each window a busy child of it, and sampled ops the
/// windows' children; the reference runs between windows, outside them.
pub fn timed_loop(
    spec: &LoopSpec,
    tracer: &mut Tracer,
    reference: &mut Reference,
    phase: &'static str,
    mut op: impl FnMut(usize) -> (&'static str, u64),
) -> LoopStats {
    let phase_span = tracer.open(phase, trace::ROOT);
    let mut windows = Vec::new();
    let mut samples: Vec<Vec<u32>> = Vec::new();
    let mut i = 0usize;
    while i < spec.max_ops {
        let end = (i + spec.window_ops).min(spec.max_ops);
        let mut window_samples = Vec::with_capacity((end - i) / SAMPLE_EVERY + 1);
        let mut window_work = 0u64;
        let span: SpanId = tracer.open(phase, phase_span);
        let window_start = Instant::now();
        let first = i;
        while i < end {
            if i.is_multiple_of(SAMPLE_EVERY) {
                let t0 = Instant::now();
                let (name, w) = op(i);
                let t1 = Instant::now();
                window_work += w;
                window_samples.push(nanos_u32(t1 - t0));
                if i.is_multiple_of(SPAN_EVERY) {
                    tracer.record(name, span, i as u64, w, t0, t1);
                }
            } else {
                window_work += op(i).1;
            }
            i += 1;
        }
        let now = Instant::now();
        tracer.close_busy(span, (i - first) as u64);
        let secs = (now - window_start).as_secs_f64();
        windows.push((window_work, secs, reference.speed()));
        samples.push(window_samples);
        if spec.deadline.is_some_and(|d| now >= d) {
            break;
        }
    }
    tracer.close(phase_span);
    LoopStats { windows, samples }
}

/// Repetitions of a timed set-up: at least `MIN_REPS`, then more until
/// they add up to `REPS_SECONDS`, at most `MAX_REPS`.
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 25;
const REPS_SECONDS: f64 = 1.0;

/// Time `f` repeatedly, measuring `reference` after each repetition;
/// return the last result and the median time at the reference speed.
/// Before each repetition the previous result is dropped and `reset`
/// runs, both outside the timed region.
pub fn median_timed<T>(
    reference: &mut Reference,
    mut reset: impl FnMut(),
    mut f: impl FnMut() -> T,
) -> (T, f64) {
    let mut raw = 0.0;
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < MIN_REPS || (raw < REPS_SECONDS && times.len() < MAX_REPS) {
        drop(last.take());
        reset();
        let t = Instant::now();
        let value = f();
        let secs = t.elapsed().as_secs_f64();
        raw += secs;
        times.push(secs * reference.speed());
        last = Some(value);
    }
    (last.expect("at least one repetition"), median(times))
}

/// Time one call, at the reference speed measured before and after it.
pub fn paced<T>(reference: &mut Reference, f: impl FnOnce() -> T) -> (T, f64) {
    let before = reference.speed();
    let (value, secs) = timed(f);
    let after = reference.speed();
    (value, secs * (before + after) / 2.0)
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = f();
    (value, t.elapsed().as_secs_f64())
}

pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank quantile of unsorted samples.
pub fn quantile(samples: &[u32], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    f64::from(sorted[rank - 1])
}

pub fn nanos_u32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.95), 95.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
    }

    #[test]
    fn timed_loop_honours_max_ops_and_windows() {
        let mut tracer = Tracer::new(true);
        let spec = LoopSpec {
            window_ops: 100,
            max_ops: 1000,
            deadline: None,
        };
        let mut reference = Reference::new(1000, 10.0);
        let mut seen = 0;
        let stats = timed_loop(&spec, &mut tracer, &mut reference, "phase.test", |_| {
            seen += 1;
            ("test.op", 2)
        });
        assert_eq!(seen, 1000);
        assert_eq!(stats.windows.len(), 10);
        assert!(stats.windows.iter().all(|&(work, _, _)| work == 200));
        assert!(stats.median_rate() > 0.0);
        assert_eq!(reference.speeds.len(), 10);
        // Ops 0, 63, …, 945 carry spans, inside their windows.
        assert_eq!(
            tracer.spans_named("test.op").count(),
            1000usize.div_ceil(SPAN_EVERY)
        );
        assert_eq!(tracer.spans_named("phase.test").count(), 11);
        assert_eq!(tracer.nesting_violations(), 0);
    }

    #[test]
    fn times_scale_with_the_reference_speed() {
        let stats = LoopStats {
            windows: vec![(100, 1.0, 0.5), (100, 1.0, 0.5), (100, 2.0, 1.0)],
            samples: vec![vec![10], vec![10], vec![20]],
        };
        // At half speed a window's 100 ops/s read as 200 ops/s.
        assert_eq!(stats.median_rate(), 200.0);
        assert_eq!(stats.median_quantile_ns(0.5), 5.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
