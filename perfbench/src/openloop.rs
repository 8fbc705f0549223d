//! The open-loop generator for the serving workload.
//!
//! Send times follow a Poisson schedule fixed by the seed, and every
//! operation is timed by the server from its *due* time
//! (`Client::submit_measured`), so a stall delays the operations queued
//! behind it and shows as latency (no coordinated omission). The
//! generator sleeps only when the next send is more than 200 µs away and
//! otherwise yields, because a sleep overshoots by tens of µs; it counts
//! the sends it issued late.
//!
//! A measured send drops its reply, so one op in [`CHECK_EVERY`] is sent
//! through `Client::submit` instead and its reply kept for the caller to
//! check. Those ops carry no latency sample; which ops they are depends
//! only on their position in the schedule.

use std::sync::Arc;
use std::time::{Duration, Instant};

use alex_server::{Client, HistogramSnapshot, LatencyHistogram, Pending, Request};

use crate::rng::Rng;

/// A send later than this counts as late.
const LATE: Duration = Duration::from_micros(20);
/// Sleep only when the next send is further away than this.
const SLEEP_ABOVE: Duration = Duration::from_micros(200);
/// Give up waiting for outstanding replies after this long.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);
/// One op in this many is sent with its reply kept, to be checked.
pub const CHECK_EVERY: u64 = 16;

/// What one open-loop run measured.
pub struct OpenLoop {
    pub offered: f64,
    pub sent: u64,
    /// Ops whose completion was recorded.
    pub completed: u64,
    /// Completed ops per second from the first due time to the last
    /// completion.
    pub achieved: f64,
    /// Per-window latency histograms, in window order.
    pub windows: Vec<HistogramSnapshot>,
    /// Sends issued more than [`LATE`] after their due time.
    pub late: u64,
    /// The ops sent with their replies kept, to check against.
    pub checked: Vec<(Request<u64, u64>, Pending<u64, u64>)>,
}

impl OpenLoop {
    /// Median over windows of the window's `q` latency quantile, in µs.
    pub fn median_quantile_us(&self, q: f64) -> f64 {
        crate::measure::median(
            self.windows
                .iter()
                .filter(|w| w.count() > 0)
                .map(|w| w.quantile(q) as f64 / 1e3)
                .collect(),
        )
    }

    /// Largest latency recorded, in µs.
    pub fn max_us(&self) -> f64 {
        self.windows.iter().map(|w| w.max()).max().unwrap_or(0) as f64 / 1e3
    }
}

/// Offer ops at `rate` per second for `secs` seconds, splitting the
/// run into `windows` equal time windows. Each op's due time and request
/// come from `rng` (and `next_request`) right after the previous send,
/// while the generator waits anyway, so the schedule and the requests
/// are fixed by the seed and need no buffer that grows with the rate.
pub fn run(
    client: &Client<u64, u64>,
    rate: f64,
    secs: f64,
    windows: usize,
    rng: &mut Rng,
    mut next_request: impl FnMut(&mut Rng) -> Request<u64, u64>,
) -> OpenLoop {
    let window_secs = secs / windows as f64;
    let hists: Vec<Arc<LatencyHistogram>> = (0..windows)
        .map(|_| Arc::new(LatencyHistogram::new()))
        .collect();
    let mut sent = 0u64;
    let mut late = 0u64;
    let mut checked = Vec::new();
    let mut at = 0.0f64;
    let epoch = Instant::now() + Duration::from_millis(1);
    loop {
        at += -(1.0 - rng.unit()).ln() / rate;
        if at >= secs {
            break;
        }
        let request = next_request(rng);
        let due = epoch + Duration::from_secs_f64(at);
        let now = loop {
            let now = Instant::now();
            match due.checked_duration_since(now) {
                None => break now,
                Some(lead) if lead > SLEEP_ABOVE => std::thread::sleep(lead - SLEEP_ABOVE),
                Some(_) => std::thread::yield_now(),
            }
        };
        if now - due > LATE {
            late += 1;
        }
        if sent.is_multiple_of(CHECK_EVERY) {
            checked.push((request.clone(), client.submit(request)));
        } else {
            let window = ((at / window_secs) as usize).min(windows - 1);
            client.submit_measured(request, due, &hists[window]);
        }
        sent += 1;
    }
    let measured = sent - checked.len() as u64;
    let give_up = Instant::now() + DRAIN_TIMEOUT;
    let completed = loop {
        let done: u64 = hists.iter().map(|h| h.count()).sum();
        if done >= measured || Instant::now() > give_up {
            break done + checked.len() as u64;
        }
        std::thread::sleep(Duration::from_micros(50));
    };
    let span = Instant::now()
        .saturating_duration_since(epoch)
        .as_secs_f64();
    OpenLoop {
        offered: rate,
        sent,
        completed,
        achieved: completed as f64 / span.max(secs),
        windows: hists.iter().map(|h| h.snapshot()).collect(),
        late,
        checked,
    }
}
