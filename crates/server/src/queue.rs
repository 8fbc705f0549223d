//! A bounded multi-producer single-consumer queue with batch drain.
//!
//! Built on `Mutex<VecDeque>` plus two condvars rather than channels
//! because the consumer side needs an operation channels don't offer:
//! [`BoundedQueue::recv_batch`] takes *everything queued* (up to a
//! cap) in one lock hold, which is what lets a worker amortize index
//! traversals across a whole burst — the deeper the backlog, the
//! bigger the batch, a natural load-adaptive batching loop.
//!
//! The bound provides backpressure: producers block in `send` when
//! the consumer falls behind, converting overload into client-side
//! queueing delay (visible in open-loop latency) instead of unbounded
//! memory growth.
//!
//! # Wake-ups
//!
//! A thread that has to wait first polls a lock-free copy of its
//! condition, for up to 50 µs (`poll`), and parks on a condvar only if
//! the condition is still false after that: parking is cheap, but on a
//! VM the wake-up after it is not (see the crate docs). The copies
//! (`queued` and `closed`) are written under the queue mutex at every
//! push, drain and close; a waiter re-checks the real condition under
//! the mutex before it parks, so a copy is only ever a hint.
//!
//! A condvar is signalled only when a thread is parked on it: a futex
//! wake is a syscall even when nobody sleeps, and under load both
//! sides are usually awake. Each side counts its parked threads under
//! the queue mutex, incrementing before it waits and decrementing once
//! it wakes, and the other side reads that count under the same mutex
//! before it signals. A thread that is about to park has already
//! counted itself, so no wake-up is lost. [`close`](BoundedQueue::close)
//! wakes everyone regardless.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a wait polls before it parks: about what parking and the
/// wake-up after it cost on a virtual CPU (Karlin et al., "Empirical
/// Studies of Competitive Spinning for a Shared-Memory
/// Multiprocessor", SOSP 1991: spin for about as long as blocking
/// costs, then block).
pub(crate) const POLL_FOR: Duration = Duration::from_micros(50);

/// Checks made with a `spin_loop` hint between them before the poll
/// starts yielding and reading the clock.
const SPINS: u32 = 32;

/// Poll `ready` until it returns true or [`POLL_FOR`] has passed, and
/// return its last answer. Never parks: a short `spin_loop` burst, then
/// `yield_now` between checks, so a thread that shares its CPU with the
/// one it waits on lets that thread run. Every wait in the crate polls
/// through here before it parks.
pub(crate) fn poll(ready: impl Fn() -> bool) -> bool {
    for _ in 0..SPINS {
        if ready() {
            return true;
        }
        std::hint::spin_loop();
    }
    let start = Instant::now();
    loop {
        if ready() {
            return true;
        }
        if start.elapsed() >= POLL_FOR {
            return false;
        }
        std::thread::yield_now();
    }
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Producers parked in `send` on a full queue.
    parked_producers: usize,
    /// Consumers parked in `recv_batch` on an empty queue.
    parked_consumers: usize,
}

/// Error returned by [`BoundedQueue::send`] once the queue is closed.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// A blocking bounded MPSC queue. Producers share `&self`; the single
/// consumer calls [`recv_batch`](BoundedQueue::recv_batch).
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    /// `items.len()` and `closed`, copied under the mutex at every
    /// change, for a waiter to poll before it parks. Relaxed: they
    /// publish no data, because a waiter re-checks under the mutex.
    queued: AtomicUsize,
    closed: AtomicBool,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity queue can never accept");
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                parked_producers: 0,
                parked_consumers: 0,
            }),
            capacity,
            queued: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Enqueue one item, blocking while the queue is full. Fails only
    /// after [`close`](BoundedQueue::close).
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        poll(|| self.queued.load(Relaxed) < self.capacity || self.closed.load(Relaxed));
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if inner.closed {
                return Err(SendError(item));
            }
            if inner.items.len() < self.capacity {
                inner.items.push_back(item);
                self.queued.store(inner.items.len(), Relaxed);
                if inner.parked_consumers > 0 {
                    self.not_empty.notify_one();
                }
                return Ok(());
            }
            inner.parked_producers += 1;
            inner = self.not_full.wait(inner).expect("queue lock");
            inner.parked_producers -= 1;
        }
    }

    /// Drain up to `max` queued items into `out`, blocking until at
    /// least one is available or the queue is closed *and* empty.
    /// Returns the queue depth observed before draining — the
    /// consumer's measure of how far behind it was — or `None` when
    /// closed-and-empty (the consumer's signal to exit).
    pub fn recv_batch(&self, max: usize, out: &mut Vec<T>) -> Option<usize> {
        self.recv_batch_counting(max, out, &AtomicU64::new(0))
    }

    /// [`recv_batch`](BoundedQueue::recv_batch), adding one to `parks`
    /// each time the consumer parks, before it sleeps.
    pub(crate) fn recv_batch_counting(
        &self,
        max: usize,
        out: &mut Vec<T>,
        parks: &AtomicU64,
    ) -> Option<usize> {
        poll(|| self.queued.load(Relaxed) > 0 || self.closed.load(Relaxed));
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if !inner.items.is_empty() {
                let depth = inner.items.len();
                let take = depth.min(max);
                out.extend(inner.items.drain(..take));
                self.queued.store(inner.items.len(), Relaxed);
                // Waking every blocked producer is deliberate: a batch
                // drain frees many slots at once.
                if inner.parked_producers > 0 {
                    self.not_full.notify_all();
                }
                return Some(depth);
            }
            if inner.closed {
                return None;
            }
            inner.parked_consumers += 1;
            parks.fetch_add(1, Relaxed);
            inner = self.not_empty.wait(inner).expect("queue lock");
            inner.parked_consumers -= 1;
        }
    }

    /// Close the queue: future sends fail, and the consumer drains
    /// what remains before `recv_batch` returns `None`. Wakes every
    /// parked thread, counted or not.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.closed = true;
        self.closed.store(true, Relaxed);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Parked producers and consumers, for tests that must signal only
    /// once a thread sleeps.
    #[cfg(test)]
    fn parked(&self) -> (usize, usize) {
        let inner = self.inner.lock().expect("queue lock");
        (inner.parked_producers, inner.parked_consumers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{await_parked, within_deadline};
    use std::cell::Cell;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn poll_returns_true_once_its_condition_turns_true_mid_poll() {
        // Mid-burst, and on the first check after the burst, before the
        // poll first reads the clock: neither can time out.
        for turns_at in [2, SPINS + 1] {
            let checks = Cell::new(0);
            let ready = || {
                checks.set(checks.get() + 1);
                checks.get() >= turns_at
            };
            assert!(poll(ready));
            assert_eq!(checks.get(), turns_at, "the poll stops at the first true check");
        }
    }

    #[test]
    fn poll_gives_up_no_sooner_than_poll_for() {
        let start = Instant::now();
        assert!(!poll(|| false));
        assert!(start.elapsed() >= POLL_FOR);
    }

    #[test]
    fn batches_drain_in_fifo_order_and_report_depth() {
        let q = BoundedQueue::new(16);
        for i in 0..10 {
            q.send(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(q.recv_batch(4, &mut out), Some(10));
        assert_eq!(out, vec![0, 1, 2, 3]);
        out.clear();
        assert_eq!(q.recv_batch(100, &mut out), Some(6));
        assert_eq!(out, vec![4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn close_drains_the_remainder_then_signals_exit() {
        let q = BoundedQueue::new(4);
        q.send(1).unwrap();
        q.close();
        assert_eq!(q.send(2), Err(SendError(2)));
        let mut out = Vec::new();
        assert_eq!(q.recv_batch(8, &mut out), Some(1));
        assert_eq!(out, vec![1]);
        assert_eq!(q.recv_batch(8, &mut out), None);
    }

    #[test]
    fn full_queue_blocks_producers_until_the_consumer_drains() {
        let q = Arc::new(BoundedQueue::new(2));
        q.send(0u64).unwrap();
        q.send(1).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 2..50u64 {
                    q.send(i).unwrap();
                }
            })
        };
        let mut seen = Vec::new();
        let mut buf = Vec::new();
        while seen.len() < 50 {
            buf.clear();
            let depth = q.recv_batch(8, &mut buf).expect("producer still live");
            assert!(depth <= 2, "bound must hold, saw depth {depth}");
            seen.extend_from_slice(&buf);
        }
        producer.join().unwrap();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn many_producers_lose_nothing() {
        let q = Arc::new(BoundedQueue::new(8));
        let producers: Vec<_> = (0..4)
            .map(|t| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..500u64 {
                        q.send(t * 10_000 + i).unwrap();
                    }
                })
            })
            .collect();
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut all = Vec::new();
                let mut buf = Vec::new();
                loop {
                    buf.clear();
                    match q.recv_batch(16, &mut buf) {
                        Some(_) => all.extend_from_slice(&buf),
                        None => break,
                    }
                }
                all
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all = consumer.join().unwrap();
        all.sort_unstable();
        assert_eq!(all.len(), 2000);
        all.dedup();
        assert_eq!(all.len(), 2000, "no duplicates either");
    }

    #[test]
    fn a_consumer_parked_on_an_empty_queue_wakes_on_a_later_send() {
        within_deadline(|| {
            let q = Arc::new(BoundedQueue::new(4));
            let consumer = {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut out = Vec::new();
                    let depth = q.recv_batch(8, &mut out);
                    (depth, out)
                })
            };
            await_parked(1, || q.parked().1);
            q.send(7u64).unwrap();
            assert_eq!(consumer.join().unwrap(), (Some(1), vec![7]));
        });
    }

    #[test]
    fn a_producer_parked_on_a_full_queue_wakes_on_a_drain() {
        within_deadline(|| {
            let q = Arc::new(BoundedQueue::new(2));
            q.send(0u64).unwrap();
            q.send(1).unwrap();
            let producer = {
                let q = Arc::clone(&q);
                thread::spawn(move || q.send(2))
            };
            await_parked(1, || q.parked().0);
            let mut out = Vec::new();
            assert_eq!(q.recv_batch(8, &mut out), Some(2));
            assert_eq!(producer.join().unwrap(), Ok(()));
            out.clear();
            assert_eq!(q.recv_batch(8, &mut out), Some(1));
            assert_eq!(out, vec![2]);
        });
    }

    #[test]
    fn close_wakes_a_parked_consumer_and_a_parked_producer() {
        within_deadline(|| {
            let empty = Arc::new(BoundedQueue::<u64>::new(2));
            let full = Arc::new(BoundedQueue::new(1));
            full.send(0u64).unwrap();
            let consumer = {
                let q = Arc::clone(&empty);
                thread::spawn(move || q.recv_batch(8, &mut Vec::new()))
            };
            let producer = {
                let q = Arc::clone(&full);
                thread::spawn(move || q.send(1))
            };
            await_parked(1, || empty.parked().1);
            await_parked(1, || full.parked().0);
            empty.close();
            full.close();
            assert_eq!(consumer.join().unwrap(), None);
            assert_eq!(producer.join().unwrap(), Err(SendError(1)));
        });
    }
}
