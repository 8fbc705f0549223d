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
//! A condvar is signalled only when a thread is parked on it: a futex
//! wake is a syscall even when nobody sleeps, and under load both
//! sides are usually awake. Each side counts its parked threads under
//! the queue mutex, incrementing before it waits and decrementing once
//! it wakes, and the other side reads that count under the same mutex
//! before it signals. A thread that is about to park has already
//! counted itself, so no wake-up is lost. [`close`](BoundedQueue::close)
//! wakes everyone regardless.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

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
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Enqueue one item, blocking while the queue is full. Fails only
    /// after [`close`](BoundedQueue::close).
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if inner.closed {
                return Err(SendError(item));
            }
            if inner.items.len() < self.capacity {
                inner.items.push_back(item);
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
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if !inner.items.is_empty() {
                let depth = inner.items.len();
                let take = depth.min(max);
                out.extend(inner.items.drain(..take));
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
    use std::sync::Arc;
    use std::thread;

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
