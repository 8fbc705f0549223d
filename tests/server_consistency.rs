//! Differential suite for the serving tier: every response produced
//! by the batching worker pool must equal the response a serial
//! `LockedBTreeMap` oracle gives for the same operation sequence —
//! coalescing point ops into `get_many`/`bulk_insert` runs is an
//! optimization, never a semantics change. The suite serves `u64` and
//! `Composite<u64>` keys, whose `==` compares every field, and `f64`
//! keys only in tests whose responses carry no key, so `==` on the
//! typed responses is exact.
//!
//! Four angles:
//!
//! 1. **Serial**: one client, strict call/response over dependent
//!    sequences (insert → get → remove → get the same key, scans,
//!    batches straddling shard boundaries).
//! 2. **Pipelined**: one client submits windows of in-flight point
//!    and batch ops without waiting. Same-key ops share a shard queue
//!    (FIFO), so submission order is the serial order the oracle
//!    applies.
//! 3. **Concurrent**: many client threads, each writing a private
//!    key range while reading the shared preload, so every thread's
//!    expected responses are deterministic. After shutdown, the
//!    quiescent index must equal the oracle pair-for-pair.
//! 4. **Durable**: the same checks over a WAL-backed
//!    `DurableShardedAlex`, whose reopened state after a graceful
//!    shutdown must equal the oracle pair-for-pair.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use alex_repro::alex_api::{
    check_batch_keys, Composite, ConcurrentIndex, IndexRead, InsertError, LockedBTreeMap,
    SentinelKey,
};
use alex_repro::alex_core::AlexConfig;
use alex_repro::alex_server::{Request, Response, Server, ServerConfig};
use alex_repro::alex_sharded::{DurableShardedAlex, ShardedAlex};
use alex_repro::alex_wal::tempdir::TempDir;
use alex_repro::alex_wal::{SyncPolicy, WalOptions};

type Req = Request<u64, u64>;

/// Apply one request to the oracle with exactly the server's
/// semantics: first-writer-wins inserts, reserved-key refusals,
/// inclusive-start scans, batch inserts that dedupe against both the
/// map and the batch — and batches refused whole when any key is one
/// no index stores, decided by the backends' own [`check_batch_keys`].
fn oracle_exec<K>(oracle: &LockedBTreeMap<K, u64>, request: &Request<K, u64>) -> Response<K, u64>
where
    K: Ord + Copy + SentinelKey + Send + Sync + core::fmt::Debug,
{
    match request {
        Request::Get { key } => Response::Value(oracle.get(key)),
        Request::Insert { key, value } => match ConcurrentIndex::insert(oracle, *key, *value) {
            Ok(()) => Response::Inserted(true),
            Err(InsertError::DuplicateKey) => Response::Inserted(false),
            Err(e) => Response::Rejected(e),
        },
        Request::Remove { key } => Response::Removed(ConcurrentIndex::remove(oracle, key)),
        Request::Scan { start, limit } => {
            let mut out = Vec::new();
            oracle.scan_from(start, *limit as usize, &mut |k, v| out.push((*k, *v)));
            Response::Entries(out)
        }
        Request::BatchGet { keys } => {
            Response::Values(keys.iter().map(|k| oracle.get(k)).collect())
        }
        Request::BatchInsert { pairs } => {
            if let Err(e) = check_batch_keys(pairs) {
                return Response::Rejected(e);
            }
            Response::InsertedCount(
                pairs
                    .iter()
                    .filter(|(k, v)| ConcurrentIndex::insert(oracle, *k, *v).is_ok())
                    .count() as u64,
            )
        }
    }
}

fn preload(n: u64) -> Vec<(u64, u64)> {
    (0..n).map(|k| (k * 2 + 1, k * 31)).collect()
}

type TestServer = Server<u64, u64, ShardedAlex<u64, u64>>;

fn serve(
    pairs: &[(u64, u64)],
    shards: usize,
    max_batch: usize,
) -> (TestServer, LockedBTreeMap<u64, u64>) {
    let index = ShardedAlex::bulk_load(pairs, shards, AlexConfig::ga_armi());
    let server = Server::start(index, ServerConfig { queue_capacity: 256, max_batch });
    (server, LockedBTreeMap::from_pairs(pairs))
}

/// A deterministic xorshift so the suite needs no RNG plumbing.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z ^ (z >> 27)
}

#[test]
fn serial_dependent_sequences_match_the_oracle_byte_for_byte() {
    let pairs = preload(4000);
    let (server, oracle) = serve(&pairs, 4, 32);
    let client = server.client();

    let mut ops: Vec<Req> = Vec::new();
    for i in 0..600u64 {
        let r = mix(i) % 100;
        let hot = 20_000 + (mix(i * 7) % 500); // private write range
        let cold = (mix(i * 13) % 4000) * 2 + 1; // preload key
        ops.push(match r {
            0..=39 => Request::Get { key: if r.is_multiple_of(2) { cold } else { hot } },
            40..=59 => Request::Insert { key: hot, value: i },
            60..=69 => Request::Remove { key: hot },
            70..=79 => Request::Scan { start: cold.saturating_sub(10), limit: (r - 65) as u32 },
            80..=89 => {
                let mut keys: Vec<u64> =
                    (0..20).map(|j| (mix(i * 100 + j) % 4500) * 2 + 1).collect();
                keys.sort_unstable();
                Request::BatchGet { keys }
            }
            _ => {
                // Duplicate keys within the batch exercise the
                // first-wins dedupe; overlap with `hot` exercises the
                // presence check.
                let mut pairs: Vec<(u64, u64)> =
                    (0..15).map(|j| (20_000 + (mix(i * 31 + j) % 600), i * 100 + j)).collect();
                pairs.sort_by_key(|p| p.0);
                Request::BatchInsert { pairs }
            }
        });
    }
    for (op_id, request) in ops.into_iter().enumerate() {
        let want = oracle_exec(&oracle, &request);
        let got = client.call(request);
        assert_eq!(got, want, "serial: op {op_id}");
    }
    let index = server.shutdown();
    assert_eq!(index.len(), oracle.len(), "quiescent length");
}

#[test]
fn pipelined_windows_preserve_per_key_order() {
    let pairs = preload(2000);
    let (server, oracle) = serve(&pairs, 4, 16);
    let client = server.client();

    // Windows of in-flight ops. Dependent ops on the same key land in
    // the same shard queue, so FIFO per queue == submission order;
    // cross-key point ops commute. Scans are excluded (they read
    // cross-shard state mid-window).
    const WINDOW: usize = 32;
    let mut op_id = 0u64;
    for w in 0..40u64 {
        let mut window = Vec::with_capacity(WINDOW);
        for i in 0..WINDOW as u64 {
            let k = 50_000 + (mix(w * 1000 + i) % 64); // tiny hot set: heavy same-key traffic
            let request = match mix(w * 77 + i) % 5 {
                0 => Request::Insert { key: k, value: w * 100 + i },
                1 => Request::Get { key: k },
                2 => Request::Remove { key: k },
                3 => {
                    let mut keys: Vec<u64> = (0..8).map(|j| 50_000 + (mix(i * 9 + j) % 64)).collect();
                    keys.sort_unstable();
                    Request::BatchGet { keys }
                }
                _ => {
                    let mut ps: Vec<(u64, u64)> =
                        (0..6).map(|j| (50_000 + (mix(i * 11 + j) % 64), j)).collect();
                    ps.sort_by_key(|p| p.0);
                    Request::BatchInsert { pairs: ps }
                }
            };
            let want = oracle_exec(&oracle, &request);
            window.push((op_id, client.submit(request), want));
            op_id += 1;
        }
        for (id, pending, want) in window {
            assert_eq!(pending.wait(), want, "pipelined: op {id}");
        }
    }
    server.shutdown();
}

#[test]
fn concurrent_clients_get_byte_identical_responses_and_a_consistent_quiescent_state() {
    let pairs = preload(6000);
    let (server, oracle) = serve(&pairs, 4, 64);
    let oracle = Arc::new(oracle);
    const CLIENTS: u64 = 4;
    const OPS: u64 = 1500;

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let client = server.client();
            let oracle = Arc::clone(&oracle);
            scope.spawn(move || {
                // Private write range per client: expected responses
                // stay deterministic under full concurrency because
                // no other thread touches these keys, and reads of
                // the preload see immutable state.
                let base = 1_000_000 + c * 100_000;
                const WINDOW: usize = 24;
                let mut window = Vec::with_capacity(WINDOW);
                for i in 0..OPS {
                    let op_id = c * OPS + i;
                    let private = base + mix(c * 31 + i) % 200;
                    let shared = (mix(i * 3 + c) % 6000) * 2 + 1;
                    let request = match mix(c * 1000 + i) % 10 {
                        0..=3 => Request::Get { key: shared },
                        4..=5 => Request::Insert { key: private, value: op_id },
                        6 => Request::Remove { key: private },
                        7 => Request::Get { key: private },
                        8 => {
                            let mut keys: Vec<u64> =
                                (0..10).map(|j| base + mix(i * 7 + j) % 200).collect();
                            keys.sort_unstable();
                            Request::BatchGet { keys }
                        }
                        _ => {
                            let mut ps: Vec<(u64, u64)> = (0..8)
                                .map(|j| (base + mix(i * 17 + j) % 200, op_id * 10 + j))
                                .collect();
                            ps.sort_by_key(|p| p.0);
                            Request::BatchInsert { pairs: ps }
                        }
                    };
                    let want = oracle_exec(&oracle, &request);
                    window.push((op_id, client.submit(request), want));
                    if window.len() == WINDOW {
                        for (id, pending, want) in window.drain(..) {
                            assert_eq!(pending.wait(), want, "concurrent: op {id}");
                        }
                    }
                }
                for (id, pending, want) in window.drain(..) {
                    assert_eq!(pending.wait(), want, "concurrent tail: op {id}");
                }
            });
        }
    });

    // Quiescent equality: after a graceful shutdown the index and the
    // oracle hold exactly the same pairs.
    let index = server.shutdown();
    assert_eq!(index.len(), oracle.len(), "quiescent length");
    let mut index_pairs = Vec::with_capacity(index.len());
    index.scan_from(&0, usize::MAX, |k, v| index_pairs.push((*k, *v)));
    let mut oracle_pairs = Vec::with_capacity(oracle.len());
    oracle.scan_from(&0, usize::MAX, &mut |k: &u64, v: &u64| oracle_pairs.push((*k, *v)));
    assert_eq!(index_pairs, oracle_pairs, "quiescent pair-for-pair equality");
}

#[test]
fn batch_requests_straddling_every_boundary_match_the_oracle() {
    let pairs = preload(8000);
    let (server, oracle) = serve(&pairs, 8, 32);
    let client = server.client();
    // One giant batch touching every shard, with misses interleaved.
    let mut keys: Vec<u64> = (0..2000).map(|i| i * 8 + (i % 3)).collect();
    keys.sort_unstable();
    let request = Request::BatchGet { keys };
    let want = oracle_exec(&oracle, &request);
    assert_eq!(client.call(request), want, "boundary batch get");

    let mut ps: Vec<(u64, u64)> = (0..2000).map(|i| (i * 7 + (i % 2), i)).collect();
    ps.sort_by_key(|p| p.0);
    ps.dedup_by_key(|p| p.0);
    let request = Request::BatchInsert { pairs: ps };
    let want = oracle_exec(&oracle, &request);
    assert_eq!(client.call(request), want, "boundary batch insert");

    let index = server.shutdown();
    assert_eq!(index.len(), oracle.len());
}

// ----------------------------------------------------------------------
// Multi-tenant serving over composite (tenant, key) keys
// ----------------------------------------------------------------------

type TenantKey = Composite<u64>;

/// Concurrent per-tenant clients over a `(tenant, key)` composite
/// index: tenant-major ordering makes the shard pool multi-tenant —
/// each tenant's keyspace is a contiguous key range, so a tenant's
/// dependent ops land in FIFO shard queues and its expected responses
/// stay deterministic under full concurrency. Every response must be
/// byte-identical to the `LockedBTreeMap` oracle's, and the quiescent
/// index must equal the oracle pair-for-pair.
#[test]
fn multi_tenant_composite_clients_match_the_oracle_byte_for_byte() {
    const TENANTS: u64 = 6;
    const OPS: u64 = 1200;
    // Preload: every tenant owns even keys 0..2000 (tenant-major order
    // keeps the pairs sorted for bulk_load).
    let pairs: Vec<(TenantKey, u64)> = (0..TENANTS)
        .flat_map(|t| (0..1000u64).map(move |k| (Composite::new(t, k * 2), t * 1_000_000 + k)))
        .collect();
    let index = ShardedAlex::bulk_load(&pairs, 4, AlexConfig::ga_armi());
    let server = Server::start(index, ServerConfig { queue_capacity: 256, max_batch: 32 });
    let oracle = Arc::new(LockedBTreeMap::from_pairs(&pairs));

    std::thread::scope(|scope| {
        for t in 0..TENANTS {
            let client = server.client();
            let oracle = Arc::clone(&oracle);
            scope.spawn(move || {
                // Each client writes only its own tenant's odd keys, so
                // no other thread can perturb its expected responses;
                // reads of any tenant's preloaded evens see immutable
                // state.
                const WINDOW: usize = 16;
                let mut window = Vec::with_capacity(WINDOW);
                for i in 0..OPS {
                    let op_id = t * OPS + i;
                    let own = |k: u64| Composite::new(t, k);
                    let private = mix(t * 31 + i) % 400 * 2 + 1;
                    let other_tenant = mix(i) % TENANTS;
                    let shared = Composite::new(other_tenant, (mix(i * 3 + t) % 1100) * 2);
                    let request = match mix(t * 1000 + i) % 10 {
                        0..=2 => Request::Get { key: shared },
                        3..=4 => Request::Insert { key: own(private), value: op_id },
                        5 => Request::Remove { key: own(private) },
                        6 => Request::Get { key: own(private) },
                        7 => {
                            // A sorted batch read crossing tenants is
                            // still deterministic on preloaded evens.
                            let mut keys: Vec<TenantKey> = (0..TENANTS)
                                .map(|ot| Composite::new(ot, (mix(i * 7 + ot) % 1100) * 2))
                                .collect();
                            keys.sort_unstable();
                            Request::BatchGet { keys }
                        }
                        _ => {
                            let mut ps: Vec<(TenantKey, u64)> = (0..8)
                                .map(|j| (own(mix(i * 17 + j) % 400 * 2 + 1), op_id * 10 + j))
                                .collect();
                            ps.sort_by_key(|p| p.0);
                            Request::BatchInsert { pairs: ps }
                        }
                    };
                    let want = oracle_exec(&oracle, &request);
                    window.push((op_id, client.submit(request), want));
                    if window.len() == WINDOW {
                        for (id, pending, want) in window.drain(..) {
                            assert_eq!(pending.wait(), want, "tenant: op {id}");
                        }
                    }
                }
                for (id, pending, want) in window.drain(..) {
                    assert_eq!(pending.wait(), want, "tenant tail: op {id}");
                }
            });
        }
    });

    let index = server.shutdown();
    assert_eq!(index.len(), oracle.len(), "quiescent length");
    let mut index_pairs = Vec::with_capacity(index.len());
    index.scan_from(&Composite::new(0, 0), usize::MAX, |k, v| index_pairs.push((*k, *v)));
    let mut oracle_pairs = Vec::with_capacity(oracle.len());
    oracle
        .scan_from(&Composite::new(0, 0), usize::MAX, &mut |k: &TenantKey, v: &u64| {
            oracle_pairs.push((*k, *v))
        });
    assert_eq!(index_pairs, oracle_pairs, "quiescent pair-for-pair equality");
}

// ----------------------------------------------------------------------
// Reserved-key refusals through the full serving stack
// ----------------------------------------------------------------------

/// A write naming the reserved `MAX_KEY` sentinel answers
/// [`Response::Rejected`] end to end — and a batch with a sentinel
/// tail is refused whole, before any earlier shard applied its run.
#[test]
fn sentinel_writes_are_rejected_end_to_end() {
    let pairs = preload(2000);
    let (server, oracle) = serve(&pairs, 4, 16);
    let client = server.client();

    let requests = [
        Request::Insert { key: u64::MAX, value: 1 },
        Request::BatchInsert { pairs: vec![(100u64, 1u64), (4242, 2), (u64::MAX, 3)] },
    ];
    for (op_id, request) in requests.into_iter().enumerate() {
        let want = oracle_exec(&oracle, &request);
        assert_eq!(want, Response::Rejected(InsertError::UnsupportedKey));
        assert_eq!(client.call(request), want, "sentinel: op {op_id}");
    }
    // All-or-nothing: the refused batch's leading pairs never landed,
    // even though they route to earlier shards than the sentinel.
    assert_eq!(client.call(Request::Get { key: 100 }), Response::Value(None));
    assert_eq!(client.call(Request::Get { key: 4242 }), Response::Value(None));
    // The sentinel itself never becomes readable, and serving goes on.
    assert_eq!(client.call(Request::Get { key: u64::MAX }), Response::Value(None));
    assert_eq!(client.call(Request::Insert { key: 100, value: 9 }), Response::Inserted(true));
    assert_eq!(client.call(Request::Get { key: 100 }), Response::Value(Some(9)));
    let index = server.shutdown();
    assert_eq!(index.len(), oracle.len() + 1, "only the post-refusal insert landed");
}

/// A client may submit any `f64`, NaN included, so NaN keys reach the
/// workers. Coalesced into get and insert runs with ordinary keys, a
/// NaN must answer what the serial path answers — a get `Value(None)`,
/// an insert `Rejected` — without costing its neighbours their answers
/// or the worker its life. Replies are awaited with a deadline, so a
/// dead worker fails the test instead of hanging it.
#[test]
fn nan_keys_in_pipelined_runs_answer_like_the_serial_path() {
    let pairs: Vec<(f64, u64)> = (0..2000).map(|i| (i as f64 * 0.5, i)).collect();
    let nans = [f64::NAN, -f64::NAN, f64::from_bits(0x7FF0_0000_0000_0001)];
    // The serial answers: a map keyed by bit pattern (no key here is
    // -0.0, so bits and `==` agree), refusing what every write refuses.
    let mut model: HashMap<u64, u64> = pairs.iter().map(|(k, v)| (k.to_bits(), *v)).collect();
    let mut requests: Vec<Request<f64, u64>> = Vec::new();
    let mut wants = Vec::new();
    // Alternating bursts of gets and inserts, so each burst coalesces
    // into one run; the bursts of one op put a NaN on the singleton
    // paths too.
    let mut i = 0u64;
    for (burst, len) in [200u64, 1, 60, 1, 90, 1, 1, 40].into_iter().enumerate() {
        for _ in 0..len {
            i += 1;
            let key = if mix(i).is_multiple_of(9) || len == 1 {
                nans[(mix(i * 5) % 3) as usize]
            } else {
                (mix(i * 3) % 3000) as f64 * 0.5
            };
            let (request, want) = if burst % 2 == 0 {
                let value = if key.is_sentinel() { None } else { model.get(&key.to_bits()).copied() };
                (Request::Get { key }, Response::Value(value))
            } else if key.is_sentinel() {
                (Request::Insert { key, value: i }, Response::Rejected(InsertError::UnsupportedKey))
            } else {
                let fresh = !model.contains_key(&key.to_bits());
                if fresh {
                    model.insert(key.to_bits(), i);
                }
                (Request::Insert { key, value: i }, Response::Inserted(fresh))
            };
            requests.push(request);
            wants.push(want);
        }
    }

    // The server lives on its own thread: if a worker dies, the
    // deadline below fails the test without this thread dropping (and
    // so joining) the dead pool.
    let (tx, rx) = std::sync::mpsc::channel();
    let serving = std::thread::spawn(move || {
        let index = ShardedAlex::bulk_load(&pairs, 1, AlexConfig::ga_armi());
        let server = Server::start(index, ServerConfig { queue_capacity: 256, max_batch: 128 });
        let client = server.client();
        let pending: Vec<_> = requests.into_iter().map(|r| client.submit(r)).collect();
        for reply in pending {
            tx.send(reply.wait()).expect("the test thread waits for every reply");
        }
        server.shutdown().len()
    });
    for (op_id, want) in wants.iter().enumerate() {
        let got = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("op {op_id}: no reply within 10 s, the worker died"));
        assert_eq!(&got, want, "nan: op {op_id}");
    }
    assert_eq!(serving.join().expect("server thread"), model.len(), "only ordinary keys landed");
}

/// A `BatchInsert` spanning every shard with a NaN in it is refused
/// whole before it is split, by the [`check_batch_keys`] the oracle
/// and every backend use: no shard applies its part, so the index
/// still equals its preload.
#[test]
fn nan_inside_a_batch_insert_spanning_shards_is_refused_whole() {
    let pairs: Vec<(f64, u64)> = (0..2000).map(|i| (i as f64 * 0.5, i)).collect();
    let index = ShardedAlex::bulk_load(&pairs, 4, AlexConfig::ga_armi());
    let server = Server::start(index, ServerConfig { queue_capacity: 256, max_batch: 32 });
    let client = server.client();
    // Fresh keys across the whole key range, with the NaN first,
    // inside and last.
    let fresh: Vec<(f64, u64)> = (0..8).map(|i| (i as f64 * 125.0 + 0.25, i)).collect();
    for at in [0, 4, fresh.len()] {
        let mut batch = fresh.clone();
        batch.insert(at, (f64::NAN, 99));
        assert_eq!(
            client.call(Request::BatchInsert { pairs: batch }),
            Response::Rejected(InsertError::UnsupportedKey),
            "NaN at {at}"
        );
    }
    let index = server.shutdown();
    let mut got = Vec::with_capacity(pairs.len());
    index.scan_from(&f64::NEG_INFINITY, usize::MAX, |k, v| got.push((*k, *v)));
    assert_eq!(got, pairs, "no part of a refused batch landed");
}

// ----------------------------------------------------------------------
// Durable serving: graceful shutdown makes every acknowledged write
// recoverable
// ----------------------------------------------------------------------

/// A 4-shard `DurableShardedAlex` behind the worker pool, with 64-op
/// group commit and no fsync, so each shard's WAL holds an uncommitted
/// tail until `shutdown` flushes it. Every insert and remove answer
/// must match the oracle, including the refusals of the reserved
/// sentinel, and the store reopened from its directory must scan equal
/// to the oracle pair for pair.
#[test]
fn durable_backend_answers_match_the_oracle_and_survive_reopen() {
    let dir = TempDir::new("server-durable");
    let config = AlexConfig::ga_armi();
    let opts = WalOptions { sync: SyncPolicy::Never, group_commit_ops: 64, ..WalOptions::default() };
    let pairs = preload(4000);
    let backend = DurableShardedAlex::create(dir.path(), &pairs, 4, config, opts).unwrap();
    let server = Server::start(backend, ServerConfig { queue_capacity: 256, max_batch: 32 });
    let oracle = LockedBTreeMap::from_pairs(&pairs);
    let client = server.client();

    // Keys below 8000 mix preloaded odd keys with fresh even ones, so
    // inserts both land and collide, and removes both hit and miss.
    for i in 0..3000u64 {
        let key = mix(i) % 10_000;
        let request = if i % 100 == 99 {
            // Sent alone, the sentinel takes the singleton path into
            // `DurableShardedAlex::insert`, whose `InvalidInput` the
            // backend answers as `Rejected(UnsupportedKey)`.
            Request::Insert { key: u64::MAX, value: i }
        } else if mix(i * 7).is_multiple_of(3) {
            Request::Remove { key }
        } else {
            Request::Insert { key, value: i }
        };
        let want = oracle_exec(&oracle, &request);
        assert_eq!(client.call(request), want, "durable: op {i}");
    }
    drop(server.shutdown());

    let (reopened, _) = DurableShardedAlex::<u64, u64>::open(dir.path(), config, opts).unwrap();
    let mut want = Vec::new();
    oracle.scan_from(&0, usize::MAX, &mut |k, v| want.push((*k, *v)));
    let mut got = Vec::with_capacity(want.len());
    reopened.scan_from(&0, usize::MAX, |k, v| got.push((*k, *v)));
    assert_eq!(got.len(), want.len(), "recovered pair count");
    assert_eq!(got, want, "recovered state diverged from the oracle");
}
