//! Server quickstart: stand a worker pool up over a sharded ALEX,
//! talk to it through typed requests and responses, watch point ops
//! coalesce into batched index runs, and shut down gracefully.
//!
//! Run with:
//! ```sh
//! cargo run --release --example server_quickstart
//! ```

use std::sync::Arc;

use alex_repro::alex_core::AlexConfig;
use alex_repro::alex_datasets::lognormal_keys;
use alex_repro::alex_server::{
    run_load, Arrival, LoadSpec, Request, Response, Server, ServerConfig,
};
use alex_repro::alex_sharded::ShardedAlex;

fn main() {
    // 1. Bulk-load a 4-shard index and start one worker per shard.
    //    Each worker exclusively owns its shard's key range; the
    //    server routes every request to its owner.
    let mut keys = lognormal_keys(200_000, 42);
    keys.sort_unstable();
    keys.dedup();
    let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k ^ 0xBEEF)).collect();
    let index = ShardedAlex::bulk_load(&pairs, 4, AlexConfig::ga_armi());
    let server = Server::start(index, ServerConfig::default());
    println!("serving {} keys across {} workers", pairs.len(), server.num_workers());

    // 2. The client handle is the whole surface: typed requests in,
    //    typed responses out, passed to the workers in process.
    let client = server.client();
    let probe = keys[keys.len() / 2];
    assert_eq!(client.call(Request::Get { key: probe }), Response::Value(Some(probe ^ 0xBEEF)));
    assert_eq!(
        client.call(Request::Insert { key: u64::MAX - 1, value: 7 }),
        Response::Inserted(true)
    );
    match client.call(Request::Scan { start: probe, limit: 3 }) {
        Response::Entries(entries) => println!("3 keys from the median: {entries:?}"),
        other => panic!("unexpected scan response {other:?}"),
    }

    // 3. Batch requests split per owner worker, execute as one sorted
    //    run per shard, and reassemble in key order.
    let queries: Vec<u64> = keys.iter().step_by(keys.len() / 16).copied().collect();
    match client.call(Request::BatchGet { keys: queries.clone() }) {
        Response::Values(values) => {
            let hits = values.iter().filter(|v| v.is_some()).count();
            println!("batch get across all shards: {hits}/{} hits", queries.len());
        }
        other => panic!("unexpected batch response {other:?}"),
    }

    // 4. Load-generate: closed loop (RTT) vs open loop (scheduled-time
    //    latency at a fixed Poisson arrival rate). Under open-loop
    //    backlog the workers drain deeper batches — batch occupancy
    //    is the batching-under-load signal.
    let existing = Arc::new(keys);
    let fresh_base = existing.last().unwrap() + 1;
    for (name, arrival) in [
        ("closed-loop", Arrival::Closed),
        ("open-loop@80k", Arrival::Open { rate_per_sec: 80_000.0 }),
    ] {
        let spec = LoadSpec { ops: 40_000, clients: 2, read_pct: 90, arrival, seed: 7 };
        let report = run_load(&server.client(), &existing, fresh_base, &spec);
        let stats = server.stats().aggregate();
        println!(
            "{name}: p50 {:.0}us p99 {:.0}us p999 {:.0}us, {:.0} ops/s, {:.2} ops/batch",
            report.latency.p50() as f64 / 1e3,
            report.latency.p99() as f64 / 1e3,
            report.latency.p999() as f64 / 1e3,
            report.achieved_rate(),
            stats.batch_occupancy_mean(),
        );
    }

    // 5. Graceful shutdown: queues close, workers drain what they
    //    accepted, and the index comes back for direct use.
    let index = server.shutdown();
    println!("after shutdown: {} keys live in the returned index", index.len());
}
