//! The benchmark: one named workload per process.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--scale full|smoke]
//! ```
//!
//! Each workload runs on one fixed key set; the op traces, insert
//! orders and arrival schedules come from `--seed`, and every response
//! is checked against its known answer. Each metric is printed on its
//! own line as `name value unit`; the last line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! traced run also writes its spans to `perfbench/.run/`.

mod cli;
mod measure;
mod openloop;
mod report;
mod rng;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use cli::Args;
use measure::Reference;
use report::Check;
use trace::Tracer;
use workloads::Run;

const FLAGS: &[&str] = &["workload", "seed", "seconds", "trace", "scale"];

struct Workload {
    name: &'static str,
    run: fn(&mut Run),
    /// Keys in the workload's index, which sizes its reference kernel.
    keys: usize,
    /// The reference kernel's ns per search on the reference VM.
    reference_ns: f64,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "read-large",
        run: workloads::read_large::run,
        keys: workloads::read_large::KEYS,
        reference_ns: workloads::read_large::REFERENCE_NS,
    },
    Workload {
        name: "write-heavy",
        run: workloads::write_heavy::run,
        keys: workloads::write_heavy::KEYS,
        reference_ns: workloads::write_heavy::REFERENCE_NS,
    },
    Workload {
        name: "serve",
        run: workloads::serve::run,
        keys: workloads::serve::KEYS,
        reference_ns: workloads::serve::REFERENCE_NS,
    },
    Workload {
        name: "durable-ingest",
        run: workloads::durable_ingest::run,
        keys: workloads::durable_ingest::KEYS,
        reference_ns: workloads::durable_ingest::REFERENCE_NS,
    },
];

const USAGE: &str = "usage: perfbench --workload <read-large|write-heavy|serve|durable-ingest> \
--seed <u64> [--seconds <n>] [--trace <0|1>] [--scale <full|smoke>]";

struct Options {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Key-set and trace size factor: 1 for `full`, 0.01 for `smoke`.
    scale: f64,
}

fn options(args: &Args) -> Result<Options, String> {
    let name = args.string("workload").ok_or("--workload is required")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    if args.string("seed").is_none() {
        return Err("--seed is required".into());
    }
    let seed = args.number("seed", 0u64)?;
    let seconds = args.number("seconds", 16u32)?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    let trace = match args.string("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    let scale = match args.string("scale").unwrap_or("full") {
        "full" => 1.0,
        "smoke" => 0.01,
        other => return Err(format!("--scale expects full or smoke, got {other:?}")),
    };
    Ok(Options {
        workload,
        seed,
        seconds: f64::from(seconds),
        trace,
        scale,
    })
}

fn main() -> ExitCode {
    let opts = match Args::parse(std::env::args().skip(1), FLAGS).and_then(|args| options(&args)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".run");
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }
    let workload = opts.workload;
    let mut run = Run {
        seed: opts.seed,
        seconds: opts.seconds,
        scale: opts.scale,
        tracer: Tracer::new(opts.trace),
        reference: Reference::new(
            (workload.keys as f64 * opts.scale) as usize,
            workload.reference_ns,
        ),
        check: Check::default(),
        e2e: BTreeMap::new(),
        layer: BTreeMap::new(),
        run_dir,
    };
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}",
        workload.name, opts.seed, opts.seconds, opts.trace
    );
    (workload.run)(&mut run);
    let speed = run.reference.median_speed();
    eprintln!("perfbench: machine speed {speed:.3} of the reference VM's");
    run.layer.insert("reference.speed", speed);

    let missing = if opts.trace {
        finish_trace(&mut run, workload.name);
        report::print_result(report::PER_LAYER, &run.layer, &run.check)
    } else {
        report::print_result(report::END_TO_END, &run.e2e, &run.check)
    };
    for message in run.check.messages() {
        eprintln!("perfbench: check failed: {message}");
    }
    if !missing.is_empty() {
        eprintln!("perfbench: metrics not measured: {}", missing.join(", "));
    }
    ExitCode::SUCCESS
}

/// The trace's own metrics, its nesting check, and its span file.
fn finish_trace(run: &mut Run, workload: &str) {
    let tracer = &run.tracer;
    let (covered, wall) = tracer.busy_coverage(trace::timer_ns());
    let overhead = tracer.busy_child_spans() as f64 * trace::span_cost_ns() / wall.max(1.0);
    run.layer
        .insert("trace.unattributed_frac", 1.0 - covered / wall.max(1.0));
    run.layer.insert("trace.overhead_frac", overhead);
    let violations = tracer.nesting_violations();
    run.check.expect_that(violations == 0, || {
        format!("{violations} spans lie outside their parent")
    });
    if tracer.dropped() > 0 {
        eprintln!(
            "perfbench: span buffer full, {} spans dropped",
            tracer.dropped()
        );
    }
    let path = run
        .run_dir
        .join(format!("trace-{workload}-{}.tsv", run.seed));
    match tracer.write(&path) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => run
            .check
            .expect_that(false, || format!("cannot write {}: {e}", path.display())),
    }
}
