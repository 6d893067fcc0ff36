//! `nnlqp-benchmark`: one workload per process, single client, closed
//! loop. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ladder; the last line of standard output is the result as
//! one JSON object. See `benchmark/README.md`.

mod ladder;
mod spans;
mod stats;
mod workloads;
mod world;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{drive, Budget, Predict, QueryMiss, QueryStored, Train, Workload};
use world::{bootstrap, Corpus, World};

/// Every end-to-end metric, with its unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("acc10_pct", "%"),
];

/// The corpus is the benchmark's data set, the same for every seed, so
/// that accuracy is comparable between runs; `--seed` drives the traffic.
const CORPUS_SEED: u64 = 0x4e4e_4c51_5021;
/// Bootstraps per plain run; `setup_s` is the fastest. The host's slow
/// spells add a third to a bootstrap and nothing ever shortens one, so the
/// fastest of three repeats from run to run (quartile distance over 20
/// runs: 5.5 % of the median) where their median does not (16.4 %).
const SETUPS: usize = 3;
/// Everything the benchmark writes: traces, layer reports, temp stores.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 14.0,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(args)
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The metrics as one JSON object, name to value and unit.
    fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to string");
        }
        out.push('}');
        out
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }
}

/// What to do with the workload once it is built; generic over it.
trait Runner {
    fn run<W: Workload>(self, w: W, world: &World) -> Report;
}

/// The plain run: warm up, time `seconds`, audit.
struct Plain {
    seconds: f64,
    setup_s: f64,
}

impl Runner for Plain {
    fn run<W: Workload>(self, mut w: W, world: &World) -> Report {
        let clock = world.service.trace_clock();
        w.settle();
        let warm = w.warm_ops();
        // Read before the workload runs: what it adds (the store growing on
        // `query-miss`, compaction buffers) depends on how many operations
        // the machine gets through and on when the compactor's timer fires.
        let peak_rss_mb = stats::peak_rss_mib();
        let warmed = drive(&mut w, 0, Budget::Ops(warm), clock, None);
        let timed = drive(&mut w, warm, Budget::Seconds(self.seconds), clock, None);
        let (acc10_pct, audit_failed) = w.accuracy();
        let s = stats::summarize(&timed.ops, W::WINDOW_OPS, W::TAIL_Q);
        eprintln!(
            "{} ops in {} windows of {}; latency_tail_us is p{} with {} samples beyond it in a window",
            timed.ops.len(),
            s.windows,
            s.per_window,
            W::TAIL_Q * 100.0,
            s.beyond,
        );
        let values = [
            s.throughput_ops_s,
            s.p50_us,
            s.tail_us,
            self.setup_s,
            peak_rss_mb,
            acc10_pct,
        ];
        Report {
            attempted: timed.ops.len() as u64,
            failed: warmed.failed + timed.failed + audit_failed,
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), value)| (name, value, unit))
                .collect(),
        }
    }
}

/// The traced run: the layer ladder and the plain/traced replay.
struct Traced<'a> {
    name: &'a str,
    corpus: &'a Corpus,
    seed: u64,
    seconds: f64,
}

impl Runner for Traced<'_> {
    fn run<W: Workload>(self, w: W, world: &World) -> Report {
        let out = Path::new(OUT_DIR);
        let (values, replay) = ladder::run(
            w,
            self.name,
            world,
            self.corpus,
            self.seed,
            self.seconds,
            out,
        );
        let report = Report {
            attempted: replay.attempted,
            failed: replay.failed,
            metrics: ladder::PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, values[name], unit))
                .collect(),
        };
        std::fs::write(
            out.join(format!("layers-{}.json", self.name)),
            report.metrics_json() + "\n",
        )
        .expect("write the layer report");
        report
    }
}

fn dispatch<R: Runner>(name: &str, world: &World, corpus: &Corpus, seed: u64, runner: R) -> Report {
    match name {
        "query-hot" => runner.run(QueryStored::hot(world, corpus, seed), world),
        "query-db" => runner.run(QueryStored::db(world, corpus, seed), world),
        "query-miss" => runner.run(QueryMiss::new(world, corpus, seed), world),
        "predict-cold" => runner.run(Predict::cold(world, corpus, seed), world),
        "predict-cached" => runner.run(Predict::cached(world, corpus, seed), world),
        "train" => runner.run(Train::new(world, corpus), world),
        other => unreachable!("workload {other} passed argument checking"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("nnlqp-benchmark: {e}");
            eprintln!(
                "usage: nnlqp-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let out = Path::new(OUT_DIR);
    let corpus = Corpus::generate(CORPUS_SEED);

    // `setup_s`: the fastest of several full bootstraps, each on a fresh
    // directory; the last one is the system the workload then runs on.
    // The traced run does not report it and sets up once.
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = f64::INFINITY;
    let mut world = None;
    for _ in 0..setups {
        drop(world.take());
        let start = Instant::now();
        world = Some(bootstrap(&corpus, out));
        setup_s = setup_s.min(start.elapsed().as_secs_f64());
    }
    let world = world.expect("at least one bootstrap");

    let report = if args.trace {
        let runner = Traced {
            name: &args.workload,
            corpus: &corpus,
            seed: args.seed,
            seconds: args.seconds,
        };
        dispatch(&args.workload, &world, &corpus, args.seed, runner)
    } else {
        let runner = Plain {
            seconds: args.seconds,
            setup_s,
        };
        dispatch(&args.workload, &world, &corpus, args.seed, runner)
    };
    // Shut the service down and remove its directory before reporting.
    drop(world);

    for (name, value, unit) in &report.metrics {
        eprintln!("{:<14} {name:<32} {value:>14.4} {unit}", args.workload);
    }
    println!("{}", report.to_json());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "nnlqp-benchmark: {} of {} operations failed",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}
