//! `nnlqp` — command-line front end mirroring the paper's §7 interface.
//!
//! ```text
//! nnlqp query   --model model.json --platform gpu-T4-trt7.1-fp32 [--batch 1]
//! nnlqp predict --model model.json --platform gpu-T4-trt7.1-fp32 [--batch 1] \
//!               [--arch sage|transformer] [--train-family ResNet --train-count 40]
//! nnlqp trace   --model model.json --platform gpu-T4-trt7.1-fp32 [--flame]
//! nnlqp platforms
//! nnlqp export-model --family ResNet --output model.json
//! nnlqp lint    --model model.json [--platform NAME] [--json] [--deny-warnings]
//! nnlqp lint    --all-families [--nas-sample N] [--seed S]
//! nnlqp metrics [--platform NAME] [--family FAMILY] [--count N]
//! nnlqp db stats   --path DIR
//! nnlqp db verify  --path DIR
//! nnlqp db compact --path DIR
//! ```
//!
//! Model files are the JSON graph format of `nnlqp_ir::serialize`.
//!
//! `lint` exit codes are stable and scriptable:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | no rejection-severity findings |
//! | 1    | error-severity findings (or any warning with `--deny-warnings`) |
//! | 2    | usage error (bad flags, unknown platform or family) |
//! | 3    | I/O or parse failure reading a model file |
//!
//! JSON lint reports carry a `schema_version` field
//! (`nnlqp_analyze::REPORT_SCHEMA_VERSION`) so downstream consumers can
//! detect format changes. `--nas-sample N` extends the lint corpus with
//! `N` seeded NAS-Bench-201 cells (the CI gate lints the canonical
//! corpus plus such a sample).
//!
//! `trace` emits a Chrome-trace JSON timeline of one traced query (load
//! it in Perfetto / `chrome://tracing`), or a text timeline with
//! `--flame`. `metrics` runs a small measure-then-hit workload and prints
//! the whole metrics registry in Prometheus text exposition format,
//! self-checked through the bundled parser.
//!
//! `db` administers a durable store directory (the sharded WAL engine):
//! `stats` prints row counts and recovery health as JSON, `verify` walks
//! manifest, segments and WAL tails and exits 0 only for a clean store
//! (1 = damage or corruption, detailed on stderr), `compact` folds the
//! WAL tail into fresh snapshot segments and prints what it folded.

use nnlqp::{Nnlqp, Platform, QueryParams, TrainPredictorConfig};
use nnlqp_ir::serialize;
use nnlqp_models::ModelFamily;
use nnlqp_obs::{render_flamegraph, to_chrome_json, Recorder};
use nnlqp_sim::PlatformSpec;
use std::collections::HashMap;

fn usage() -> ! {
    eprintln!("usage:");
    eprintln!("  nnlqp query   --model FILE --platform NAME [--batch N] [--reps R]");
    eprintln!("  nnlqp predict --model FILE --platform NAME [--batch N]");
    eprintln!("                [--arch sage|transformer]");
    eprintln!("                [--train-family FAMILY] [--train-count N] [--epochs E]");
    eprintln!("  nnlqp trace   --model FILE --platform NAME [--batch N] [--reps R]");
    eprintln!("                [--seed S] [--output FILE] [--flame] [--width W]");
    eprintln!("  nnlqp platforms");
    eprintln!("  nnlqp export-model --family FAMILY --output FILE [--seed S]");
    eprintln!("  nnlqp lint    (--model FILE | --family FAMILY | --all-families)");
    eprintln!("                [--platform NAME] [--json] [--deny-warnings]");
    eprintln!("                [--nas-sample N] [--seed S]");
    eprintln!("                exit: 0 clean, 1 findings, 2 usage, 3 unreadable model");
    eprintln!("  nnlqp metrics [--platform NAME] [--family FAMILY] [--count N]");
    eprintln!("                [--batch N] [--reps R] [--seed S] [--output FILE]");
    eprintln!("  nnlqp db (stats | verify | compact) --path DIR");
    eprintln!("                exit (verify): 0 clean, 1 damaged or corrupt");
    std::process::exit(2);
}

/// Flags that take no value.
const BOOL_FLAGS: [&str; 4] = ["json", "all-families", "flame", "deny-warnings"];

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            if BOOL_FLAGS.contains(&key) {
                out.insert(key.to_string(), "true".to_string());
                continue;
            }
            match it.next() {
                Some(v) => {
                    out.insert(key.to_string(), v.clone());
                }
                None => {
                    eprintln!("error: missing value for --{key}");
                    usage();
                }
            }
        } else {
            eprintln!("error: unexpected argument {a}");
            usage();
        }
    }
    out
}

fn load_model(flags: &HashMap<String, String>) -> nnlqp_ir::Graph {
    let Some(path) = flags.get("model") else {
        eprintln!("error: --model is required");
        usage();
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(1);
    });
    serialize::from_json(&text).unwrap_or_else(|e| {
        eprintln!("error: {path} is not a valid model: {e}");
        std::process::exit(1);
    })
}

/// Build a default-farm system honoring `--reps` and `--seed`.
fn build_system(flags: &HashMap<String, String>) -> Nnlqp {
    let mut b = Nnlqp::builder();
    if let Some(r) = flags.get("reps") {
        b = b.reps(r.parse().expect("--reps must be a number"));
    }
    if let Some(s) = flags.get("seed") {
        b = b.seed(s.parse().expect("--seed must be a number"));
    }
    b.build()
}

/// Resolve `--platform` against the system's farm (canonical names, paper
/// aliases and unique case-insensitive abbreviations all work).
fn resolve_platform(system: &Nnlqp, flags: &HashMap<String, String>) -> Platform {
    let Some(name) = flags.get("platform") else {
        eprintln!("error: --platform is required");
        usage();
    };
    Platform::parse(system.farm(), name).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

/// `nnlqp db <action> --path DIR` — administer a durable store.
fn db_command(action: &str, flags: &HashMap<String, String>) -> ! {
    let Some(path) = flags.get("path") else {
        eprintln!("error: --path is required");
        usage();
    };
    let root = std::path::Path::new(path);
    match action {
        "stats" => {
            let (db, rec) = nnlqp_db::open_read_only(root).unwrap_or_else(|e| {
                eprintln!("error: cannot open store at {path}: {e}");
                std::process::exit(1);
            });
            let s = db.stats();
            println!(
                "{{\"models\": {}, \"platforms\": {}, \"latencies\": {}, \
                 \"total_bytes\": {}, \"seg_frames\": {}, \"wal_frames_replayed\": {}, \
                 \"wal_truncated_bytes\": {}, \"wal_frames_discarded\": {}, \"clean\": {}}}",
                s.models,
                s.platforms,
                s.latencies,
                s.total_bytes,
                rec.seg_frames,
                rec.wal_frames_replayed,
                rec.wal_truncated_bytes,
                rec.wal_frames_discarded,
                rec.clean()
            );
            std::process::exit(0);
        }
        "verify" => {
            let report = nnlqp_db::verify_store(root).unwrap_or_else(|e| {
                eprintln!("error: cannot verify store at {path}: {e}");
                std::process::exit(1);
            });
            eprintln!(
                "{} shards, {} segment frames, {} WAL frames, \
                 {} rows ({} models, {} platforms, {} latencies)",
                report.n_shards,
                report.seg_frames,
                report.wal_frames,
                report.models + report.platforms + report.latencies,
                report.models,
                report.platforms,
                report.latencies
            );
            if report.wal_truncated_bytes > 0 {
                eprintln!(
                    "damage: {} torn WAL tail bytes would be truncated on open",
                    report.wal_truncated_bytes
                );
            }
            if report.wal_frames_discarded > 0 {
                eprintln!(
                    "damage: {} intact frames dropped by the global-sequence gap rule",
                    report.wal_frames_discarded
                );
            }
            for e in &report.errors {
                eprintln!("corrupt: {e}");
            }
            if report.clean() {
                eprintln!("store is clean");
                std::process::exit(0);
            }
            std::process::exit(1);
        }
        "compact" => {
            let db = nnlqp_db::Database::open_durable(nnlqp_db::DurableOptions::new(root))
                .unwrap_or_else(|e| {
                    eprintln!("error: cannot open store at {path}: {e}");
                    std::process::exit(1);
                });
            let stats = db.compact().unwrap_or_else(|e| {
                eprintln!("error: compaction failed: {e}");
                std::process::exit(1);
            });
            println!(
                "{{\"frames\": {}, \"wal_bytes_folded\": {}, \"files_removed\": {}}}",
                stats.frames, stats.wal_bytes_folded, stats.files_removed
            );
            std::process::exit(0);
        }
        _ => {
            eprintln!("error: unknown db action {action}");
            usage();
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    if cmd == "db" {
        let Some(action) = args.get(1) else { usage() };
        db_command(action, &parse_flags(&args[2..]));
    }
    let flags = parse_flags(&args[1..]);
    let batch: u32 = flags
        .get("batch")
        .map(|s| s.parse().expect("--batch must be a number"))
        .unwrap_or(1);

    match cmd.as_str() {
        "platforms" => {
            for p in PlatformSpec::registry() {
                println!("{}", p.name);
            }
        }
        "export-model" => {
            let family = flags
                .get("family")
                .and_then(|f| ModelFamily::parse(f))
                .unwrap_or_else(|| {
                    eprintln!("error: --family must name a model family");
                    usage();
                });
            let Some(output) = flags.get("output") else {
                eprintln!("error: --output is required");
                usage();
            };
            let graph = match flags.get("seed") {
                Some(s) => {
                    let seed: u64 = s.parse().expect("--seed must be a number");
                    let mut r = nnlqp_ir::Rng64::new(seed);
                    family
                        .sample(&format!("{}-{seed}", family.name().to_lowercase()), &mut r)
                        .expect("generator is valid")
                }
                None => family.canonical().expect("generator is valid"),
            };
            std::fs::write(output, serialize::to_json(&graph)).unwrap_or_else(|e| {
                eprintln!("error: cannot write {output}: {e}");
                std::process::exit(1);
            });
            println!("wrote {} ({} nodes) to {output}", graph.name, graph.len());
        }
        "lint" => {
            let platform = flags
                .get("platform")
                .map(String::as_str)
                .unwrap_or("gpu-T4-trt7.1-fp32");
            let Some(spec) = PlatformSpec::by_name(platform) else {
                eprintln!("error: unknown platform: {platform}");
                std::process::exit(2);
            };
            // Assemble the lint targets.
            let mut graphs: Vec<nnlqp_ir::Graph> = Vec::new();
            if flags.contains_key("all-families") {
                for f in nnlqp_models::family::CORPUS_FAMILIES {
                    graphs.push(f.canonical().expect("built-in generator is valid"));
                }
            } else if let Some(f) = flags.get("family") {
                let family = ModelFamily::parse(f).unwrap_or_else(|| {
                    eprintln!("error: --family must name a model family");
                    usage();
                });
                graphs.push(family.canonical().expect("built-in generator is valid"));
            } else if let Some(path) = flags.get("model") {
                let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("error: cannot read {path}: {e}");
                    std::process::exit(3);
                });
                // Unchecked load: the linter diagnoses malformed graphs
                // instead of refusing to open them.
                let g = serialize::from_json_unchecked(&text).unwrap_or_else(|e| {
                    eprintln!("error: {path} is not a model file: {e}");
                    std::process::exit(3);
                });
                graphs.push(g);
            } else {
                eprintln!("error: one of --model, --family, --all-families is required");
                usage();
            }
            // Widen the corpus with seeded NAS-Bench cells: the same
            // sampled graphs the search/CI tooling sees.
            if let Some(n) = flags.get("nas-sample") {
                let n: usize = n.parse().unwrap_or_else(|_| {
                    eprintln!("error: --nas-sample must be a number");
                    usage();
                });
                let seed: u64 = flags
                    .get("seed")
                    .map(|s| s.parse().expect("--seed must be a number"))
                    .unwrap_or(1);
                for m in nnlqp_models::generate_family(ModelFamily::NasBench201, n, seed) {
                    graphs.push(m.graph);
                }
            }

            let mut any_errors = false;
            let mut any_warnings = false;
            let mut json_reports = Vec::new();
            for g in &graphs {
                let report = nnlqp_analyze::analyze(g, Some(&spec));
                any_errors |= report.has_errors();
                any_warnings |= report.count(nnlqp_analyze::Severity::Warn) > 0;
                if flags.contains_key("json") {
                    json_reports.push(report.render_json());
                } else {
                    print!("{}", report.render_text());
                }
            }
            if flags.contains_key("json") {
                println!("[{}]", json_reports.join(","));
            }
            let reject = any_errors || (flags.contains_key("deny-warnings") && any_warnings);
            std::process::exit(i32::from(reject));
        }
        "query" => {
            let model = load_model(&flags);
            let system = build_system(&flags);
            let platform = resolve_platform(&system, &flags);
            let result = system
                .query(&QueryParams::new(model, batch, platform))
                .unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                });
            println!(
                "{{\"latency_ms\": {:.6}, \"cache_hit\": {}, \"cost_s\": {:.3}}}",
                result.latency_ms, result.cache_hit, result.cost_s
            );
        }
        "trace" => {
            let model = load_model(&flags);
            let system = build_system(&flags);
            let platform = resolve_platform(&system, &flags);
            let rec = Recorder::new();
            let result = system
                .query_traced(&QueryParams::new(model, batch, platform), &rec)
                .unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                });
            let timeline = rec.timeline();
            eprintln!(
                "traced query: latency {:.4} ms, cost {:.2} s, {} spans",
                result.latency_ms,
                result.cost_s,
                timeline.spans.len()
            );
            let rendered = if flags.contains_key("flame") {
                let width: usize = flags
                    .get("width")
                    .map(|s| s.parse().expect("--width must be a number"))
                    .unwrap_or(100);
                render_flamegraph(&timeline, width)
            } else {
                to_chrome_json(&timeline)
            };
            match flags.get("output") {
                Some(path) => {
                    std::fs::write(path, &rendered).unwrap_or_else(|e| {
                        eprintln!("error: cannot write {path}: {e}");
                        std::process::exit(1);
                    });
                    eprintln!("wrote {path}");
                }
                None => println!("{rendered}"),
            }
        }
        "metrics" => {
            let system = build_system(&flags);
            let name = flags
                .get("platform")
                .cloned()
                .unwrap_or_else(|| "gpu-T4-trt7.1-fp32".to_string());
            let platform = Platform::parse(system.farm(), &name).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
            let family = flags
                .get("family")
                .map(|f| {
                    ModelFamily::parse(f).unwrap_or_else(|| {
                        eprintln!("error: --family must name a model family");
                        usage();
                    })
                })
                .unwrap_or(ModelFamily::SqueezeNet);
            let count: usize = flags
                .get("count")
                .map(|s| s.parse().expect("--count must be a number"))
                .unwrap_or(4);
            // A small deterministic workload so every family has data:
            // measure `count` variants, then re-query them (cache hits).
            let variants: Vec<_> = nnlqp_models::generate_family(family, count, 1)
                .into_iter()
                .map(|m| m.graph)
                .collect();
            system
                .warm_cache(&variants, &platform, batch)
                .unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                });
            for g in &variants {
                system
                    .query(&QueryParams::new(g.clone(), batch, platform.clone()))
                    .unwrap_or_else(|e| {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    });
            }
            let text = nnlqp::to_prometheus(&system.registry().snapshot());
            // Self-check: the exposition must round-trip through the
            // bundled parser before anyone scrapes it.
            let samples = nnlqp_obs::parse_prometheus(&text).unwrap_or_else(|e| {
                eprintln!("error: exposition failed self-check: {e}");
                std::process::exit(1);
            });
            eprintln!(
                "{} samples across the registry (self-check passed)",
                samples.len()
            );
            match flags.get("output") {
                Some(path) => {
                    std::fs::write(path, &text).unwrap_or_else(|e| {
                        eprintln!("error: cannot write {path}: {e}");
                        std::process::exit(1);
                    });
                    eprintln!("wrote {path}");
                }
                None => print!("{text}"),
            }
        }
        "predict" => {
            let model = load_model(&flags);
            // Bootstrap a predictor from freshly measured variants of a
            // chosen family (standing in for a persistent production DB).
            let family = flags
                .get("train-family")
                .and_then(|f| ModelFamily::parse(f))
                .unwrap_or(ModelFamily::ResNet);
            let count: usize = flags
                .get("train-count")
                .map(|s| s.parse().expect("--train-count must be a number"))
                .unwrap_or(40);
            let epochs: usize = flags
                .get("epochs")
                .map(|s| s.parse().expect("--epochs must be a number"))
                .unwrap_or(30);
            let arch: nnlqp::PredictorKind = flags
                .get("arch")
                .map(|s| {
                    s.parse().unwrap_or_else(|e| {
                        eprintln!("error: {e}");
                        usage();
                    })
                })
                .unwrap_or_default();
            let system = Nnlqp::builder().reps(10).build();
            let platform = resolve_platform(&system, &flags);
            eprintln!("bootstrapping the database with {count} {family} variants...");
            let variants: Vec<_> = nnlqp_models::generate_family(family, count, 1)
                .into_iter()
                .map(|m| m.graph)
                .collect();
            system
                .warm_cache(&variants, &platform, batch)
                .unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                });
            eprintln!("training the {arch} predictor...");
            system
                .train_predictor(
                    &[platform.name()],
                    TrainPredictorConfig {
                        epochs,
                        arch,
                        ..Default::default()
                    },
                )
                .expect("training data just inserted");
            let result = system
                .predict(&QueryParams::new(model, batch, platform))
                .unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                });
            println!(
                "{{\"latency_ms\": {:.6}, \"cost_s\": {:.3}, \"arch\": \"{arch}\"}}",
                result.latency_ms, result.cost_s
            );
        }
        _ => usage(),
    }
}
