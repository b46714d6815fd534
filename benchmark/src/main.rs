//! The repository's benchmark: runs one named workload at a given seed
//! for a given number of seconds, checks that the outputs are correct,
//! and prints every metric by name with its unit.
//!
//! ```text
//! rcabench --workload <paper_replay|deep_history|tenant_storm>
//!          --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! All timings are wall-clock times of real code on the host that runs
//! the benchmark, taken around calls into the library's public
//! functions. With `--trace 0` the last line carries the end-to-end
//! metrics; with `--trace 1` a traced run records a span around every
//! layer call and the last line carries the per-layer metrics. The line
//! before it is a report with run metadata, the counts behind every
//! ratio, and every check. `LAYERS.md` beside this crate says what each
//! metric means.

mod deep_history;
mod paper_replay;
mod report;
mod tenant_storm;
mod trace;

use report::{cpu_model, field, git_rev, nproc, obj, render, text, Json, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Recorder;

/// The seed at which outputs are compared with recorded digests.
pub const DEFAULT_SEED: u64 = 42;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

const WORKLOADS: [&str; 3] = ["paper_replay", "deep_history", "tenant_storm"];

/// Prediction-log digests at the default seed, one per workload.
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

/// The benchmark's definition: which metrics each kind of run prints,
/// with their units.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// Layers timed by spans in the traced run, in pipeline order.
const SPAN_LAYERS: [&str; 7] = [
    "collect",
    "summarize",
    "assemble",
    "embed",
    "retrieve",
    "budget",
    "cot",
];

/// `(name, unit)` of every metric listed under `key` in `BENCHMARK.json`.
fn spec_metrics(key: &str) -> Vec<(String, String)> {
    let spec: Json = serde_json::from_str(SPEC).expect("BENCHMARK.json parses");
    let string = |m: &Json, k: &str| {
        field(m, k)
            .and_then(Json::as_str)
            .expect("a metric has a name and a unit")
            .to_string()
    };
    field(&spec, key)
        .and_then(Json::as_seq)
        .expect("BENCHMARK.json lists its metrics")
        .iter()
        .map(|m| (string(m, "name"), string(m, "unit")))
        .collect()
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    if !(1..=3600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=3600, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Vec<Check>,
    /// Predictions attempted in the timed window.
    pub attempted: u64,
    /// Attempts that produced no prediction (shed, failed, collection
    /// error).
    pub failed: u64,
    /// End-to-end metrics under the names of the workload's definition.
    pub metrics: Metrics,
    /// Per-layer metrics (traced runs).
    pub layers: Metrics,
    /// Counts that are the base of the reported ratios.
    pub counts: Vec<(String, Json)>,
    /// FNV-1a digest of the prediction log (empty when the run did not
    /// cover the whole log).
    pub digest: String,
    pub recorder: Option<Recorder>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail,
        });
    }

    /// Memo hits and misses of the summary and embedding caches: the
    /// counts in the report, and the hit ratios with their lookups as
    /// base among the layer metrics.
    pub fn memo(&mut self, summary: (u64, u64), embed: (u64, u64)) {
        let mut counts = Vec::new();
        for (name, (hits, misses)) in [("summary", summary), ("embed", embed)] {
            counts.push((format!("{name}_hits"), Json::U64(hits)));
            counts.push((format!("{name}_misses"), Json::U64(misses)));
            let lookups = hits + misses;
            let ratio = if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            };
            self.layers
                .put(format!("memo.{name}_hit_ratio"), ratio, "ratio");
            self.layers
                .put(format!("memo.{name}_lookups"), lookups as f64, "count");
        }
        self.counts.push(("memo".into(), Json::Map(counts)));
    }

    /// Per-layer timings and self-time shares from the span recording,
    /// whose request spans are `traced_ms` long on average against
    /// `untraced_mean_ms` for the same requests untraced.
    pub fn layer_report(&mut self, rec: &Recorder, traced_ms: &[f64], untraced_mean_ms: f64) {
        let layers = rec.layers();
        let root = layers
            .iter()
            .find(|(name, _)| !SPAN_LAYERS.contains(name))
            .map(|(_, l)| l.clone())
            .unwrap_or_default();
        let root_ns: f64 = root.durations_us.iter().sum::<f64>() * 1e3;
        let share = |ns: u64| {
            if root_ns > 0.0 {
                ns as f64 / root_ns
            } else {
                0.0
            }
        };
        let mut predict_mean = 0.0;
        let mut predict_self = 0u64;
        for name in SPAN_LAYERS {
            let Some(l) = layers.get(name) else { continue };
            self.layers.put(format!("{name}.p50_us"), l.p(0.50), "us");
            self.layers.put(format!("{name}.p99_us"), l.p(0.99), "us");
            self.layers
                .put(format!("{name}.mean_us"), l.mean_us(), "us");
            self.layers
                .put(format!("{name}.self_share"), share(l.self_ns), "ratio");
            if matches!(name, "retrieve" | "budget" | "cot") {
                predict_mean += l.mean_us();
                predict_self += l.self_ns;
            }
        }
        self.layers.put("predict.mean_us", predict_mean, "us");
        self.layers
            .put("predict.self_share", share(predict_self), "ratio");
        let traced_mean = traced_ms.iter().sum::<f64>() / traced_ms.len().max(1) as f64;
        self.layers.put(
            "trace.overhead_pct",
            (traced_mean / untraced_mean_ms - 1.0) * 100.0,
            "%",
        );
        self.layers
            .put("trace.unattributed_share", share(root.self_ns), "ratio");
    }
}

/// The expected digest of `workload` at the default seed, if recorded.
fn expected_digest(workload: &str) -> Option<&'static str> {
    EXPECTED_DIGESTS.lines().find_map(|l| {
        let (name, digest) = l.split_once(char::is_whitespace)?;
        (name == workload).then(|| digest.trim())
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rcabench: {e}");
            return ExitCode::from(2);
        }
    };
    let started = std::time::Instant::now();
    let mut o = match args.workload.as_str() {
        "paper_replay" => paper_replay::run(&args),
        "deep_history" => deep_history::run(&args),
        _ => tenant_storm::run(&args),
    };
    let served = (o.attempted - o.failed) as f64 / o.attempted.max(1) as f64;
    o.metrics.put("served_share", served, "ratio");
    if !args.trace && args.seed == DEFAULT_SEED {
        let want = expected_digest(&args.workload).unwrap_or("none recorded");
        o.check(
            "prediction log digest at the default seed",
            o.digest == want,
            format!("got {}, recorded {want}", o.digest),
        );
    }

    // The traced run's spans are written out when the run ends.
    let mut trace_file = Json::Null;
    if let Some(rec) = &o.recorder {
        let path = PathBuf::from(".bench_out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match rec.write_jsonl(&path) {
            Ok(()) => trace_file = text(path.display().to_string()),
            Err(e) => eprintln!("rcabench: cannot write {}: {e}", path.display()),
        }
    }

    // A gated end-to-end metric every workload must measure; a layer a
    // workload does not run reads 0.
    let (key, source) = if args.trace {
        ("per_layer", &o.layers)
    } else {
        ("end_to_end", &o.metrics)
    };
    let mut final_metrics = Metrics::default();
    for (name, unit) in spec_metrics(key) {
        let value = match source.get(&name) {
            Some(v) => v,
            None if args.trace => 0.0,
            None => {
                eprintln!("rcabench: {} did not measure {name}", args.workload);
                return ExitCode::FAILURE;
            }
        };
        final_metrics.put(name, value, unit);
    }
    let correct = o.checks.iter().all(|c| c.passed);

    let report = obj([
        ("workload", text(&args.workload)),
        ("seed", Json::U64(args.seed)),
        ("seconds", Json::U64(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::U64(nproc() as u64)),
        ("cpu_model", text(cpu_model())),
        ("git_rev", text(git_rev())),
        ("wall_s", Json::F64(started.elapsed().as_secs_f64())),
        ("digest", text(&o.digest)),
        ("attempted", Json::U64(o.attempted)),
        ("failed", Json::U64(o.failed)),
        ("counts", Json::Map(o.counts.clone())),
        ("workload_metrics", o.metrics.to_json()),
        ("layer_metrics", o.layers.to_json()),
        (
            "checks",
            Json::Seq(
                o.checks
                    .iter()
                    .map(|c| {
                        obj([
                            ("name", text(&c.name)),
                            ("passed", Json::Bool(c.passed)),
                            ("detail", text(&c.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("trace_file", trace_file),
    ]);
    for c in o.checks.iter().filter(|c| !c.passed) {
        eprintln!("rcabench: check failed: {} ({})", c.name, c.detail);
    }
    println!("report {}", render(&report));
    let result = obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(o.attempted)),
        ("failed", Json::U64(o.failed)),
        ("metrics", final_metrics.to_json()),
    ]);
    println!("{}", render(&result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
