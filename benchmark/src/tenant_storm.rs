//! `tenant_storm`: `MultiTenantEngine::run_with_wal` over a Zipf fleet
//! of 64 tenants with flapping storms, journaling to a durable WAL file,
//! then repeated restart recoveries of that file.
//!
//! The replay is offline (virtual clock, no wall pacing), so the plane's
//! measure is predictions per wall second at a stated input size;
//! admission is unbounded so every event is served rather than shed.

use crate::paper_replay;
use crate::report::{
    field, median, obj, peak_rss_mb, secs_since, shuffle, timed_reps, Digest, Json,
};
use crate::trace::Recorder;
use crate::{Args, Outcome, SETUP_REPS};
use rcacopilot::serve::Recovery;
use rcacopilot::serve::{
    AdmissionConfig, EngineConfig, EventOutcome, IndexMode, MetricsRegistry, MultiTenantConfig,
    MultiTenantEngine, MultiTenantOutcome, WalRecord, WriteAheadLog,
};
use rcacopilot::simcloud::{
    replicate_partition, zipf_fleet, zipf_volumes, Incident, TenantFleetConfig,
};
use rcacopilot::telemetry::TenantId;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const TENANTS: usize = 64;
const EVENTS: usize = 4_096;
/// Shard threads, fixed so the input size does not depend on the host.
const SHARDS: usize = 2;
const CHECKPOINT_EVERY: usize = 64;
/// Quarantine thresholds high enough that storm faults (30% of attempts)
/// make the supervisor retry and respawn but never dead-letter an event:
/// a benchmark's operations must all succeed.
const QUARANTINE_KILLS: u32 = 6;
const MAX_ATTEMPTS: u32 = 16;
/// Share of the window given to plane runs; recoveries get the rest.
const RUN_SHARE: f64 = 0.75;
/// Fewest recoveries a run times, whatever the window (after one
/// untimed warm-up).
const MIN_RECOVERIES: usize = 5;
/// Pipeline stages the engine's stage hook reports, `predict` fusing
/// retrieve, budget and CoT.
const STAGES: [&str; 5] = ["collect", "summarize", "assemble", "embed", "predict"];

struct Setup {
    plane: MultiTenantEngine,
    parts: Vec<Vec<Incident>>,
    /// The traced run's untraced twin: the same plane without a metrics
    /// registry, and so without the engine's per-stage clock readings.
    bare: Option<MultiTenantEngine>,
}

/// Table 2 training, the fleet's incident streams, and the plane. The
/// fleet (weights, volumes, storm tenants) and each tenant's multiset of
/// incidents are fixed; `seed` shuffles the order of every tenant's
/// stream, which keeps the work per run the same across seeds.
fn setup(seed: u64, registry: Option<Arc<MetricsRegistry>>) -> Setup {
    let table2 = paper_replay::setup();
    let base: Vec<Incident> = table2
        .prepared
        .test
        .iter()
        .map(|&i| table2.dataset.incidents()[i].clone())
        .collect();
    let fleet_cfg = TenantFleetConfig {
        tenants: TENANTS,
        total_events: EVENTS,
        ..TenantFleetConfig::default()
    };
    let fleet = zipf_fleet(&fleet_cfg);
    let mut parts = replicate_partition(&base, &fleet, &zipf_volumes(&fleet_cfg));
    let mut rng = seed;
    for part in &mut parts {
        shuffle(part, &mut rng);
    }
    let copilot = Arc::new(table2.copilot);
    let plane = |metrics: Option<Arc<MetricsRegistry>>| {
        let config = MultiTenantConfig {
            base: EngineConfig {
                index_mode: IndexMode::Online,
                admission: AdmissionConfig::unbounded(),
                checkpoint_every: CHECKPOINT_EVERY,
                quarantine_kills: QUARANTINE_KILLS,
                max_attempts: MAX_ATTEMPTS,
                metrics,
                ..EngineConfig::default()
            },
            shards: SHARDS,
            tenant_workers: Some(1),
            ..MultiTenantConfig::default()
        };
        MultiTenantEngine::from_plans_shared(Arc::clone(&copilot), config, &fleet)
            .expect("a generated fleet has distinct tenants")
    };
    Setup {
        bare: registry.is_some().then(|| plane(None)),
        plane: plane(registry),
        parts,
    }
}

/// Event counts of one plane run.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    attempted: u64,
    predicted: u64,
    shed: u64,
    failed: u64,
    summary: (u64, u64),
    embed: (u64, u64),
}

impl Counts {
    fn add(&mut self, c: Counts) {
        self.attempted += c.attempted;
        self.predicted += c.predicted;
        self.shed += c.shed;
        self.failed += c.failed;
        self.summary.0 += c.summary.0;
        self.summary.1 += c.summary.1;
        self.embed.0 += c.embed.0;
        self.embed.1 += c.embed.1;
    }
}

/// The count at `path` in an engine report (0 when absent).
fn report_count(report: &Json, path: &[&str]) -> u64 {
    match path.iter().try_fold(report, |v, key| field(v, key)) {
        Some(Json::U64(n)) => *n,
        _ => 0,
    }
}

fn counts(out: &MultiTenantOutcome) -> Counts {
    let mut c = Counts::default();
    for t in &out.tenants {
        c.attempted += t.outcome.planned as u64;
        for r in &t.outcome.records {
            match r.outcome {
                EventOutcome::Predicted { .. } => c.predicted += 1,
                EventOutcome::Shed { .. } => c.shed += 1,
                EventOutcome::Failed { .. } => c.failed += 1,
            }
        }
        // Each tenant's report echoes the shared pool's running totals;
        // the counters only grow, so the largest echo is the final one.
        let r = &t.outcome.report;
        for (acc, cache) in [(&mut c.summary, "summary"), (&mut c.embed, "embed")] {
            acc.0 = acc.0.max(report_count(r, &["caches", cache, "hits"]));
            acc.1 = acc.1.max(report_count(r, &["caches", cache, "misses"]));
        }
    }
    c
}

fn digest(out: &MultiTenantOutcome) -> String {
    let mut d = Digest::default();
    for line in out.log.lines() {
        d.line(line);
    }
    d.hex()
}

/// One restart: read the journal file and parse it (`load`), then
/// recover every tenant (`replay`), each in its own span.
fn recover(rec: &mut Recorder, n: u64, path: &Path) -> (WriteAheadLog, Recovered) {
    rec.span("recovery", n, |rec| {
        let wal = rec.span("load", n, |_| {
            let bytes = std::fs::read(path).expect("the run's journal file is readable");
            WriteAheadLog::load_bytes(&bytes)
        });
        let recovered = rec.span("replay", n, |_| {
            wal.recover_tenants().expect("a clean journal recovers")
        });
        (wal, recovered)
    })
}

type Recovered = BTreeMap<TenantId, Recovery>;

pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let registry = args.trace.then(MetricsRegistry::shared);
    let (s, setup_times) = timed_reps(SETUP_REPS, || setup(args.seed, registry.clone()));
    o.metrics.put("setup_s", median(&setup_times), "s");

    let dir = PathBuf::from(".bench_tmp").join(format!("tenant_storm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("can create the journal directory");
    let wal_path = dir.join("wal.jsonl");

    let mut run_secs = Vec::new();
    let mut run_rates = Vec::new();
    let mut bare_secs = Vec::new();
    let mut total = Counts::default();
    let mut first_digest: Option<String> = None;
    let mut runs_agree = true;
    let mut fsync_ns = Vec::new();
    let mut rec = Recorder::default();
    let window = Instant::now();
    let mut last_out = None;
    let mut run_no = 0u64;
    // Plane runs until the run share of the window is spent. The traced
    // run alternates with its untraced twin, at least one run each.
    while last_out.is_none()
        || secs_since(window) < RUN_SHARE * args.seconds as f64
        || (s.bare.is_some() && bare_secs.is_empty())
    {
        let twin = if run_no % 2 == 1 {
            s.bare.as_ref()
        } else {
            None
        };
        let _ = std::fs::remove_file(&wal_path);
        let mut wal = WriteAheadLog::open_durable(&wal_path).expect("can open the journal file");
        let t0 = Instant::now();
        let out = match twin {
            Some(bare) => bare.run_with_wal(&s.parts, &mut wal),
            None => rec.span("plane", run_no, |_| {
                s.plane.run_with_wal(&s.parts, &mut wal)
            }),
        };
        let secs = secs_since(t0);
        let out = out.expect("a fresh journal never has a gap");
        let d = digest(&out);
        match &first_digest {
            None => first_digest = Some(d),
            Some(f) => runs_agree &= *f == d,
        }
        run_no += 1;
        if twin.is_some() {
            bare_secs.push(secs);
            continue;
        }
        run_secs.push(secs);
        fsync_ns.push(wal.fsync_nanos() as f64);
        let c = counts(&out);
        run_rates.push(c.predicted as f64 / secs);
        total.add(c);
        last_out = Some(out);
    }
    let out = last_out.expect("at least one plane run");

    // Restart recoveries of the last run's journal file (the twin's, if
    // it ran last: its records are the same, only fold positions may
    // differ).
    let mut recovery_ms = Vec::new();
    let mut recovered_ok = true;
    let mut checkpoints = 0usize;
    let mut n = 0u64;
    while secs_since(window) < args.seconds as f64 || recovery_ms.len() < MIN_RECOVERIES {
        let t0 = Instant::now();
        let (wal, recovered) = recover(&mut rec, n, &wal_path);
        let ms = secs_since(t0) * 1e3;
        if n == 0 {
            // The first recovery warms the allocator up and is not
            // timed. It is the one checked: every tenant's committed
            // records, exactly as the run produced them.
            for t in &out.tenants {
                let want: Vec<String> = t.outcome.records.iter().map(|r| r.log_line()).collect();
                let got: Vec<String> = recovered
                    .get(&t.tenant)
                    .map(|r| r.records.iter().map(|r| r.log_line()).collect())
                    .unwrap_or_default();
                recovered_ok &= want == got;
            }
            recovered_ok &= recovered.len() == out.tenants.len();
            checkpoints = wal
                .records()
                .map(|rs| {
                    rs.iter()
                        .filter(|r| matches!(r, WalRecord::Checkpoint { .. }))
                        .count()
                })
                .unwrap_or(0);
        } else {
            recovery_ms.push(ms);
        }
        n += 1;
    }
    o.metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    let wal_bytes = std::fs::metadata(&wal_path).map_or(0, |m| m.len());
    // Each tenant's online index reports its `IndexStats`.
    let store_bytes: u64 = out
        .tenants
        .iter()
        .map(|t| report_count(&t.outcome.report, &["online_index_stats", "bytes"]))
        .sum();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_tmp");

    o.check(
        "every plane run logs the same predictions",
        runs_agree,
        String::new(),
    );
    o.check(
        "the durable journal recovers every tenant's committed records",
        recovered_ok,
        format!("{} tenants", out.tenants.len()),
    );
    o.digest = first_digest.unwrap_or_default();
    o.attempted = total.attempted;
    o.failed = total.shed + total.failed;

    let plane_s: f64 = run_secs.iter().sum();
    o.metrics.put("incidents_per_s", median(&run_rates), "1/s");
    o.metrics.put(
        "failed_share",
        (total.shed + total.failed) as f64 / total.attempted as f64,
        "ratio",
    );
    // The user-facing wait of this workload is a restart: its latency
    // is the recovery time.
    let recovery = median(&recovery_ms);
    o.metrics.put("recovery_ms", recovery, "ms");
    o.metrics.put("latency_p50_ms", recovery, "ms");
    o.counts.push((
        "events".into(),
        obj([
            ("attempted", Json::U64(total.attempted)),
            ("predicted", Json::U64(total.predicted)),
            ("shed", Json::U64(total.shed)),
            ("failed", Json::U64(total.failed)),
            (
                "plane_run_s",
                Json::Seq(run_secs.iter().map(|&x| Json::F64(x)).collect()),
            ),
            (
                "recovery_ms",
                Json::Seq(recovery_ms.iter().map(|&x| Json::F64(x)).collect()),
            ),
        ]),
    ));
    o.memo(total.summary, total.embed);
    o.counts
        .push(("store_bytes".into(), Json::U64(store_bytes)));
    o.counts.push((
        "wal".into(),
        obj([
            ("bytes", Json::U64(wal_bytes)),
            ("checkpoints", Json::U64(checkpoints as u64)),
            ("fsync_nanos", Json::U64(median(&fsync_ns) as u64)),
        ]),
    ));

    if let Some(registry) = registry {
        // The engine's stage hook observes each stage's wall time into
        // `rca_stage_seconds{stage,tenant}`; sum over tenants.
        let mut stage_sum = [0.0f64; STAGES.len()];
        let mut stage_count = [0u64; STAGES.len()];
        let doc = registry.render_json();
        let hists = field(&doc, "histograms")
            .and_then(Json::as_seq)
            .unwrap_or_default();
        for h in hists {
            let text = |key| field(h, key).and_then(Json::as_str).unwrap_or_default();
            if text("name") != "rca_stage_seconds" {
                continue;
            }
            let labels = text("labels");
            let Some(i) = STAGES
                .iter()
                .position(|st| labels.contains(&format!("stage=\"{st}\"")))
            else {
                continue;
            };
            if let Some(Json::F64(sum)) = field(h, "sum") {
                stage_sum[i] += sum;
            }
            if let Some(Json::U64(count)) = field(h, "count") {
                stage_count[i] += count;
            }
        }
        let busy_s = plane_s * SHARDS as f64;
        let mut staged = 0.0;
        for (i, stage) in STAGES.iter().enumerate() {
            let mean_us = if stage_count[i] == 0 {
                0.0
            } else {
                stage_sum[i] / stage_count[i] as f64 * 1e6
            };
            o.layers.put(format!("{stage}.mean_us"), mean_us, "us");
            o.layers.put(
                format!("{stage}.self_share"),
                stage_sum[i] / busy_s,
                "ratio",
            );
            staged += stage_sum[i];
        }
        o.layers
            .put("plane.self_share", 1.0 - staged / busy_s, "ratio");
        o.layers.put("plane.run_s", median(&run_secs), "s");
        o.layers.put("store.bytes", store_bytes as f64, "bytes");
        o.layers.put("wal.bytes", wal_bytes as f64, "bytes");
        o.layers.put("wal.checkpoints", checkpoints as f64, "count");
        o.layers.put("wal.fsync_ms", median(&fsync_ns) / 1e6, "ms");
        let layers = rec.layers();
        let span_ms = |name: &str| layers.get(name).map_or(0.0, |l| l.p(0.5) / 1e3);
        o.layers.put("recovery.load_ms", span_ms("load"), "ms");
        o.layers.put("recovery.replay_ms", span_ms("replay"), "ms");
        o.layers.put(
            "trace.overhead_pct",
            (median(&run_secs) / median(&bare_secs) - 1.0) * 100.0,
            "%",
        );
        o.recorder = Some(rec);
    }
    o
}
