//! Sharded retrieval-plane integration tests: the prediction log must be
//! byte-identical between the sharded and unsharded engines for every
//! (shard count × worker count) combination, a crashed run must resume
//! from shard-tagged WAL records — even into a *different* shard count —
//! and OCE feedback corrections must journal and replay into the index
//! with their visibility watermark respected.

use rcacopilot::core::eval::PreparedDataset;
use rcacopilot::core::pipeline::{RcaCopilot, RcaCopilotConfig};
use rcacopilot::core::{ContextSpec, HistoricalEntry};
use rcacopilot::embed::{FastTextConfig, FeatureExtractor};
use rcacopilot::serve::{
    AdmissionConfig, ArrivalModel, EngineConfig, IndexMode, OceFeedback, ServeEngine, StreamConfig,
    WalRecord, WorkerFaultConfig, WriteAheadLog,
};
use rcacopilot::simcloud::noise::NoiseProfile;
use rcacopilot::simcloud::{generate_dataset, CampaignConfig, Incident, IncidentDataset, Topology};
use rcacopilot::telemetry::SimTime;
use serde_json::Value;

fn dataset() -> IncidentDataset {
    generate_dataset(&CampaignConfig {
        seed: 19,
        topology: Topology::new(2, 4, 2, 2),
        noise: NoiseProfile {
            routine_logs: 2,
            herring_logs: 1,
            healthy_traces: 1,
            unrelated_failure: false,
            bystander_anomalies: 1,
        },
    })
}

fn quick_config() -> RcaCopilotConfig {
    RcaCopilotConfig {
        embedding: FastTextConfig {
            dim: 24,
            epochs: 8,
            lr: 0.4,
            features: FeatureExtractor {
                buckets: 1 << 12,
                ..FeatureExtractor::default()
            },
            ..FastTextConfig::default()
        },
        ..RcaCopilotConfig::default()
    }
}

fn trained() -> (RcaCopilot, Vec<Incident>) {
    let dataset = dataset();
    let split = dataset.split(7, 0.6);
    let prepared = PreparedDataset::prepare(&dataset, &split);
    let copilot = RcaCopilot::train(
        &prepared.train_examples(&ContextSpec::default()),
        quick_config(),
    );
    let test: Vec<Incident> = split
        .test
        .iter()
        .take(24)
        .map(|&i| dataset.incidents()[i].clone())
        .collect();
    (copilot, test)
}

/// Looks up a (possibly nested) field of a JSON report map.
fn field<'a>(v: &'a Value, path: &[&str]) -> &'a Value {
    let mut cur = v;
    for key in path {
        cur = cur
            .as_map()
            .expect("report node is a map")
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("report field {key} missing"));
    }
    cur
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::U64(n) => *n,
        Value::I64(n) => *n as u64,
        other => panic!("expected number, got {other:?}"),
    }
}

/// A bursty storm so concurrent workers actually contend on the index.
fn storm() -> StreamConfig {
    StreamConfig {
        seed: 12,
        arrivals: ArrivalModel::Bursty {
            mean_gap_secs: 300,
            burst_prob: 0.5,
            burst_len: 6,
            burst_gap_secs: 5,
        },
        reraise_prob: 0.2,
    }
}

/// The tentpole invariant: the prediction log is byte-identical between
/// the unsharded engine and every sharded configuration, across worker
/// counts, under a bursty online-mode storm.
#[test]
fn sharded_log_is_byte_identical_across_shards_and_workers() {
    let (copilot, test) = trained();
    let stream = storm();
    let run = |shards: usize, workers: usize| {
        let engine = ServeEngine::new(
            copilot.clone(),
            EngineConfig {
                workers,
                shards,
                index_mode: IndexMode::Online,
                admission: AdmissionConfig::unbounded(),
                ..EngineConfig::default()
            },
        );
        engine.run(&test, &stream)
    };
    let reference = run(1, 1);
    assert_eq!(reference.records.len(), reference.planned);
    let ref_len = as_u64(field(&reference.report, &["online_index_len"]));
    for shards in [1usize, 2, 8] {
        for workers in [1usize, 4] {
            let out = run(shards, workers);
            assert_eq!(
                out.log, reference.log,
                "{shards} shards × {workers} workers diverged from the unsharded log"
            );
            assert_eq!(
                as_u64(field(&out.report, &["engine", "shards"])) as usize,
                shards
            );
            assert_eq!(
                as_u64(field(&out.report, &["online_index_len"])),
                ref_len,
                "index length must not depend on the shard count"
            );
        }
    }
}

/// Crash-at-virtual-time recovery with shard-tagged WAL records: a run
/// killed mid-stream resumes byte-identically — including when the
/// resumed engine uses a *different* shard count than the crashed one,
/// because checkpoints store entries in global insertion order and the
/// category router re-routes them deterministically.
#[test]
fn crash_recovery_replays_shard_tagged_records_across_shard_counts() {
    let (copilot, test) = trained();
    let stream = storm();
    let base = EngineConfig {
        index_mode: IndexMode::Online,
        admission: AdmissionConfig::unbounded(),
        faults: WorkerFaultConfig {
            panic_per_mille: 60,
            stall_per_mille: 40,
            error_per_mille: 30,
            ..WorkerFaultConfig::default()
        },
        checkpoint_every: 3,
        shards: 4,
        ..EngineConfig::default()
    };

    // Uninterrupted sharded reference.
    let reference = {
        let engine = ServeEngine::new(
            copilot.clone(),
            EngineConfig {
                workers: 2,
                ..base.clone()
            },
        );
        let mut wal = WriteAheadLog::new();
        engine
            .run_with_wal(&test, &stream, &mut wal)
            .expect("fresh journal")
    };
    assert!(!reference.crashed());

    let n = reference.records.len();
    let crash_at = reference.records[n / 2].at;
    for (resume_shards, workers) in [(4usize, 1usize), (2, 4), (8, 1), (1, 4)] {
        let crashed = ServeEngine::new(
            copilot.clone(),
            EngineConfig {
                workers,
                crash_at: Some(crash_at),
                ..base.clone()
            },
        );
        let mut wal = WriteAheadLog::new();
        let partial = crashed
            .run_with_wal(&test, &stream, &mut wal)
            .expect("fresh journal");
        assert!(partial.crashed());
        assert!(reference.log.starts_with(&partial.log));
        // The journal's epoch records carry the shard that published.
        let epochs: Vec<usize> = wal
            .records()
            .expect("clean journal")
            .into_iter()
            .filter_map(|r| match r {
                WalRecord::Epoch { shard, .. } => Some(shard),
                _ => None,
            })
            .collect();
        if !epochs.is_empty() {
            assert!(epochs.iter().all(|&s| s < 4), "shard tags within range");
            assert!(
                epochs.iter().any(|&s| s > 0),
                "4 shards over many categories must publish beyond shard 0"
            );
        }
        // Process death: only the serialized bytes survive. Resume with a
        // different shard count than the run that crashed.
        let bytes = wal.serialized();
        let mut reloaded = WriteAheadLog::load(&bytes);
        let resumed = ServeEngine::new(
            copilot.clone(),
            EngineConfig {
                workers,
                shards: resume_shards,
                ..base.clone()
            },
        )
        .run_with_wal(&test, &stream, &mut reloaded)
        .expect("recoverable journal");
        assert_eq!(
            resumed.log, reference.log,
            "resume into {resume_shards} shards with {workers} workers diverged"
        );
    }
}

/// OCE feedback corrections journal as `WalRecord::Feedback`, replay
/// into the corrected category's shard on the next run, and respect
/// their `visible_from` watermark: a correction visible only after the
/// stream's end leaves the prediction log byte-identical while still
/// landing in the index.
#[test]
fn feedback_corrections_journal_and_replay_with_watermark() {
    let (copilot, test) = trained();
    let stream = storm();
    let config = |shards: usize| EngineConfig {
        workers: 2,
        shards,
        index_mode: IndexMode::Online,
        admission: AdmissionConfig::unbounded(),
        ..EngineConfig::default()
    };

    // Crash a journaled run halfway so the correction replays *before*
    // uncommitted events.
    let engine = ServeEngine::new(copilot.clone(), config(2));
    let reference = {
        let mut wal = WriteAheadLog::new();
        engine
            .run_with_wal(&test, &stream, &mut wal)
            .expect("fresh journal")
    };
    let crash_at = reference.records[reference.records.len() / 2].at;
    let crashed = ServeEngine::new(
        copilot.clone(),
        EngineConfig {
            crash_at: Some(crash_at),
            ..config(2)
        },
    );
    let mut wal = WriteAheadLog::new();
    let partial = crashed
        .run_with_wal(&test, &stream, &mut wal)
        .expect("fresh journal");
    assert!(partial.crashed());

    // The OCE corrects the first served prediction after the fact.
    let original = HistoricalEntry {
        id: 0,
        category: test[0].category.clone(),
        summary: "as served".to_string(),
        at: reference.records[0].at,
        embedding: copilot.embed_scaled("original diagnostic text"),
    };
    // Visible only after every remaining event: the log must not move.
    let far_future = SimTime::from_secs(u64::MAX / 2);
    let corrected = engine.ingest_feedback(
        &mut wal,
        &original,
        &OceFeedback {
            category: test[1].category.clone(),
            summary: "OCE: actually a downstream config rollout".to_string(),
            corrected_at: far_future,
        },
    );
    assert_eq!(corrected.category, test[1].category);
    assert_eq!(corrected.embedding, original.embedding);
    let recovery = wal.recover().expect("gapless");
    assert!(
        recovery
            .entries
            .iter()
            .any(|ce| ce.visible_from == far_future
                && ce.entry.summary == "OCE: actually a downstream config rollout"),
        "the correction must replay from the journal"
    );

    // Resume with the correction in the journal, at two shard counts:
    // both must match the uncorrected reference log (the watermark hides
    // the correction from every query) while the index carries the
    // extra entry.
    let bytes = wal.serialized();
    for shards in [1usize, 4] {
        let mut reloaded = WriteAheadLog::load(&bytes);
        let resumed = ServeEngine::new(copilot.clone(), config(shards))
            .run_with_wal(&test, &stream, &mut reloaded)
            .expect("recoverable journal");
        assert_eq!(
            resumed.log, reference.log,
            "a future-dated correction must not change the log ({shards} shards)"
        );
        assert_eq!(
            as_u64(field(&resumed.report, &["online_index_len"])),
            as_u64(field(&reference.report, &["online_index_len"])) + 1,
            "the correction must still land in the index ({shards} shards)"
        );
    }
}
