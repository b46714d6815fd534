//! Integration tests of the online serving engine against the batch
//! pipeline: replayed streams must reproduce the batch predictions
//! byte-for-byte, logs must be independent of the worker count, the
//! online index must let the stream learn from its own resolved
//! incidents, and OCE feedback corrections must journal and replay into
//! the index with their visibility watermark respected.

use rcacopilot::core::eval::PreparedDataset;
use rcacopilot::core::pipeline::{RcaCopilot, RcaCopilotConfig};
use rcacopilot::core::{ContextSpec, HistoricalEntry};
use rcacopilot::embed::{FastTextConfig, FeatureExtractor};
use rcacopilot::serve::{
    AdmissionConfig, ArrivalModel, EngineConfig, EventOutcome, IndexMode, OceFeedback, ServeEngine,
    StreamConfig, WriteAheadLog,
};
use rcacopilot::simcloud::noise::NoiseProfile;
use rcacopilot::simcloud::{
    generate_dataset, CampaignConfig, Incident, IncidentDataset, Topology, TrainTestSplit,
};
use rcacopilot::telemetry::SimTime;
use serde_json::Value;

fn dataset() -> IncidentDataset {
    generate_dataset(&CampaignConfig {
        seed: 13,
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

fn trained(
    dataset: &IncidentDataset,
) -> (RcaCopilot, PreparedDataset, TrainTestSplit, Vec<Incident>) {
    let split = dataset.split(7, 0.6);
    let prepared = PreparedDataset::prepare(dataset, &split);
    let spec = ContextSpec::default();
    let copilot = RcaCopilot::train(&prepared.train_examples(&spec), quick_config());
    let test: Vec<Incident> = split
        .test
        .iter()
        .map(|&i| dataset.incidents()[i].clone())
        .collect();
    (copilot, prepared, split, test)
}

/// Frozen index + replayed timeline + no admission control is *literally*
/// the batch pipeline: every streamed prediction must equal
/// `predict_degraded` on the prepared dataset, field for field.
#[test]
fn frozen_replay_matches_batch_pipeline_exactly() {
    let dataset = dataset();
    let (copilot, prepared, split, test) = trained(&dataset);
    let spec = ContextSpec::default();
    let engine = ServeEngine::new(
        copilot.clone(),
        EngineConfig {
            workers: 3,
            queue_capacity: 4,
            index_mode: IndexMode::Frozen,
            admission: AdmissionConfig::unbounded(),
            ..EngineConfig::default()
        },
    );
    let out = engine.run(&test, &StreamConfig::replay());
    assert_eq!(out.records.len(), test.len());
    for record in &out.records {
        let i = split.test[record.incident_idx];
        let inc = &prepared.incidents[i];
        let batch = copilot.predict_degraded(
            &inc.raw_diag,
            &prepared.context_text(i, &spec),
            inc.at,
            &inc.degradation,
        );
        match &record.outcome {
            EventOutcome::Predicted {
                prediction,
                degraded,
            } => {
                assert!(!degraded, "unbounded admission never degrades");
                assert_eq!(
                    prediction, &batch,
                    "streamed prediction diverged from batch for incident {i}"
                );
            }
            EventOutcome::Shed { .. } => panic!("unbounded admission never sheds"),
            EventOutcome::Failed { reason } => panic!("fault-free run failed: {reason}"),
        }
    }
}

/// The full engine — online index, bursty stream, flapping monitors,
/// admission control — must produce byte-identical prediction logs no
/// matter how many workers execute it.
#[test]
fn online_log_is_byte_identical_across_worker_counts() {
    let dataset = dataset();
    let stream = StreamConfig {
        seed: 21,
        arrivals: ArrivalModel::Bursty {
            mean_gap_secs: 300,
            burst_prob: 0.5,
            burst_len: 6,
            burst_gap_secs: 6,
        },
        reraise_prob: 0.2,
    };
    let run = |workers: usize, queue_capacity: usize| {
        let (copilot, _, _, test) = trained(&dataset);
        let engine = ServeEngine::new(
            copilot,
            EngineConfig {
                workers,
                queue_capacity,
                index_mode: IndexMode::Online,
                admission: AdmissionConfig {
                    capacity_secs: 1_800,
                    ..AdmissionConfig::default()
                },
                ..EngineConfig::default()
            },
        );
        engine.run(&test, &stream)
    };
    let serial = run(1, 64);
    let wide = run(4, 2);
    assert_eq!(
        serial.log, wide.log,
        "worker count or queue capacity leaked into the prediction log"
    );
    assert!(
        serial.log.contains("verdict=shed"),
        "the storm should engage admission control"
    );
    assert!(
        serial
            .records
            .iter()
            .any(|r| matches!(&r.outcome, EventOutcome::Predicted { degraded, .. } if *degraded)),
        "the storm should degrade some admissions"
    );
}

/// Online mode learns from the stream: an incident whose category the
/// training set has never seen is predicted correctly the *second* time
/// it streams, because the first occurrence resolved into the index. The
/// frozen index, by construction, cannot do this.
#[test]
fn online_index_learns_new_categories_from_resolved_incidents() {
    let dataset = dataset();
    let (copilot, _, split, test) = trained(&dataset);
    // A category absent from training, streamed twice with a quiet gap so
    // the first occurrence resolves before the second arrives.
    let train_cats: std::collections::BTreeSet<&str> = split
        .train
        .iter()
        .map(|&i| dataset.incidents()[i].category.as_str())
        .collect();
    let novel = test
        .iter()
        .find(|inc| !train_cats.contains(inc.category.as_str()))
        .expect("held-out split contains a never-trained category")
        .clone();
    let stream_slice = vec![novel.clone(), novel.clone()];
    let stream = StreamConfig {
        seed: 3,
        arrivals: ArrivalModel::Poisson {
            mean_gap_secs: 7_200,
        },
        reraise_prob: 0.0,
    };
    let run = |mode: IndexMode| {
        let engine = ServeEngine::new(
            copilot.clone(),
            EngineConfig {
                workers: 2,
                index_mode: mode,
                admission: AdmissionConfig::unbounded(),
                ..EngineConfig::default()
            },
        );
        engine.run(&stream_slice, &stream)
    };
    let online = run(IndexMode::Online);
    let frozen = run(IndexMode::Frozen);
    let second = |out: &rcacopilot::serve::ServeOutcome| match &out.records[1].outcome {
        EventOutcome::Predicted { prediction, .. } => prediction.clone(),
        EventOutcome::Shed { .. } => panic!("nothing sheds here"),
        EventOutcome::Failed { reason } => panic!("fault-free run failed: {reason}"),
    };
    let online_second = second(&online);
    let frozen_second = second(&frozen);
    assert!(
        online_second.demo_categories.contains(&novel.category),
        "first occurrence should be retrievable once resolved: demos {:?}",
        online_second.demo_categories
    );
    assert_eq!(
        online_second.label, novel.category,
        "second occurrence should be recognized online"
    );
    assert!(
        !frozen_second.demo_categories.contains(&novel.category),
        "frozen index cannot contain the streamed category"
    );
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

/// OCE feedback corrections journal as `WalRecord::Feedback`, replay
/// into the history store on the next run, and respect their
/// `visible_from` watermark: a correction visible only after the
/// stream's end leaves the prediction log byte-identical while still
/// landing in the index.
#[test]
fn feedback_corrections_journal_and_replay_with_watermark() {
    let dataset = dataset();
    let (copilot, _, _, test) = trained(&dataset);
    let test: Vec<Incident> = test.into_iter().take(24).collect();
    let stream = StreamConfig {
        seed: 12,
        arrivals: ArrivalModel::Bursty {
            mean_gap_secs: 300,
            burst_prob: 0.5,
            burst_len: 6,
            burst_gap_secs: 5,
        },
        reraise_prob: 0.2,
    };
    let config = EngineConfig {
        workers: 2,
        index_mode: IndexMode::Online,
        admission: AdmissionConfig::unbounded(),
        ..EngineConfig::default()
    };

    // Crash a journaled run halfway so the correction replays *before*
    // uncommitted events.
    let engine = ServeEngine::new(copilot.clone(), config.clone());
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
            ..config.clone()
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

    // Resume with the correction in the journal: the log must match the
    // uncorrected reference (the watermark hides the correction from
    // every query) while the index carries the extra entry.
    let mut reloaded = WriteAheadLog::load(&wal.serialized());
    let resumed = ServeEngine::new(copilot.clone(), config)
        .run_with_wal(&test, &stream, &mut reloaded)
        .expect("recoverable journal");
    assert_eq!(
        resumed.log, reference.log,
        "a future-dated correction must not change the log"
    );
    assert_eq!(
        as_u64(field(&resumed.report, &["online_index_len"])),
        as_u64(field(&reference.report, &["online_index_len"])) + 1,
        "the correction must still land in the index"
    );
}
