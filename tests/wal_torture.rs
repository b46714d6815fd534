//! Crash-point torture tests for the WAL storage fault plane.
//!
//! The serving engine journals through a seeded simulated disk
//! ([`SimDisk`]) that records every write and fsync barrier, so after a
//! run we can ask: *what would the media hold if the process had died
//! here?* — at any barrier, plus any byte prefix of the un-fsynced
//! window, with seeded page drops and bit rot layered on. Each crash
//! image is recovered through the normal [`WriteAheadLog`] load path and
//! the engine is resumed from it. The invariants, searched rather than
//! spot-checked:
//!
//! 1. **No acked commit lost**: every record fully fsync'd before the
//!    crash survives recovery, at every crash point (clean-crash mixes).
//! 2. **Byte-identical replay**: the resumed run's prediction log equals
//!    the uninterrupted baseline, whatever the crash left behind.
//! 3. **Corruption is quarantined, not fatal**: injected bit flips map
//!    to exactly the quarantined dead letters (or the torn tail, when
//!    the flip hits the final line), and recovery still converges.
//! 4. **`ENOSPC` degrades, never aborts**: a tight byte budget pauses
//!    durability, checkpoint-fold-and-retry resumes it, and the run
//!    completes with the baseline log and honest fault counters.
//!
//! The exhaustive sweep (hundreds of points × fault mixes × geometries)
//! lives in the `wal_torture` bench; these tests keep CI-sized slices of
//! the same machinery permanently red/green.

use rcacopilot::core::eval::PreparedDataset;
use rcacopilot::core::pipeline::{RcaCopilot, RcaCopilotConfig};
use rcacopilot::core::ContextSpec;
use rcacopilot::embed::{FastTextConfig, FeatureExtractor};
use rcacopilot::serve::{
    AdmissionConfig, ArrivalModel, CrashPoint, EngineConfig, IndexMode, ServeEngine, SimDisk,
    SimDiskConfig, StreamConfig, WalSink, WriteAheadLog,
};
use rcacopilot::simcloud::noise::NoiseProfile;
use rcacopilot::simcloud::{
    generate_dataset, CampaignConfig, Incident, StorageFaultPlan, Topology,
};
use std::sync::OnceLock;

/// Shared fixture: one trained copilot plus its held-out incidents.
fn fixture() -> &'static (RcaCopilot, Vec<Incident>) {
    static FIXTURE: OnceLock<(RcaCopilot, Vec<Incident>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = generate_dataset(&CampaignConfig {
            seed: 33,
            topology: Topology::new(2, 4, 2, 2),
            noise: NoiseProfile::default(),
        });
        let split = dataset.split(7, 0.6);
        let prepared = PreparedDataset::prepare(&dataset, &split);
        let copilot = RcaCopilot::train(
            &prepared.train_examples(&ContextSpec::default()),
            RcaCopilotConfig {
                embedding: FastTextConfig {
                    dim: 16,
                    epochs: 4,
                    lr: 0.4,
                    features: FeatureExtractor {
                        buckets: 1 << 10,
                        ..FeatureExtractor::default()
                    },
                    ..FastTextConfig::default()
                },
                ..RcaCopilotConfig::default()
            },
        );
        let test: Vec<Incident> = split
            .test
            .iter()
            .map(|&i| dataset.incidents()[i].clone())
            .collect();
        (copilot, test)
    })
}

fn stream() -> StreamConfig {
    StreamConfig {
        seed: 9,
        arrivals: ArrivalModel::Poisson { mean_gap_secs: 600 },
        reraise_prob: 0.1,
    }
}

fn config(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        index_mode: IndexMode::Online,
        admission: AdmissionConfig::unbounded(),
        ..EngineConfig::default()
    }
}

/// Runs the engine journaling through a fresh [`SimDisk`] built from
/// `plan`, returning the disk (which outlives the run, like real media
/// outliving a crashed process) and the run's prediction log.
fn run_on_disk(
    workers: usize,
    incidents: &[Incident],
    plan: &StorageFaultPlan,
) -> (SimDisk, String) {
    let (copilot, _) = fixture();
    let disk = SimDisk::new(SimDiskConfig::from_plan(plan));
    let mut wal = WriteAheadLog::with_sink(Box::new(disk.clone())).expect("fresh disk");
    let out = ServeEngine::new(copilot.clone(), config(workers))
        .run_with_wal(incidents, &stream(), &mut wal)
        .expect("fresh journal");
    (disk, out.log)
}

/// Recovers a crash image into a WAL over a restored clean disk.
fn recover_image(bytes: &[u8]) -> (SimDisk, WriteAheadLog) {
    let disk = SimDisk::restore(SimDiskConfig::default(), bytes);
    let wal = WriteAheadLog::with_sink(Box::new(disk.clone())).expect("restored disk");
    (disk, wal)
}

/// Sweeps clean crash points (no injected corruption) at every sampled
/// fsync barrier × tail offset: commits acked by a completed fsync must
/// survive recovery at every point, and a sampled subset of points must
/// resume to the byte-identical baseline log.
#[test]
fn clean_crash_sweep_never_loses_an_acked_commit() {
    let (copilot, test) = fixture();
    let incidents: Vec<Incident> = test.iter().take(10).cloned().collect();
    // Two pool geometries: the journal contents differ (epoch batching),
    // the invariants must not.
    for workers in [1usize, 3] {
        let baseline = ServeEngine::new(copilot.clone(), config(workers))
            .run(&incidents, &stream())
            .log;
        let plan = StorageFaultPlan::clean(17);
        let (disk, full_log) = run_on_disk(workers, &incidents, &plan);
        assert_eq!(full_log, baseline, "journaled run must match baseline");

        let windows = disk.barrier_windows();
        let barriers = disk.barriers();
        assert!(barriers >= incidents.len(), "every append fsyncs");
        let mut points_checked = 0usize;
        let mut resumes = 0usize;
        for (k, &window) in windows.iter().enumerate() {
            for tail in [0usize, 1, window / 2, window] {
                let point = CrashPoint {
                    barriers: k,
                    tail_bytes: tail,
                    nonce: k as u64,
                };
                let image = disk.crash_image(point);
                // The acked prefix: exactly what fsync promised — the
                // media at the last completed barrier, no torn tail.
                let acked = WriteAheadLog::load_bytes(
                    &disk
                        .crash_image(CrashPoint {
                            barriers: k,
                            tail_bytes: 0,
                            nonce: k as u64,
                        })
                        .bytes,
                );
                let acked_recovery = acked.recover().expect("acked prefix is clean");
                let (_, recovered) = recover_image(&image.bytes);
                assert!(
                    recovered.quarantined().is_empty(),
                    "a clean crash never produces corruption (point {point:?})"
                );
                let recovery = recovered.recover().expect("clean crash image");
                assert!(
                    recovery.committed() >= acked_recovery.committed(),
                    "acked commit lost at {point:?}: {} < {}",
                    recovery.committed(),
                    acked_recovery.committed()
                );
                assert_eq!(
                    &recovery.records[..acked_recovery.committed()],
                    &acked_recovery.records[..],
                    "recovered prefix diverged from the acked records at {point:?}"
                );
                points_checked += 1;
                // Resuming the engine is the expensive half: sample it.
                if tail == window / 2 && k % 3 == 0 {
                    let (_, mut wal) = recover_image(&image.bytes);
                    let resumed = ServeEngine::new(copilot.clone(), config(workers))
                        .run_with_wal(&incidents, &stream(), &mut wal)
                        .expect("recovered journal");
                    assert_eq!(
                        resumed.log, baseline,
                        "resume from {point:?} must replay byte-identically"
                    );
                    resumes += 1;
                }
            }
        }
        assert!(
            points_checked >= 40,
            "sweep too small to mean anything: {points_checked}"
        );
        assert!(resumes >= 3, "too few resume points: {resumes}");
    }
}

/// Injects seeded single-bit rot over a completed journal: every flip
/// must surface as either a quarantined dead letter or a torn tail —
/// never a silent wrong record, never a fatal error — and the resumed
/// run must still converge to the baseline log.
#[test]
fn bit_rot_maps_to_quarantine_exactly_and_replay_converges() {
    let (copilot, test) = fixture();
    let incidents: Vec<Incident> = test.iter().take(8).cloned().collect();
    let baseline = ServeEngine::new(copilot.clone(), config(2))
        .run(&incidents, &stream())
        .log;
    let (disk, _) = run_on_disk(2, &incidents, &StorageFaultPlan::clean(23));
    let clean: Vec<u8> = disk
        .crash_image(CrashPoint {
            barriers: usize::MAX,
            tail_bytes: 0,
            nonce: 0,
        })
        .bytes;
    // Offset → line index map of the clean journal.
    let line_of: Vec<usize> = {
        let mut v = Vec::with_capacity(clean.len());
        let mut line = 0usize;
        for &b in &clean {
            v.push(line);
            if b == b'\n' {
                line += 1;
            }
        }
        v
    };
    let last_line = *line_of.last().expect("nonempty journal");
    let total_lines = clean.iter().filter(|&&b| b == b'\n').count();

    // Lay the finished journal onto a bit-rotting disk and take crash
    // images across nonces: each draws a different flip pattern.
    let rot = SimDisk::restore(
        SimDiskConfig::from_plan(&StorageFaultPlan::bit_rot(29)),
        &clean,
    );
    let mut images_with_flips = 0usize;
    let mut resumes = 0usize;
    for nonce in 0..100u64 {
        let image = rot.crash_image(CrashPoint {
            barriers: 1,
            tail_bytes: 0,
            nonce,
        });
        if image.flipped.is_empty() {
            continue;
        }
        images_with_flips += 1;
        if image.flipped.iter().any(|&o| clean[o] == b'\n') {
            // A flipped newline fuses two physical lines; the loader's
            // resync handles it but line accounting shifts, so exact
            // set-matching only applies to the other images. Still: it
            // must recover and replay.
            let (_, mut wal) = recover_image(&image.bytes);
            let resumed = ServeEngine::new(copilot.clone(), config(2))
                .run_with_wal(&incidents, &stream(), &mut wal)
                .expect("recovered journal");
            assert_eq!(resumed.log, baseline);
            resumes += 1;
            continue;
        }
        let mut hit_lines: Vec<usize> = image.flipped.iter().map(|&o| line_of[o]).collect();
        hit_lines.sort_unstable();
        hit_lines.dedup();
        let expect_torn = hit_lines.contains(&last_line);
        let expect_quarantined: Vec<usize> = hit_lines
            .iter()
            .copied()
            .filter(|&l| l != last_line)
            .collect();

        let (_, recovered) = recover_image(&image.bytes);
        let got: Vec<usize> = recovered.quarantined().iter().map(|q| q.line).collect();
        assert_eq!(
            got, expect_quarantined,
            "quarantined lines must be exactly the flipped lines \
             (nonce {nonce}, flips {:?})",
            image.flipped
        );
        assert_eq!(
            recovered.had_torn_tail(),
            expect_torn,
            "a final-line flip is indistinguishable from a torn tail (nonce {nonce})"
        );
        assert!(
            recovered.len()
                + recovered.quarantined().len()
                + recovered.dropped_records() as usize
                + usize::from(recovered.had_torn_tail())
                <= total_lines,
            "accounting must never invent records"
        );
        // Replay converges on a sample of the rotten images.
        if resumes < 5 {
            let (_, mut wal) = recover_image(&image.bytes);
            let resumed = ServeEngine::new(copilot.clone(), config(2))
                .run_with_wal(&incidents, &stream(), &mut wal)
                .expect("recovered journal");
            assert_eq!(
                resumed.log, baseline,
                "resume after bit rot (nonce {nonce})"
            );
            resumes += 1;
        }
    }
    assert!(
        images_with_flips >= 10,
        "bit-rot preset too weak to exercise anything: {images_with_flips}"
    );
    assert!(resumes >= 3, "too few rotten resumes: {resumes}");
}

/// A disk with a tight byte budget: the engine must complete the run
/// with the baseline log, answering `ENOSPC` with fold-and-retry and
/// surfacing the degradation in the report instead of aborting.
#[test]
fn enospc_budget_degrades_to_paused_durability_but_completes() {
    let (copilot, test) = fixture();
    let incidents: Vec<Incident> = test.iter().take(10).cloned().collect();
    let baseline = ServeEngine::new(copilot.clone(), config(2))
        .run(&incidents, &stream())
        .log;
    // Size the budget off the clean journal: roomy enough to start,
    // far too small for the whole run.
    let (clean_disk, _) = run_on_disk(2, &incidents, &StorageFaultPlan::clean(31));
    let full_len = clean_disk
        .crash_image(CrashPoint {
            barriers: usize::MAX,
            tail_bytes: 0,
            nonce: 0,
        })
        .bytes
        .len();
    let plan = StorageFaultPlan::tight_budget(31, (full_len / 3) as u64);
    let disk = SimDisk::new(SimDiskConfig::from_plan(&plan));
    let mut wal = WriteAheadLog::with_sink(Box::new(disk.clone())).expect("fresh disk");
    let mut cfg = config(2);
    cfg.checkpoint_every = 4; // folding is what frees budget
    let out = ServeEngine::new(copilot.clone(), cfg)
        .run_with_wal(&incidents, &stream(), &mut wal)
        .expect("ENOSPC must never be fatal");
    assert_eq!(out.log, baseline, "budget pressure must not change results");
    assert!(wal.enospc_events() > 0, "budget was sized to be hit");
    assert!(wal.durability_paused_spans() > 0);
    assert!(
        wal.is_durable(),
        "ENOSPC keeps the sink attached (paused), never detaches it"
    );
    // The journal on media is a consistent loadable prefix even if the
    // run ended mid-pause.
    let mut media = disk.clone();
    let bytes = media.contents().expect("media");
    let reloaded = WriteAheadLog::load_bytes(&bytes);
    assert!(reloaded.quarantined().is_empty());
    reloaded.recover().expect("media journal is consistent");
    // Degradation is surfaced in the engine report's fault counters.
    let rendered = serde_json::to_string(&out.report).expect("report");
    assert!(
        rendered.contains("\"enospc_events\""),
        "report must carry the durability counters"
    );
}

/// Flaky I/O (injected per-mille write + fsync errors): the engine
/// retries, degrades, and completes with the baseline log — transient
/// storage noise must never change predictions or abort a run.
#[test]
fn flaky_io_is_retried_or_degraded_but_never_changes_results() {
    let (copilot, test) = fixture();
    let incidents: Vec<Incident> = test.iter().take(10).cloned().collect();
    let baseline = ServeEngine::new(copilot.clone(), config(2))
        .run(&incidents, &stream())
        .log;
    // The preset's 30‰ rate is tuned for long bench sweeps; a short CI
    // run needs hotter dice to guarantee at least one firing.
    let mut disk_cfg = SimDiskConfig::from_plan(&StorageFaultPlan::flaky(37));
    disk_cfg.write_error_per_mille = 150;
    disk_cfg.fsync_error_per_mille = 150;
    let disk = SimDisk::new(disk_cfg);
    let mut wal = WriteAheadLog::with_sink(Box::new(disk.clone())).expect("fresh disk");
    let out = ServeEngine::new(copilot.clone(), config(2))
        .run_with_wal(&incidents, &stream(), &mut wal)
        .expect("flaky I/O must never be fatal");
    assert_eq!(out.log, baseline);
    assert!(
        wal.sink_retries() + wal.fsync_failures() + wal.sink_failures() > 0,
        "150‰ error rates must fire at least once over a whole run"
    );
    // Whatever survived on media must load and recover cleanly.
    let mut media = disk.clone();
    let bytes = media.contents().expect("media");
    let reloaded = WriteAheadLog::load_bytes(&bytes);
    reloaded.recover().expect("media journal is consistent");
}
