//! Multi-tenant bulkhead integration tests.
//!
//! The tentpole isolation property: in a merged multi-tenant run, every
//! tenant's prediction log is **byte-identical** to a solo run of that
//! tenant with the same derived fair-share config — across worker
//! counts, and with a noisy neighbor (flapping monitor storm +
//! ~30% worker-fault climate) raging in the same plane. Plus the
//! satellite: a durable journal holding interleaved multi-tenant records
//! reopens after a torn tail with only the owning tenant's watermark
//! rolled back.

use proptest::prelude::*;
use rcacopilot::core::eval::PreparedDataset;
use rcacopilot::core::pipeline::{RcaCopilot, RcaCopilotConfig};
use rcacopilot::core::ContextSpec;
use rcacopilot::embed::{FastTextConfig, FeatureExtractor};
use rcacopilot::serve::{
    AdmissionConfig, BreakerConfig, EngineConfig, IndexMode, MultiTenantConfig, MultiTenantEngine,
    ServeEngine, WriteAheadLog,
};
use rcacopilot::simcloud::noise::NoiseProfile;
use rcacopilot::simcloud::{
    generate_dataset, partition_tenants, CampaignConfig, Incident, TenantStormPlan, Topology,
};
use rcacopilot::telemetry::ids::TenantId;
use std::sync::OnceLock;

/// Shared fixture: one trained copilot plus its held-out incidents.
/// Training is the expensive part; every case replays subsets.
fn fixture() -> &'static (RcaCopilot, Vec<Incident>) {
    static FIXTURE: OnceLock<(RcaCopilot, Vec<Incident>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = generate_dataset(&CampaignConfig {
            seed: 31,
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

fn base_config(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        index_mode: IndexMode::Online,
        admission: AdmissionConfig {
            capacity_secs: 28_800,
            ..AdmissionConfig::default()
        },
        breaker: Some(BreakerConfig::default()),
        ..EngineConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cross-tenant isolation, the tentpole invariant: each tenant's log
    /// in a merged run (workers w₁) is byte-identical to a solo run of
    /// that tenant (workers w₂ — *different* pool geometry) using the same derived fair-share config — even
    /// though one tenant is a flapping storm with a ~30% worker-fault
    /// climate and its own circuit breaker tripping.
    #[test]
    fn tenant_logs_match_solo_baselines_across_workers_and_shards(
        picks in proptest::collection::vec(0usize..100, 6..14),
        quiet_tenants in 1usize..4,
        storm_slot in 0usize..4,
        merged_workers in 1usize..5,
        solo_workers in 1usize..5,
        seed in 40u64..60,
    ) {
        let (copilot, test) = fixture();
        let incidents: Vec<Incident> = picks
            .iter()
            .map(|&p| test[p % test.len()].clone())
            .collect();
        let mut plans: Vec<TenantStormPlan> = (0..quiet_tenants)
            .map(|i| TenantStormPlan::quiet(TenantId(1 + i as u64), seed + i as u64))
            .collect();
        let storm_slot = storm_slot % (plans.len() + 1);
        plans.insert(
            storm_slot,
            TenantStormPlan::flapping_storm(TenantId(100), seed + 17),
        );
        let parts = partition_tenants(&incidents, &plans);

        let merged_cfg = MultiTenantConfig {
            base: base_config(merged_workers),
            ..MultiTenantConfig::default()
        };
        let plane = MultiTenantEngine::from_plans(copilot.clone(), merged_cfg, &plans)
            .expect("generated plans are distinct and non-empty");
        let out = plane.run(&parts).expect("one slice per tenant");

        let solo_base = base_config(solo_workers);
        for (i, run) in out.tenants.iter().enumerate() {
            let solo_cfg = MultiTenantEngine::tenant_engine_config(
                &solo_base,
                &plane.specs()[i],
                plane.total_weight(),
                None,
            );
            let solo = ServeEngine::new(copilot.clone(), solo_cfg)
                .run(&parts[i], &plane.specs()[i].stream);
            prop_assert_eq!(
                &run.outcome.log,
                &solo.log,
                "tenant {:?} (slot {}) diverged from its solo baseline \
                 (merged {}w vs solo {}w)",
                run.tenant,
                i,
                merged_workers,
                solo_workers
            );
        }

        // The merged transcript is a pure interleave: `ten=`-filtering
        // recovers each tenant's log exactly, and nothing else is in it.
        let mut recovered = 0usize;
        for run in &out.tenants {
            let tag = format!(" ten={} ", run.tenant.0);
            let filtered: String = out
                .log
                .lines()
                .filter(|l| l.contains(&tag))
                .map(|l| format!("{l}\n"))
                .collect();
            prop_assert_eq!(&filtered, &run.outcome.log);
            recovered += filtered.lines().count();
        }
        prop_assert_eq!(recovered, out.log.lines().count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tenant-sharded runtime is a pure re-scheduling: over arbitrary
    /// (tenant count × shard count × per-tenant worker count) geometries,
    /// the parallel sharded composition reproduces the sequential one
    /// byte for byte — merged transcript, every per-tenant log, and the
    /// shared virtual horizon. Journaling through a WAL under one shard
    /// count and *recovering under a different one* also converges to the
    /// same transcript: shard geometry is invisible to the journal.
    #[test]
    fn sharded_runtime_reproduces_the_sequential_composition(
        picks in proptest::collection::vec(0usize..100, 8..16),
        quiet_tenants in 2usize..6,
        shards_pow in 1u32..4,
        resume_shards_pow in 0u32..4,
        tenant_workers in 1usize..3,
        seed in 60u64..80,
    ) {
        let (copilot, test) = fixture();
        let incidents: Vec<Incident> = picks
            .iter()
            .map(|&p| test[p % test.len()].clone())
            .collect();
        let mut plans: Vec<TenantStormPlan> = (0..quiet_tenants)
            .map(|i| TenantStormPlan::quiet(TenantId(1 + i as u64), seed + i as u64))
            .collect();
        let storm_slot = (seed as usize) % (plans.len() + 1);
        plans.insert(
            storm_slot,
            TenantStormPlan::flapping_storm(TenantId(100), seed + 23),
        );
        let parts = partition_tenants(&incidents, &plans);
        let config = |shards: usize| MultiTenantConfig {
            base: base_config(2),
            shards,
            tenant_workers: Some(tenant_workers),
            ..MultiTenantConfig::default()
        };
        let plane = |shards: usize| {
            MultiTenantEngine::from_plans(copilot.clone(), config(shards), &plans)
                .expect("generated plans are distinct and non-empty")
        };

        let sequential = plane(1).run(&parts).expect("one slice per tenant");
        let shards = 1usize << shards_pow;
        let sharded = plane(shards).run(&parts).expect("one slice per tenant");
        prop_assert_eq!(
            &sharded.log,
            &sequential.log,
            "{} shards diverged from the sequential composition",
            shards
        );
        for (a, b) in sharded.tenants.iter().zip(&sequential.tenants) {
            prop_assert_eq!(&a.outcome.log, &b.outcome.log, "tenant {:?}", a.tenant);
        }
        prop_assert_eq!(sharded.horizon_secs, sequential.horizon_secs);

        // Journal under the sharded geometry, then recover the journal
        // under a different shard count: same transcript, no re-execution
        // drift — the WAL stream merge is shard-agnostic.
        let mut wal = WriteAheadLog::new();
        let journaled = plane(shards)
            .run_with_wal(&parts, &mut wal)
            .expect("clean in-memory journal");
        prop_assert_eq!(&journaled.log, &sequential.log);
        let resume_shards = 1usize << resume_shards_pow;
        let resumed = plane(resume_shards)
            .run_with_wal(&parts, &mut wal.clone())
            .expect("clean in-memory journal");
        prop_assert_eq!(
            &resumed.log,
            &sequential.log,
            "recovery into {} shards diverged from the {}-shard journal",
            resume_shards,
            shards
        );
    }
}

/// Satellite: a *durable* journal holding interleaved multi-tenant
/// records survives a torn-tail reopen with per-tenant watermarks — the
/// tenant owning the torn line loses exactly that commit; every other
/// tenant's watermark is untouched.
#[test]
fn durable_interleaved_wal_reopen_rolls_back_only_the_torn_tenant() {
    let (copilot, test) = fixture();
    let incidents: Vec<Incident> = test.iter().take(10).cloned().collect();
    let plans = [
        TenantStormPlan::quiet(TenantId(1), 71),
        TenantStormPlan::quiet(TenantId(2), 72),
    ];
    let parts = partition_tenants(&incidents, &plans);
    let config = MultiTenantConfig {
        base: EngineConfig {
            admission: AdmissionConfig::unbounded(),
            ..EngineConfig::default()
        },
        ..MultiTenantConfig::default()
    };
    let plane =
        MultiTenantEngine::from_plans(copilot.clone(), config, &plans).expect("well-formed plans");

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/wal-tests");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("multitenant.wal");
    let _ = std::fs::remove_file(&path);

    // Run both tenants through one durable journal; the adopted merge
    // interleaves their streams by virtual anchor time.
    let out = {
        let mut wal = WriteAheadLog::open_durable(&path).expect("create");
        plane.run_with_wal(&parts, &mut wal).expect("clean journal")
    };
    let committed: Vec<usize> = out
        .tenants
        .iter()
        .map(|t| t.outcome.records.len())
        .collect();
    assert!(committed.iter().all(|&c| c > 0), "both tenants commit");

    // Tear the tail of the last line on disk — a crash mid-append.
    let bytes = std::fs::read(&path).expect("journal file");
    let torn_owner = {
        let text = String::from_utf8(bytes.clone()).expect("utf8 journal");
        let last = text.lines().last().expect("nonempty journal");
        // The last journaled line belongs to whichever tenant anchors
        // latest; recover its owner from the parsed record.
        let wal = WriteAheadLog::load(&text);
        let records = wal.records().expect("parseable");
        assert!(last.len() > 16, "line long enough to tear");
        records.last().expect("nonempty").tenant()
    };
    std::fs::write(&path, &bytes[..bytes.len() - 12]).expect("tear tail");

    // Reopen: the torn line is dropped; per-tenant recovery rolls back
    // only the owner of the torn record.
    let reopened = WriteAheadLog::open_durable(&path).expect("torn tail tolerated");
    let recovered = reopened.recover_tenants().expect("gapless per tenant");
    for (i, run) in out.tenants.iter().enumerate() {
        let got = recovered
            .get(&run.tenant)
            .map(|r| r.committed())
            .unwrap_or(0);
        if run.tenant == torn_owner {
            assert!(
                got < committed[i],
                "the torn tenant must lose at least the torn commit"
            );
        } else {
            assert_eq!(
                got, committed[i],
                "tenant {:?} watermark must be untouched by a neighbor's torn tail",
                run.tenant
            );
        }
    }

    // And the plane resumes from the torn journal to the same merged log.
    let mut reloaded = WriteAheadLog::open_durable(&path).expect("reopen");
    let resumed = plane
        .run_with_wal(&parts, &mut reloaded)
        .expect("recoverable journal");
    assert_eq!(resumed.log, out.log, "resume after torn tail diverged");
}

/// Satellite: *mid-log* corruption (bit rot, not a torn tail) in one
/// tenant's stream of an interleaved durable journal is quarantined on
/// reopen, rolls the owner back to the record before the flip, and must
/// not move any other tenant's watermark. The plane then resumes from
/// the damaged journal to the exact merged log of the clean run.
#[test]
fn mid_log_corruption_in_one_tenant_leaves_neighbor_watermarks_intact() {
    let (copilot, test) = fixture();
    let incidents: Vec<Incident> = test.iter().take(12).cloned().collect();
    let plans = [
        TenantStormPlan::quiet(TenantId(1), 81),
        TenantStormPlan::quiet(TenantId(2), 82),
    ];
    let parts = partition_tenants(&incidents, &plans);
    let config = MultiTenantConfig {
        base: EngineConfig {
            admission: AdmissionConfig::unbounded(),
            ..EngineConfig::default()
        },
        ..MultiTenantConfig::default()
    };
    let plane =
        MultiTenantEngine::from_plans(copilot.clone(), config, &plans).expect("well-formed plans");

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/wal-tests");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("multitenant_bitrot.wal");
    let _ = std::fs::remove_file(&path);

    let out = {
        let mut wal = WriteAheadLog::open_durable(&path).expect("create");
        plane.run_with_wal(&parts, &mut wal).expect("clean journal")
    };
    let committed: Vec<usize> = out
        .tenants
        .iter()
        .map(|t| t.outcome.records.len())
        .collect();
    assert!(
        committed.iter().all(|&c| c >= 2),
        "both tenants commit twice"
    );

    // Pick a mid-log commit with seq >= 1 whose owner has a later
    // record, and flip one bit inside its framed payload.
    let text = std::fs::read_to_string(&path).expect("journal file");
    let records = WriteAheadLog::load(&text).records().expect("parseable");
    let lines: Vec<&str> = text.lines().collect();
    let (victim_line, victim_owner, victim_seq) = records
        .iter()
        .enumerate()
        .filter_map(|(i, r)| match r {
            rcacopilot::serve::WalRecord::Commit { seq, .. }
                if *seq >= 1 && i + 1 < lines.len() =>
            {
                Some((i, r.tenant(), *seq))
            }
            _ => None,
        })
        .next()
        .expect("an interleaved journal has a mid-log commit past seq 0");
    let offset: usize = lines[..victim_line].iter().map(|l| l.len() + 1).sum();
    let mut bytes = text.into_bytes();
    bytes[offset + 20] ^= 0x01;
    std::fs::write(&path, &bytes).expect("inject bit rot");

    // Reopen: the flip is caught by the record CRC and quarantined, the
    // owner rolls back to the break, the neighbor is untouched.
    let reopened = WriteAheadLog::open_durable(&path).expect("corruption quarantined, not fatal");
    assert_eq!(reopened.quarantined().len(), 1, "exactly the injected flip");
    let recovered = reopened.recover_tenants().expect("gapless per tenant");
    for (i, run) in out.tenants.iter().enumerate() {
        let got = recovered
            .get(&run.tenant)
            .map(|r| r.committed())
            .unwrap_or(0);
        if run.tenant == victim_owner {
            assert_eq!(
                got, victim_seq,
                "owner must roll back to exactly the corrupted record"
            );
        } else {
            assert_eq!(
                got, committed[i],
                "tenant {:?} watermark must be untouched by a neighbor's bit rot",
                run.tenant
            );
        }
    }

    // The reopen rewrote the journal to its consistent prefix; resuming
    // re-executes the owner's lost suffix and converges byte-identically.
    let mut reloaded = WriteAheadLog::open_durable(&path).expect("reopen");
    let resumed = plane
        .run_with_wal(&parts, &mut reloaded)
        .expect("recoverable journal");
    assert_eq!(resumed.log, out.log, "resume after bit rot diverged");
}
