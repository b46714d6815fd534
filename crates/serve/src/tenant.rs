//! Multi-tenant bulkheads: fair-share composition of per-tenant engines.
//!
//! The paper's deployment serves 30+ OCE teams through one pipeline
//! (Table 4). This module makes tenancy a first-class robustness
//! boundary for the serving plane: each tenant gets its own stream, its
//! own fault climate, a weighted share of the pool, and hard bulkheads —
//! so one team's flapping monitor storm cannot starve, corrupt, or slow
//! another team's triage.
//!
//! **Architecture: composition, not a shared dispatcher.** A
//! [`MultiTenantEngine`] run composes one single-tenant [`ServeEngine`]
//! run per tenant, each built from a config derived by
//! [`MultiTenantEngine::tenant_engine_config`]:
//!
//! - admission capacity scaled to the tenant's fair share
//!   ([`AdmissionConfig::share`](crate::admission::AdmissionConfig::share),
//!   composing with `severity_admit_frac`);
//! - the memo caches namespaced to the tenant (shared physical pool,
//!   disjoint logical key spaces);
//! - WAL records, event records and index epochs tagged with the tenant,
//!   sequence numbers tenant-local;
//! - the tenant's own worker-fault plan, attempt ledger and optional
//!   circuit breaker.
//!
//! Because a solo baseline run uses the *same* derived config over the
//! *same* incident slice, every tenant's prediction log in a merged run
//! is byte-identical to its solo run **by construction** — the strongest
//! possible noisy-neighbor isolation guarantee, verified across worker
//! and scheduler geometries by the `serve_tenants` proptest suite.
//!
//! **The tenant-sharded scheduler.** Tenant runs are independent by the
//! isolation argument above, so the plane scales by *sharding tenants*,
//! not by sharing a dispatcher: [`MultiTenantConfig::shards`] deals the
//! tenant list round-robin (`slot % shards`) over K shard workers, each
//! a `std::thread` running its tenants in ascending slot order over the
//! shared [`PlanCaches`] pool, one shared plane-wide [`VirtualClock`]
//! (the shard-aware virtual-time merge: `advance_to` is a `fetch_max`,
//! so the merged horizon is interleaving-independent), and one shared
//! metrics registry. Per-tenant setup is O(1): the trained pipeline is an
//! [`Arc`] bump ([`ServeEngine::shared`]), the config one clone, the
//! cache namespace a key prefix, and the WAL stream a pre-split
//! in-memory journal. Outcomes, merged transcripts and adopted journals
//! are assembled in slot order after the shards join, so **every output
//! is byte-identical at any shard count** — the sharding only changes
//! which thread computes each tenant's (deterministic) run.
//!
//! What *is* shared — the worker pool — is modeled where the rest of the
//! crate models contention: in virtual time. [`simulate_drr`] schedules
//! every tenant's admitted work over the shared pool under deficit round
//! robin (weights = fair shares, per-tenant in-flight caps = bulkheads),
//! yielding the merged and per-tenant latency statistics a wall-clock
//! scheduler would produce, deterministically.

use crate::clock::{Clock, ClockConfig, VirtualClock};
use crate::cost;
use crate::engine::{EngineConfig, EventOutcome, EventRecord, ServeEngine, ServeOutcome};
use crate::fault::WorkerFaultConfig;
use crate::stream::{ArrivalModel, StreamConfig};
use crate::vmetrics::{simulate_drr, DrrJob, DrrStats};
use crate::wal::{WalError, WriteAheadLog};
use rcacopilot_core::plan::PlanCaches;
use rcacopilot_core::RcaCopilot;
use rcacopilot_simcloud::{Incident, TenantStormPlan};
use rcacopilot_telemetry::ids::TenantId;
use serde_json::{json, Value};
use std::fmt;
use std::sync::Arc;
use std::thread;

/// Typed failures of the multi-tenant plane.
#[derive(Debug)]
pub enum TenantError {
    /// The spec list was empty — a plane needs at least one tenant.
    EmptySpecs,
    /// Two specs named the same tenant.
    DuplicateTenant(TenantId),
    /// The incident slices don't align with the specs.
    PartMismatch {
        /// Number of tenant specs.
        specs: usize,
        /// Number of incident slices supplied.
        parts: usize,
    },
    /// A tenant's journal failed to recover or adopt.
    Wal(WalError),
}

impl fmt::Display for TenantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantError::EmptySpecs => write!(f, "need at least one tenant spec"),
            TenantError::DuplicateTenant(t) => write!(f, "duplicate tenant id {}", t.0),
            TenantError::PartMismatch { specs, parts } => write!(
                f,
                "one incident slice per tenant spec ({specs} specs, {parts} slices)"
            ),
            TenantError::Wal(e) => write!(f, "tenant journal error: {e}"),
        }
    }
}

impl std::error::Error for TenantError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TenantError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WalError> for TenantError {
    fn from(e: WalError) -> Self {
        TenantError::Wal(e)
    }
}

/// One tenant's serving-side contract: identity, fair-share weight,
/// stream shape, fault climate, and bulkhead cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// The tenant.
    pub tenant: TenantId,
    /// Fair-share weight (admission capacity fraction and DRR credit).
    pub weight: u32,
    /// The tenant's alert-stream configuration.
    pub stream: StreamConfig,
    /// The tenant's worker-fault climate.
    pub faults: WorkerFaultConfig,
    /// In-flight bulkhead cap in the shared pool (`None` = pool-bounded).
    pub in_flight_cap: Option<usize>,
}

impl TenantSpec {
    /// Translates a workload plan from the simulation crate into the
    /// serving plane's own config types. Plans with `burst_prob == 0`
    /// map to Poisson arrivals, bursty plans to storm arrivals.
    pub fn from_plan(plan: &TenantStormPlan) -> Self {
        let arrivals = if plan.burst_prob > 0.0 {
            ArrivalModel::Bursty {
                mean_gap_secs: plan.mean_gap_secs,
                burst_prob: plan.burst_prob,
                burst_len: plan.burst_len,
                burst_gap_secs: plan.burst_gap_secs,
            }
        } else {
            ArrivalModel::Poisson {
                mean_gap_secs: plan.mean_gap_secs,
            }
        };
        TenantSpec {
            tenant: plan.tenant,
            weight: plan.weight.max(1),
            stream: StreamConfig {
                seed: plan.stream_seed,
                arrivals,
                reraise_prob: plan.reraise_prob,
            },
            faults: WorkerFaultConfig {
                seed: plan.fault_seed,
                panic_per_mille: plan.panic_per_mille,
                stall_per_mille: plan.stall_per_mille,
                error_per_mille: plan.error_per_mille,
            },
            in_flight_cap: plan.in_flight_cap,
        }
    }
}

/// Configuration of the multi-tenant composition.
#[derive(Debug, Clone)]
pub struct MultiTenantConfig {
    /// Template for every tenant's engine. `tenant`, `admission`,
    /// `faults` and `caches` are overridden per tenant by
    /// [`MultiTenantEngine::tenant_engine_config`]; everything else
    /// (workers, shards, index mode, thresholds, breaker, …) is shared.
    pub base: EngineConfig,
    /// DRR quantum (virtual seconds of service credited per visit per
    /// unit weight) for the shared-pool schedule.
    pub quantum_secs: u64,
    /// Tenant-shard workers running the per-tenant engines (1 = the
    /// sequential legacy composition, on the caller thread). Tenants
    /// deal round-robin to shards by spec slot; every output is
    /// byte-identical at any value.
    pub shards: usize,
    /// Per-tenant engine worker override (`None` = inherit
    /// `base.workers`). `Some(1)` selects the engine's inline
    /// single-threaded path — the right choice when thousands of small
    /// tenant engines run inside shard workers, where nested pools
    /// would only add thread churn. Prediction logs are worker-count
    /// independent, so this never changes a tenant's log.
    pub tenant_workers: Option<usize>,
    /// Cardinality cap installed on the metrics registry's `tenant`
    /// label before the run (0 = unlimited). The plane pre-admits its
    /// tenants in slot order, so which tenants keep dedicated series is
    /// deterministic; the rest fold into the
    /// [`OVERFLOW_LABEL_VALUE`](crate::metrics::OVERFLOW_LABEL_VALUE)
    /// series.
    pub metrics_tenant_cap: usize,
}

impl Default for MultiTenantConfig {
    fn default() -> Self {
        MultiTenantConfig {
            base: EngineConfig::default(),
            quantum_secs: 60,
            shards: 1,
            tenant_workers: None,
            metrics_tenant_cap: 0,
        }
    }
}

/// One tenant's slice of a multi-tenant run.
#[derive(Debug, Clone)]
pub struct TenantRun {
    /// The tenant.
    pub tenant: TenantId,
    /// Its fair-share weight.
    pub weight: u32,
    /// The tenant's full engine outcome — records, log, report. The
    /// `log` is byte-identical to a solo run of the same tenant over the
    /// same incident slice.
    pub outcome: ServeOutcome,
}

/// Result of a multi-tenant run.
#[derive(Debug, Clone)]
pub struct MultiTenantOutcome {
    /// Per-tenant runs, in spec order.
    pub tenants: Vec<TenantRun>,
    /// The merged prediction log: every tenant's records interleaved by
    /// `(arrival, tenant, seq)` — the canonical deterministic transcript
    /// of the whole plane.
    pub log: String,
    /// Shared-pool deficit-round-robin schedule statistics: the merged
    /// pool view plus per-tenant latency/wait stats under fair-share
    /// scheduling with bulkhead caps.
    pub drr: DrrStats,
    /// The plane-wide virtual horizon: the furthest arrival instant any
    /// tenant's dispatcher planned to, read off the shared plane clock
    /// (0 under a real clock, where the horizon is wall time).
    pub horizon_secs: u64,
    /// JSON report: per-tenant admission/fault summaries plus the DRR
    /// pool statistics and the plane/scheduler section.
    pub report: Value,
}

/// One tenant's unit of work for a shard worker: the spec, its incident
/// slice, and (when journaling) its pre-split WAL stream — everything a
/// shard needs, assembled once per tenant before the shards start.
struct TenantTask<'a> {
    slot: usize,
    spec: &'a TenantSpec,
    part: &'a [Incident],
    twal: Option<WriteAheadLog>,
}

/// One finished tenant task: its outcome and, when journaling, its WAL
/// stream for post-join adoption.
type TaskResult = (ServeOutcome, Option<(TenantId, WriteAheadLog)>);

/// The multi-tenant serving plane: a trained pipeline fanned out into
/// one bulkheaded [`ServeEngine`] per tenant, scheduled over
/// [`MultiTenantConfig::shards`] shard workers.
#[derive(Debug)]
pub struct MultiTenantEngine {
    copilot: Arc<RcaCopilot>,
    config: MultiTenantConfig,
    specs: Vec<TenantSpec>,
}

impl MultiTenantEngine {
    /// Builds the plane from per-tenant specs.
    ///
    /// # Errors
    ///
    /// [`TenantError::EmptySpecs`] on an empty spec list,
    /// [`TenantError::DuplicateTenant`] on a repeated tenant id.
    pub fn new(
        copilot: RcaCopilot,
        config: MultiTenantConfig,
        specs: Vec<TenantSpec>,
    ) -> Result<Self, TenantError> {
        MultiTenantEngine::shared(Arc::new(copilot), config, specs)
    }

    /// Like [`MultiTenantEngine::new`], over an already-shared pipeline
    /// (no model clone).
    ///
    /// # Errors
    ///
    /// Same contract as [`MultiTenantEngine::new`].
    pub fn shared(
        copilot: Arc<RcaCopilot>,
        config: MultiTenantConfig,
        specs: Vec<TenantSpec>,
    ) -> Result<Self, TenantError> {
        if specs.is_empty() {
            return Err(TenantError::EmptySpecs);
        }
        for (i, a) in specs.iter().enumerate() {
            if specs[..i].iter().any(|b| b.tenant == a.tenant) {
                return Err(TenantError::DuplicateTenant(a.tenant));
            }
        }
        Ok(MultiTenantEngine {
            copilot,
            config,
            specs,
        })
    }

    /// Builds the plane from simulation-side workload plans.
    ///
    /// # Errors
    ///
    /// Same contract as [`MultiTenantEngine::new`].
    pub fn from_plans(
        copilot: RcaCopilot,
        config: MultiTenantConfig,
        plans: &[TenantStormPlan],
    ) -> Result<Self, TenantError> {
        MultiTenantEngine::from_plans_shared(Arc::new(copilot), config, plans)
    }

    /// [`MultiTenantEngine::from_plans`] over an already-shared pipeline.
    ///
    /// # Errors
    ///
    /// Same contract as [`MultiTenantEngine::new`].
    pub fn from_plans_shared(
        copilot: Arc<RcaCopilot>,
        config: MultiTenantConfig,
        plans: &[TenantStormPlan],
    ) -> Result<Self, TenantError> {
        MultiTenantEngine::shared(
            copilot,
            config,
            plans.iter().map(TenantSpec::from_plan).collect(),
        )
    }

    /// The tenant specs, in run order.
    pub fn specs(&self) -> &[TenantSpec] {
        &self.specs
    }

    /// Sum of all tenant weights.
    pub fn total_weight(&self) -> u32 {
        self.specs.iter().map(|s| s.weight).sum()
    }

    /// Derives one tenant's engine config from the base template: the
    /// single source of truth shared by the merged run and any solo
    /// baseline, which is what makes per-tenant logs byte-identical
    /// between the two. `caches` is the shared physical memo pool
    /// (`None` for an isolated solo run — namespacing makes the results
    /// identical either way).
    ///
    /// The struct-update tail also inherits the base's
    /// [`EngineConfig::clock`] and [`EngineConfig::metrics`]: every
    /// tenant runs under the same clock mode, and a shared
    /// [`crate::metrics::MetricsRegistry`] `Arc` distinguishes tenants
    /// purely by the `tenant` label on each series.
    pub fn tenant_engine_config(
        base: &EngineConfig,
        spec: &TenantSpec,
        total_weight: u32,
        caches: Option<Arc<PlanCaches>>,
    ) -> EngineConfig {
        EngineConfig {
            tenant: spec.tenant,
            admission: base.admission.share(spec.weight, total_weight),
            faults: spec.faults,
            caches,
            ..base.clone()
        }
    }

    /// Runs every tenant over its incident slice (aligned with
    /// [`MultiTenantEngine::specs`]) and composes the merged transcript
    /// and the shared-pool DRR statistics.
    ///
    /// # Errors
    ///
    /// [`TenantError::PartMismatch`] when the slices don't align with
    /// the specs.
    pub fn run(&self, parts: &[Vec<Incident>]) -> Result<MultiTenantOutcome, TenantError> {
        self.check_parts(parts)?;
        let (outcomes, horizon_secs) = self.run_tenants(parts, None)?;
        Ok(self.compose(outcomes, parts, None, horizon_secs))
    }

    /// Like [`MultiTenantEngine::run`], but journaling through `wal`:
    /// the journal is split into per-tenant streams, each tenant resumes
    /// from (and appends to) its own stream, and the per-tenant journals
    /// are merged back — interleaved by virtual anchor time — and
    /// adopted into `wal` through [`WriteAheadLog::adopt_tenants`]
    /// (keeping its durable sink, if any). A torn tail in one tenant's
    /// stream therefore rolls back only that tenant's watermark.
    ///
    /// # Errors
    ///
    /// [`TenantError::PartMismatch`] when the slices don't align;
    /// [`TenantError::Wal`] if the journal is corrupt or any tenant's
    /// commit prefix has a gap (the lowest-slot failure when several
    /// shards fail — deterministic under any interleaving). On error the
    /// parent journal is left unmodified.
    pub fn run_with_wal(
        &self,
        parts: &[Vec<Incident>],
        wal: &mut WriteAheadLog,
    ) -> Result<MultiTenantOutcome, TenantError> {
        self.check_parts(parts)?;
        let (outcomes, horizon_secs) = self.run_tenants(parts, Some(wal))?;
        Ok(self.compose(outcomes, parts, Some(wal), horizon_secs))
    }

    fn check_parts(&self, parts: &[Vec<Incident>]) -> Result<(), TenantError> {
        if parts.len() != self.specs.len() {
            return Err(TenantError::PartMismatch {
                specs: self.specs.len(),
                parts: parts.len(),
            });
        }
        Ok(())
    }

    /// The per-tenant engine base for this run: worker override applied,
    /// clock replaced by the shared plane cursor when virtual.
    fn effective_base(&self, plane_clock: Option<&Arc<VirtualClock>>) -> EngineConfig {
        let mut base = self.config.base.clone();
        if let Some(workers) = self.config.tenant_workers {
            base.workers = workers.max(1);
        }
        if let Some(clock) = plane_clock {
            base.clock = ClockConfig::SharedVirtual(Arc::clone(clock));
        }
        base
    }

    /// Installs the `tenant` label cardinality cap and pre-admits the
    /// plane's tenants in slot order, so cap winners don't depend on
    /// shard interleaving.
    fn install_metrics_guard(&self) {
        let cap = self.config.metrics_tenant_cap;
        if cap == 0 {
            return;
        }
        let Some(registry) = self.config.base.metrics.as_deref() else {
            return;
        };
        registry.limit_label_values("tenant", cap);
        for spec in &self.specs {
            registry.admit_label_value("tenant", &spec.tenant.0.to_string());
        }
    }

    /// Runs one tenant task to completion: derive the config (O(1) —
    /// admission share, cache namespace, shared clock handle), stamp an
    /// engine off the shared pipeline, run, and hand back the journal
    /// stream for post-join adoption.
    fn run_one(
        &self,
        base: &EngineConfig,
        total_weight: u32,
        shared: &Arc<PlanCaches>,
        task: TenantTask<'_>,
    ) -> Result<TaskResult, WalError> {
        let cfg = MultiTenantEngine::tenant_engine_config(
            base,
            task.spec,
            total_weight,
            Some(Arc::clone(shared)),
        );
        let engine = ServeEngine::shared(Arc::clone(&self.copilot), cfg);
        match task.twal {
            Some(mut twal) => {
                let outcome = engine.run_with_wal(task.part, &task.spec.stream, &mut twal)?;
                Ok((outcome, Some((task.spec.tenant, twal))))
            }
            None => Ok((engine.run(task.part, &task.spec.stream), None)),
        }
    }

    /// The tenant-sharded composition: deal tenants round-robin over
    /// [`MultiTenantConfig::shards`] shard workers, run each tenant's
    /// engine over the shared plane (caches, clock, metrics), and
    /// reassemble outcomes and journal streams in slot order. With one
    /// shard everything runs sequentially on the caller thread — the
    /// legacy composition, which the parallel schedule reproduces byte
    /// for byte at any shard count.
    fn run_tenants(
        &self,
        parts: &[Vec<Incident>],
        wal: Option<&mut WriteAheadLog>,
    ) -> Result<(Vec<ServeOutcome>, u64), TenantError> {
        let total = self.total_weight();
        let shared = Arc::new(PlanCaches::new(1));
        // The shard-aware virtual-time merge: one plane-wide cursor all
        // tenant engines advance (fetch_max — commutative, so the merged
        // horizon is independent of shard interleaving). Real clocks are
        // per-engine wall readings and stay as configured.
        let plane_clock = match &self.config.base.clock {
            ClockConfig::Virtual => Some(Arc::new(VirtualClock::new())),
            ClockConfig::SharedVirtual(clock) => Some(Arc::clone(clock)),
            ClockConfig::Real(_) => None,
        };
        let base = self.effective_base(plane_clock.as_ref());
        self.install_metrics_guard();
        let journaling = wal.is_some();
        let mut tenant_wals = match &wal {
            Some(w) => w.split_tenants()?,
            None => Default::default(),
        };
        // Per-tenant setup, amortized: each task carries borrowed spec +
        // incidents and (when journaling) its own pre-split stream —
        // O(1) allocations per tenant, independent of its event count.
        let mut tasks: Vec<TenantTask<'_>> = Vec::with_capacity(self.specs.len());
        for (slot, (spec, part)) in self.specs.iter().zip(parts).enumerate() {
            let twal = journaling.then(|| tenant_wals.remove(&spec.tenant).unwrap_or_default());
            tasks.push(TenantTask {
                slot,
                spec,
                part,
                twal,
            });
        }
        let shards = self.config.shards.max(1).min(tasks.len());
        let mut results: Vec<Option<TaskResult>> = (0..tasks.len()).map(|_| None).collect();
        let mut failures: Vec<(usize, WalError)> = Vec::new();
        if shards <= 1 {
            for task in tasks {
                let slot = task.slot;
                match self.run_one(&base, total, &shared, task) {
                    Ok(row) => results[slot] = Some(row),
                    Err(e) => {
                        // Sequential semantics: stop at the first failing
                        // tenant, leaving the parent journal untouched.
                        failures.push((slot, e));
                        break;
                    }
                }
            }
        } else {
            // Round-robin deal: shard s owns slots {s, s+K, s+2K, …} and
            // runs them in ascending slot order — the deterministic turn
            // order. Shards only read shared state (pipeline, caches,
            // clock, metrics), so their interleaving cannot reach any
            // output; everything slot-keyed is reassembled below.
            let mut shard_tasks: Vec<Vec<TenantTask<'_>>> =
                (0..shards).map(|_| Vec::new()).collect();
            for task in tasks {
                shard_tasks[task.slot % shards].push(task);
            }
            let base_ref = &base;
            let shared_ref = &shared;
            let shard_rows: Vec<Vec<_>> = thread::scope(|scope| {
                let handles: Vec<_> = shard_tasks
                    .into_iter()
                    .map(|batch| {
                        scope.spawn(move || {
                            batch
                                .into_iter()
                                .map(|task| {
                                    let slot = task.slot;
                                    (slot, self.run_one(base_ref, total, shared_ref, task))
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(rows) => rows,
                        Err(panic) => std::panic::resume_unwind(panic),
                    })
                    .collect()
            });
            for (slot, result) in shard_rows.into_iter().flatten() {
                match result {
                    Ok(row) => results[slot] = Some(row),
                    Err(e) => failures.push((slot, e)),
                }
            }
        }
        // Deterministic error: the lowest failing slot, exactly what the
        // sequential composition would have reported first.
        if let Some((_, err)) = failures.into_iter().min_by_key(|(slot, _)| *slot) {
            return Err(TenantError::Wal(err));
        }
        let mut outcomes = Vec::with_capacity(results.len());
        for row in results {
            let (outcome, twal) = row.expect("every tenant slot reports exactly once");
            if let Some((tenant, stream)) = twal {
                tenant_wals.insert(tenant, stream);
            }
            outcomes.push(outcome);
        }
        if let Some(w) = wal {
            // One writer touches the durable sink, after every shard has
            // joined; streams of tenants absent from this run (left over
            // in the journal) are preserved by the merge.
            w.adopt_tenants(&tenant_wals)?;
        }
        let horizon_secs = plane_clock.map_or(0, |clock| clock.now().as_secs());
        Ok((outcomes, horizon_secs))
    }

    /// Exports the merged run's per-tenant outcome and fault counters
    /// into the shared metrics registry (no-op without one). Runs after
    /// the shards join, in slot order, so series contents are
    /// deterministic; the `tenant` label respects the cardinality guard.
    fn export_plane_metrics(&self, outcomes: &[ServeOutcome]) {
        let Some(registry) = self.config.base.metrics.as_deref() else {
            return;
        };
        registry.describe(
            "rca_tenant_events_total",
            "Merged multi-tenant run: events per tenant by outcome.",
        );
        registry.describe(
            "rca_tenant_admission_total",
            "Merged multi-tenant run: admission dispositions per tenant.",
        );
        registry.describe(
            "rca_tenant_faults_total",
            "Merged multi-tenant run: fault counters per tenant by kind.",
        );
        for (spec, outcome) in self.specs.iter().zip(outcomes) {
            let tenant = spec.tenant.0.to_string();
            let mut predicted = 0u64;
            let mut degraded = 0u64;
            let mut shed = 0u64;
            let mut failed = 0u64;
            for record in &outcome.records {
                match &record.outcome {
                    EventOutcome::Predicted { degraded: true, .. } => degraded += 1,
                    EventOutcome::Predicted { .. } => predicted += 1,
                    EventOutcome::Shed { .. } => shed += 1,
                    EventOutcome::Failed { .. } => failed += 1,
                }
            }
            for (outcome_kind, count) in [
                ("predicted", predicted),
                ("degraded", degraded),
                ("shed", shed),
                ("failed", failed),
            ] {
                if count > 0 {
                    registry.inc_counter_by(
                        "rca_tenant_events_total",
                        &[("tenant", &tenant), ("outcome", outcome_kind)],
                        count,
                    );
                }
            }
            let executed = predicted + degraded + failed;
            for (disposition, count) in [
                ("shed", shed),
                ("degraded", degraded),
                ("executed", executed),
            ] {
                if count > 0 {
                    registry.inc_counter_by(
                        "rca_tenant_admission_total",
                        &[("tenant", &tenant), ("disposition", disposition)],
                        count,
                    );
                }
            }
            // Fault counters come off the tenant's run report (the
            // engine already folded WAL degradation into them).
            if let Some(fields) = outcome.report.as_map() {
                if let Some(faults) = Value::field(fields, "faults").as_map() {
                    for (kind, value) in faults {
                        if let Value::U64(count) = value {
                            if *count > 0 {
                                registry.inc_counter_by(
                                    "rca_tenant_faults_total",
                                    &[("tenant", &tenant), ("kind", kind)],
                                    *count,
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Merges per-tenant outcomes into the plane-wide transcript, DRR
    /// schedule and report. `wal` is the adopted parent journal, whose
    /// durability state (sink health, quarantine, `ENOSPC` pauses) is
    /// surfaced plane-wide in the report.
    fn compose(
        &self,
        outcomes: Vec<ServeOutcome>,
        parts: &[Vec<Incident>],
        wal: Option<&WriteAheadLog>,
        horizon_secs: u64,
    ) -> MultiTenantOutcome {
        // Merged transcript: interleave every tenant's records by
        // (arrival, tenant, tenant-local seq). Arrival ties across
        // tenants are broken by tenant id — a total, run-independent
        // order.
        let mut merged: Vec<&EventRecord> = outcomes.iter().flat_map(|o| &o.records).collect();
        merged.sort_by_key(|r| (r.at, r.tenant.0, r.seq));
        let mut log = String::new();
        for r in &merged {
            log.push_str(&r.log_line());
            log.push('\n');
        }
        self.export_plane_metrics(&outcomes);
        // Shared-pool DRR schedule over every executed event. Costs are
        // re-derived from the shared ex-ante model, so the schedule is
        // as deterministic as the logs. Shed and breaker-fast-failed
        // events never reach the pool.
        let weights: Vec<u32> = self.specs.iter().map(|s| s.weight).collect();
        let caps: Vec<Option<usize>> = self.specs.iter().map(|s| s.in_flight_cap).collect();
        let mut jobs: Vec<(u64, usize, u64)> = Vec::new();
        for (slot, outcome) in outcomes.iter().enumerate() {
            for r in &outcome.records {
                let alert = &parts[slot][r.incident_idx].alert;
                let c = cost::estimate(alert, self.config.base.cost_seed);
                let service = match &r.outcome {
                    EventOutcome::Shed { .. } => continue,
                    EventOutcome::Predicted { degraded, .. } => {
                        if *degraded {
                            c.degraded_total()
                        } else {
                            c.total()
                        }
                    }
                    EventOutcome::Failed { reason } => {
                        if reason.contains("circuit open") {
                            // Fast-failed: never dispatched, no pool work.
                            continue;
                        }
                        c.total()
                    }
                };
                jobs.push((r.at.as_secs(), slot, service));
            }
        }
        jobs.sort_unstable();
        let jobs: Vec<DrrJob> = jobs
            .into_iter()
            .map(|(arrival_secs, tenant_slot, service_secs)| DrrJob {
                tenant_slot,
                arrival_secs,
                service_secs,
            })
            .collect();
        let drr = simulate_drr(
            &jobs,
            self.config.base.workers.max(1),
            &weights,
            self.config.quantum_secs,
            &caps,
        );
        let tenant_reports: Vec<Value> = self
            .specs
            .iter()
            .zip(&outcomes)
            .zip(&drr.per_tenant)
            .map(|((spec, o), exec)| {
                let count = |pred: &dyn Fn(&EventOutcome) -> bool| {
                    o.records.iter().filter(|r| pred(&r.outcome)).count()
                };
                json!({
                    "tenant": spec.tenant.0,
                    "weight": spec.weight,
                    "in_flight_cap": spec.in_flight_cap,
                    "events": o.records.len(),
                    "predicted": count(&|oc| matches!(oc, EventOutcome::Predicted { .. })),
                    "degraded": count(&|oc| {
                        matches!(oc, EventOutcome::Predicted { degraded: true, .. })
                    }),
                    "shed": count(&|oc| matches!(oc, EventOutcome::Shed { .. })),
                    "failed": count(&|oc| matches!(oc, EventOutcome::Failed { .. })),
                    "pool": exec.to_json(),
                })
            })
            .collect();
        let report = json!({
            "tenants": Value::Seq(tenant_reports),
            "quantum_secs": self.config.quantum_secs,
            "plane": json!({
                "shards": self.config.shards.max(1).min(self.specs.len()),
                "tenant_workers": self.config.tenant_workers,
                "tenants": self.specs.len(),
                "merged_events": merged.len(),
                "horizon_secs": horizon_secs,
            }),
            "pool": drr.merged.to_json(),
            "wal": wal.map(|w| json!({
                "durable": w.is_durable(),
                "paused": w.is_paused(),
                "quarantined": w.quarantined().len(),
                "dropped_records": w.dropped_records(),
                "sink_failures": w.sink_failures(),
                "fsync_failures": w.fsync_failures(),
                "enospc_events": w.enospc_events(),
                "durability_paused_spans": w.durability_paused_spans(),
            })),
        });
        let tenants = self
            .specs
            .iter()
            .zip(outcomes)
            .map(|(spec, outcome)| TenantRun {
                tenant: spec.tenant,
                weight: spec.weight,
                outcome,
            })
            .collect();
        MultiTenantOutcome {
            tenants,
            log,
            drr,
            horizon_secs,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::metrics::{MetricsRegistry, OVERFLOW_LABEL_VALUE};
    use rcacopilot_core::eval::PreparedDataset;
    use rcacopilot_core::pipeline::RcaCopilotConfig;
    use rcacopilot_core::ContextSpec;
    use rcacopilot_embed::{FastTextConfig, FeatureExtractor};
    use rcacopilot_simcloud::noise::NoiseProfile;
    use rcacopilot_simcloud::{generate_dataset, partition_tenants, CampaignConfig, Topology};

    fn trained_copilot() -> (RcaCopilot, Vec<Incident>) {
        let dataset = generate_dataset(&CampaignConfig {
            seed: 5,
            topology: Topology::new(2, 4, 2, 2),
            noise: NoiseProfile {
                routine_logs: 2,
                herring_logs: 1,
                healthy_traces: 1,
                unrelated_failure: false,
                bystander_anomalies: 1,
            },
        });
        let split = dataset.split(7, 0.6);
        let prepared = PreparedDataset::prepare(&dataset, &split);
        let copilot = RcaCopilot::train(
            &prepared.train_examples(&ContextSpec::default()),
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
            },
        );
        let test: Vec<Incident> = split
            .test
            .iter()
            .take(18)
            .map(|&i| dataset.incidents()[i].clone())
            .collect();
        (copilot, test)
    }

    #[test]
    fn spec_translation_maps_plans_to_serving_configs() {
        let quiet = TenantSpec::from_plan(&TenantStormPlan::quiet(TenantId(1), 10));
        assert!(matches!(
            quiet.stream.arrivals,
            ArrivalModel::Poisson {
                mean_gap_secs: 1800
            }
        ));
        assert_eq!(quiet.faults.panic_per_mille, 0);
        assert_eq!(quiet.in_flight_cap, None);
        let storm = TenantSpec::from_plan(&TenantStormPlan::flapping_storm(TenantId(2), 11));
        assert!(matches!(storm.stream.arrivals, ArrivalModel::Bursty { .. }));
        assert!(storm.faults.panic_per_mille > 0);
        assert_eq!(storm.in_flight_cap, Some(2));
        assert!(storm.stream.reraise_prob > quiet.stream.reraise_prob);
    }

    #[test]
    fn derived_config_scales_admission_and_tags_the_tenant() {
        let base = EngineConfig::default();
        let spec = TenantSpec {
            tenant: TenantId(9),
            weight: 1,
            stream: StreamConfig::replay(),
            faults: WorkerFaultConfig::disabled(),
            in_flight_cap: None,
        };
        let cfg = MultiTenantEngine::tenant_engine_config(&base, &spec, 4, None);
        assert_eq!(cfg.tenant, TenantId(9));
        assert_eq!(
            cfg.admission.capacity_secs,
            base.admission.capacity_secs / 4
        );
        assert_eq!(cfg.workers, base.workers);
    }

    #[test]
    fn bad_plane_constructions_are_typed_errors() {
        let (copilot, _) = trained_copilot();
        let err = MultiTenantEngine::new(copilot.clone(), MultiTenantConfig::default(), vec![])
            .expect_err("empty specs");
        assert!(matches!(err, TenantError::EmptySpecs));
        assert!(err.to_string().contains("at least one tenant"));
        let spec = TenantSpec::from_plan(&TenantStormPlan::quiet(TenantId(4), 1));
        let err = MultiTenantEngine::new(
            copilot.clone(),
            MultiTenantConfig::default(),
            vec![spec, spec],
        )
        .expect_err("duplicate tenant");
        assert!(matches!(err, TenantError::DuplicateTenant(TenantId(4))));
        // Misaligned parts are an error, not a panic.
        let plane =
            MultiTenantEngine::new(copilot, MultiTenantConfig::default(), vec![spec]).unwrap();
        let err = plane.run(&[]).expect_err("no slices");
        assert!(matches!(
            err,
            TenantError::PartMismatch { specs: 1, parts: 0 }
        ));
    }

    #[test]
    fn merged_run_matches_solo_baselines_and_interleaves_the_log() {
        let (copilot, incidents) = trained_copilot();
        let plans = [
            TenantStormPlan::quiet(TenantId(1), 21),
            TenantStormPlan::flapping_storm(TenantId(2), 22),
        ];
        let parts = partition_tenants(&incidents, &plans);
        let config = MultiTenantConfig {
            base: EngineConfig {
                admission: AdmissionConfig {
                    capacity_secs: 14_400,
                    ..AdmissionConfig::default()
                },
                ..EngineConfig::default()
            },
            ..MultiTenantConfig::default()
        };
        let plane = MultiTenantEngine::from_plans(copilot.clone(), config.clone(), &plans).unwrap();
        let out = plane.run(&parts).expect("aligned parts");

        // Per-tenant logs are byte-identical to solo runs with the same
        // derived config.
        for (i, run) in out.tenants.iter().enumerate() {
            let solo_cfg = MultiTenantEngine::tenant_engine_config(
                &config.base,
                &plane.specs()[i],
                plane.total_weight(),
                None,
            );
            let solo = ServeEngine::new(copilot.clone(), solo_cfg)
                .run(&parts[i], &plane.specs()[i].stream);
            assert_eq!(run.outcome.log, solo.log, "tenant {i} diverged from solo");
        }

        // The merged log is exactly the tenant logs re-interleaved:
        // filtering by `ten=` recovers each tenant's own log.
        for run in &out.tenants {
            let tag = format!(" ten={} ", run.tenant.0);
            let filtered: String = out
                .log
                .lines()
                .filter(|l| l.contains(&tag))
                .map(|l| format!("{l}\n"))
                .collect();
            assert_eq!(filtered, run.outcome.log);
        }
        assert_eq!(
            out.log.lines().count(),
            out.tenants
                .iter()
                .map(|t| t.outcome.records.len())
                .sum::<usize>()
        );
        // The DRR schedule covers every executed event, split per slot.
        assert_eq!(out.drr.per_tenant.len(), 2);
        assert_eq!(
            out.drr.merged.completed,
            out.drr
                .per_tenant
                .iter()
                .map(|e| e.completed)
                .sum::<usize>()
        );
    }

    #[test]
    fn sharded_schedules_reproduce_the_sequential_composition() {
        let (copilot, incidents) = trained_copilot();
        let copilot = Arc::new(copilot);
        let plans = [
            TenantStormPlan::quiet(TenantId(1), 41),
            TenantStormPlan::flapping_storm(TenantId(2), 42),
            TenantStormPlan::quiet(TenantId(3), 43),
            TenantStormPlan::quiet(TenantId(4), 44),
            TenantStormPlan::quiet(TenantId(5), 45),
        ];
        let parts = partition_tenants(&incidents, &plans);
        let config = |shards: usize| MultiTenantConfig {
            base: EngineConfig {
                admission: AdmissionConfig::unbounded(),
                ..EngineConfig::default()
            },
            shards,
            tenant_workers: Some(1),
            ..MultiTenantConfig::default()
        };
        let sequential =
            MultiTenantEngine::from_plans_shared(Arc::clone(&copilot), config(1), &plans)
                .unwrap()
                .run(&parts)
                .expect("aligned parts");
        for shards in [2usize, 3, 8] {
            let sharded =
                MultiTenantEngine::from_plans_shared(Arc::clone(&copilot), config(shards), &plans)
                    .unwrap()
                    .run(&parts)
                    .expect("aligned parts");
            assert_eq!(
                sharded.log, sequential.log,
                "{shards} shards diverged from sequential"
            );
            for (a, b) in sharded.tenants.iter().zip(&sequential.tenants) {
                assert_eq!(a.outcome.log, b.outcome.log, "tenant {:?}", a.tenant);
            }
            assert_eq!(sharded.horizon_secs, sequential.horizon_secs);
        }
    }

    #[test]
    fn plane_metrics_export_respects_the_tenant_cardinality_guard() {
        let (copilot, incidents) = trained_copilot();
        let plans: Vec<TenantStormPlan> = (1..=4)
            .map(|t| TenantStormPlan::quiet(TenantId(t), 50 + t))
            .collect();
        let parts = partition_tenants(&incidents, &plans);
        let registry = MetricsRegistry::shared();
        let config = MultiTenantConfig {
            base: EngineConfig {
                admission: AdmissionConfig::unbounded(),
                metrics: Some(Arc::clone(&registry)),
                ..EngineConfig::default()
            },
            shards: 2,
            metrics_tenant_cap: 2,
            ..MultiTenantConfig::default()
        };
        let plane = MultiTenantEngine::from_plans(copilot, config, &plans).unwrap();
        let out = plane.run(&parts).expect("aligned parts");
        // Slot-order pre-admission: tenants 1 and 2 keep dedicated
        // series, 3 and 4 fold into the overflow series.
        let events = |tenant: &str| {
            registry.counter(
                "rca_tenant_events_total",
                &[("tenant", tenant), ("outcome", "predicted")],
            )
        };
        let solo_predicted = |slot: usize| {
            out.tenants[slot]
                .outcome
                .records
                .iter()
                .filter(|r| {
                    matches!(
                        r.outcome,
                        EventOutcome::Predicted {
                            degraded: false,
                            ..
                        }
                    )
                })
                .count() as u64
        };
        assert_eq!(events("1"), solo_predicted(0));
        assert_eq!(events("2"), solo_predicted(1));
        assert_eq!(
            events(OVERFLOW_LABEL_VALUE),
            solo_predicted(2) + solo_predicted(3),
            "tenants beyond the cap fold into one series"
        );
        let text = registry.render_prometheus();
        assert!(text.contains("rca_tenant_events_total"));
    }

    #[test]
    fn wal_round_trip_recovers_each_tenant_independently() {
        let (copilot, incidents) = trained_copilot();
        let plans = [
            TenantStormPlan::quiet(TenantId(1), 31),
            TenantStormPlan::quiet(TenantId(2), 32),
        ];
        let parts = partition_tenants(&incidents, &plans);
        let config = MultiTenantConfig {
            base: EngineConfig {
                admission: AdmissionConfig::unbounded(),
                ..EngineConfig::default()
            },
            ..MultiTenantConfig::default()
        };
        let plane = MultiTenantEngine::from_plans(copilot, config, &plans).unwrap();
        let mut wal = WriteAheadLog::new();
        let out = plane.run_with_wal(&parts, &mut wal).expect("clean journal");
        let recovered = wal.recover_tenants().expect("gapless per tenant");
        for run in &out.tenants {
            assert_eq!(
                recovered[&run.tenant].committed(),
                run.outcome.records.len(),
                "tenant journal must hold the full record prefix"
            );
        }
        // Resuming from the adopted journal replays to the same logs
        // without re-executing (all commits already journaled).
        let out2 = plane
            .run_with_wal(&parts, &mut wal.clone())
            .expect("clean journal");
        assert_eq!(out2.log, out.log);
    }
}
