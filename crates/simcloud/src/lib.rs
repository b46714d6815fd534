//! A simulated email-transport cloud service with fault injection.
//!
//! The paper evaluates RCACopilot on one year of incidents from Microsoft's
//! proprietary *Transport* service. This crate is the substitution: a
//! synthetic transport service whose monitors raise the same alert types,
//! whose telemetry has the same shapes (probe logs, socket tables, queue
//! statistics, thread stacks, certificates, tenant settings, traces), and
//! whose fault-injection campaign reproduces the dataset's measurable
//! statistics — the long-tail category distribution of Figure 3 (24.96%
//! new-category incidents), the recurrence bursts of Figure 2 (93.8% of
//! recurrence gaps within 20 days), and the severity/scope mix of Table 1.
//!
//! Modules:
//!
//! - [`topology`]: forests, machines, processes of the simulated service.
//! - [`catalog`]: the root-cause category catalog — ~40 fault families
//!   expanded by variants into the full category set.
//! - [`signature`]: the declarative telemetry signature each category
//!   plants into an incident's snapshot, plus the planting engine.
//! - [`noise`]: background telemetry (healthy logs/metrics/traces and red
//!   herrings) mixed into every snapshot.
//! - [`incident`]: the [`incident::Incident`] record.
//! - [`generator`]: the year-long fault-injection campaign producing an
//!   [`dataset::IncidentDataset`].
//! - [`dataset`]: dataset container, train/test split, and the statistics
//!   behind Figures 2 and 3.
//! - [`scale`]: corpus scaling — tiling the catalog's long-tail and
//!   recurrence structure across multi-year, 100k–1M-incident corpora
//!   for retrieval benchmarks.
//! - [`teams`]: the simulated 30-team deployment behind Table 4.
//! - [`tenancy`]: per-tenant serving workload plans — stream shape,
//!   fault climate, fair-share weight — and the deterministic
//!   round-robin partition of a dataset across tenants.
//! - [`faults`]: seeded telemetry-plane fault plans ([`faults::FaultPlan`])
//!   driving the resilient collection executor's robustness benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod dataset;
pub mod faults;
pub mod generator;
pub mod incident;
pub mod noise;
pub mod scale;
pub mod signature;
pub mod teams;
pub mod tenancy;
pub mod topology;

pub use catalog::{Catalog, CategorySpec, Family};
pub use dataset::{DatasetStats, IncidentDataset, TrainTestSplit};
pub use faults::{FaultMix, FaultPlan, Outage, StorageFaultPlan};
pub use generator::{generate_dataset, CampaignConfig};
pub use incident::Incident;
pub use scale::{corpus_stats, scaled_corpus, ScaleConfig, ScaleStats, ScaledIncident};
pub use teams::{simulate_teams, TeamReport};
pub use tenancy::{
    partition_tenants, replicate_partition, zipf_fleet, zipf_volumes, TenantFleetConfig,
    TenantStormPlan,
};
pub use topology::Topology;
