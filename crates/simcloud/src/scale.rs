//! Corpus scaling: stretching the one-year, 653-incident campaign to
//! million-incident retrieval corpora.
//!
//! Retrieval cost only shows at production scale, but the paper's
//! dataset is one year of one service. This module tiles the catalog's
//! *measured structure* — the long-tail category distribution of
//! Figure 3 and the burst recurrence of Figure 2 — across a multi-year
//! horizon and a widened category universe, producing a lightweight
//! corpus (category + timestamp + embedding, no telemetry snapshots)
//! sized 100k–1M for retrieval benchmarks:
//!
//! - **Long tail**: each *category universe* replays the standard
//!   catalog's per-category occurrence counts (geometric tail fit), so
//!   the head-category share shrinks as the universe count grows — no
//!   single category dominates, exactly like aggregating many services.
//! - **Recurrence**: occurrences of one category cluster into bursts
//!   with truncated-exponential gaps (mean 2 days, cap 15), placed in
//!   activity windows within one year, so the within-20-days recurrence
//!   share stays in the regime the paper reports (93.8%).
//! - **Embeddings**: each category gets a deterministic archetype vector
//!   plus small per-incident jitter — recurring incidents are near
//!   neighbors, distinct categories are separated, which is the geometry
//!   the retrieval plane sees after FastText embedding.
//!
//! Everything is a pure function of [`ScaleConfig`]; two calls with the
//! same config produce byte-identical corpora (benchmark requirement).

use crate::catalog::Catalog;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rcacopilot_telemetry::time::SimTime;

/// Days in one simulated year of scheduling.
const YEAR_DAYS: f64 = 364.0;
/// Mean within-burst recurrence gap, days (paper Figure 2 regime).
const BURST_GAP_MEAN_DAYS: f64 = 2.0;
/// Cap on within-burst gaps, days (safely under the 20-day threshold).
const BURST_GAP_CAP_DAYS: f64 = 15.0;
/// Length of one category activity window, days.
const WINDOW_LEN_DAYS: f64 = 14.0;

/// Parameters of a scaled corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleConfig {
    /// Master seed; the corpus is a pure function of this config.
    pub seed: u64,
    /// Horizon in simulated years (≥ 1). More years = longer history
    /// for temporal decay to discount.
    pub years: usize,
    /// Exact number of incidents to produce.
    pub incidents: usize,
    /// Embedding dimensionality.
    pub dim: usize,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            seed: 42,
            years: 3,
            incidents: 100_000,
            dim: 16,
        }
    }
}

/// One incident of a scaled corpus: just what the retrieval plane needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledIncident {
    /// Category label, e.g. `MemoryLeakStoreWorker-u17`.
    pub category: String,
    /// Occurrence time.
    pub at: SimTime,
    /// Synthetic embedding (category archetype + jitter).
    pub embedding: Vec<f32>,
}

/// Structure report of a scaled corpus (the Figure 2/3 checks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleStats {
    /// Total incidents.
    pub incidents: usize,
    /// Distinct categories.
    pub categories: usize,
    /// Share of incidents held by the single largest category.
    pub head_share: f64,
    /// Share of recurrence gaps (same category, consecutive
    /// occurrences) within 20 days.
    pub recurrence_within_20d: f64,
}

/// SplitMix64: cheap, high-quality seed derivation per (universe,
/// category), so corpora are stable under reordering of the generation
/// loops.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Samples a truncated exponential within-burst gap in days.
fn burst_gap(rng: &mut SmallRng) -> f64 {
    let u: f64 = rng.gen_range(1e-6..1.0);
    (-BURST_GAP_MEAN_DAYS * u.ln()).clamp(0.05, BURST_GAP_CAP_DAYS)
}

/// Schedules `count` occurrences of one category within one year
/// (fractional days in `[0, YEAR_DAYS]`): bursts with short internal
/// gaps, placed in well-separated activity windows.
fn schedule_in_year(rng: &mut SmallRng, count: u32) -> Vec<f64> {
    let count = count as usize;
    let bursts = (1 + count / 7).clamp(1, 6);
    let mut starts: Vec<f64> = (0..bursts)
        .map(|_| rng.gen_range(0.0..YEAR_DAYS - WINDOW_LEN_DAYS))
        .collect();
    starts.sort_by(|a, b| a.total_cmp(b));
    // Keep windows > 25 days apart so cross-burst recurrences register
    // as the long-gap minority (Figure 2's tail).
    for i in 1..starts.len() {
        if starts[i] - starts[i - 1] < 25.0 {
            starts[i] = (starts[i - 1] + rng.gen_range(25.0..55.0)).min(YEAR_DAYS_GUARD);
        }
    }
    let mut per_burst: Vec<usize> = vec![count / bursts; bursts];
    for slot in per_burst.iter_mut().take(count % bursts) {
        *slot += 1;
    }
    let mut times = Vec::with_capacity(count);
    for (b, &n) in per_burst.iter().enumerate() {
        let mut t = starts[b] + rng.gen_range(0.0..WINDOW_LEN_DAYS / 2.0);
        for _ in 0..n {
            times.push(t.min(YEAR_DAYS));
            t += burst_gap(rng);
        }
    }
    times
}

/// Last day a window may start (windows must fit in the year).
const YEAR_DAYS_GUARD: f64 = YEAR_DAYS - WINDOW_LEN_DAYS;

/// Deterministic archetype embedding for a category: unit-scale values
/// derived from the category seed, spread over `dim` dimensions.
fn archetype(seed: u64, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|d| {
            let h = splitmix64(seed ^ (d as u64).wrapping_mul(0x9e37_79b9));
            // Map to [-2, 2): wide enough to separate categories.
            ((h >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0) as f32
        })
        .collect()
}

/// Generates a scaled corpus: exactly `config.incidents` incidents over
/// `config.years` years, sorted by `(time, category)`.
///
/// The category universe is sized so each universe × year contributes
/// the catalog's standard 653 incidents; the final stream is truncated
/// to the requested size after sorting, which trims uniformly across
/// categories (every category's occurrences span the whole horizon).
pub fn scaled_corpus(config: &ScaleConfig) -> Vec<ScaledIncident> {
    let catalog = Catalog::standard();
    let years = config.years.max(1);
    let per_universe: usize = catalog.total_incidents() as usize * years;
    let universes = config.incidents.div_ceil(per_universe.max(1)).max(1);
    let mut out: Vec<ScaledIncident> = Vec::with_capacity(universes * per_universe);
    for u in 0..universes {
        for spec in catalog.categories() {
            let cat_seed = splitmix64(
                config
                    .seed
                    .wrapping_add((u as u64).wrapping_mul(0x5851_f42d_4c95_7f2d))
                    ^ splitmix64(fxhash(&spec.name)),
            );
            let category = if universes == 1 {
                spec.name.clone()
            } else {
                format!("{}-u{u}", spec.name)
            };
            let arch = archetype(splitmix64(cat_seed ^ 0xa5a5_a5a5), config.dim);
            let mut rng = SmallRng::seed_from_u64(cat_seed);
            for year in 0..years {
                for day in schedule_in_year(&mut rng, spec.target_count) {
                    let at_days = year as f64 * YEAR_DAYS + day;
                    let jitter: Vec<f32> = arch
                        .iter()
                        .map(|&a| a + (rng.gen_range(-0.05f64..0.05)) as f32)
                        .collect();
                    out.push(ScaledIncident {
                        category: category.clone(),
                        at: SimTime::from_secs((at_days * 86_400.0) as u64),
                        embedding: jitter,
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| a.at.cmp(&b.at).then_with(|| a.category.cmp(&b.category)));
    out.truncate(config.incidents);
    out
}

/// FNV-1a over the category name: stable across runs and platforms.
fn fxhash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Measures the structure of a corpus (must already be time-sorted, as
/// [`scaled_corpus`] returns it).
pub fn corpus_stats(corpus: &[ScaledIncident]) -> ScaleStats {
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    let mut last_seen: BTreeMap<&str, SimTime> = BTreeMap::new();
    let (mut gaps, mut within) = (0usize, 0usize);
    for inc in corpus {
        *counts.entry(inc.category.as_str()).or_insert(0) += 1;
        if let Some(&prev) = last_seen.get(inc.category.as_str()) {
            gaps += 1;
            if inc.at.abs_diff(prev).as_days_f64() <= 20.0 {
                within += 1;
            }
        }
        last_seen.insert(inc.category.as_str(), inc.at);
    }
    let head = counts.values().copied().max().unwrap_or(0);
    ScaleStats {
        incidents: corpus.len(),
        categories: counts.len(),
        head_share: if corpus.is_empty() {
            0.0
        } else {
            head as f64 / corpus.len() as f64
        },
        recurrence_within_20d: if gaps == 0 {
            1.0
        } else {
            within as f64 / gaps as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_corpus_is_deterministic() {
        let cfg = ScaleConfig {
            incidents: 3_000,
            years: 2,
            ..ScaleConfig::default()
        };
        assert_eq!(scaled_corpus(&cfg), scaled_corpus(&cfg));
    }

    #[test]
    fn corpus_has_exact_size_and_sorted_times() {
        let cfg = ScaleConfig {
            incidents: 5_000,
            years: 2,
            ..ScaleConfig::default()
        };
        let corpus = scaled_corpus(&cfg);
        assert_eq!(corpus.len(), 5_000);
        for w in corpus.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert!(corpus.iter().all(|i| i.embedding.len() == cfg.dim));
    }

    #[test]
    fn long_tail_and_recurrence_structure_survive_scaling() {
        let cfg = ScaleConfig {
            incidents: 20_000,
            years: 3,
            ..ScaleConfig::default()
        };
        let stats = corpus_stats(&scaled_corpus(&cfg));
        assert_eq!(stats.incidents, 20_000);
        // Many universes: the head category cannot dominate.
        assert!(
            stats.head_share < 0.05,
            "head share {} too large",
            stats.head_share
        );
        // Plenty of distinct categories (long tail widened, not squashed).
        assert!(stats.categories > 500, "{} categories", stats.categories);
        // Burst recurrence survives: most gaps stay under 20 days even
        // across the multi-year horizon (the paper reports 93.8% within
        // one year; cross-year gaps dilute it but it must stay dominant).
        assert!(
            stats.recurrence_within_20d > 0.75,
            "recurrence-within-20d {}",
            stats.recurrence_within_20d
        );
    }

    #[test]
    fn same_category_embeddings_cluster_and_categories_separate() {
        let cfg = ScaleConfig {
            incidents: 2_000,
            years: 1,
            ..ScaleConfig::default()
        };
        let corpus = scaled_corpus(&cfg);
        // Two incidents of one category sit within jitter distance; two
        // of different categories are (almost always) far apart.
        let mut by_cat: std::collections::BTreeMap<&str, Vec<&ScaledIncident>> = Default::default();
        for inc in &corpus {
            by_cat.entry(inc.category.as_str()).or_default().push(inc);
        }
        let d2 =
            |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };
        let mut intra: f32 = 0.0;
        let mut pairs = 0u32;
        for list in by_cat.values().filter(|l| l.len() >= 2) {
            intra = intra.max(d2(&list[0].embedding, &list[1].embedding));
            pairs += 1;
        }
        assert!(pairs > 50, "expected many recurring categories");
        // Jitter is ±0.05 per dim → intra-category d² ≤ dim × 0.01.
        assert!(intra <= cfg.dim as f32 * 0.01 + 1e-6, "intra d² {intra}");
    }
}
