//! Historical-incident retrieval with temporal-decay similarity.
//!
//! Paper §4.2.2:
//!
//! ```text
//! Distance(a,b)   = ‖a − b‖₂
//! Similarity(a,b) = 1/(1 + Distance(a,b)) · e^(−α·|T(a) − T(b)|)
//! ```
//!
//! with the top-K neighbors drawn from *distinct* categories so the
//! demonstrations stay diverse. `α` is measured per day; the paper's best
//! values are `K = 5`, `α = 0.3`.

use rcacopilot_embed::IndexStats;
use rcacopilot_telemetry::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering as CmpOrdering;
use std::collections::HashMap;
use std::sync::Arc;

/// Which index answers retrieval. Every view is exact, so there is one
/// backend; the type stays so that `RetrievalConfig` literals keep their
/// shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum RetrievalBackend {
    /// Exact scoring of every candidate row.
    #[default]
    Exact,
}

/// Retrieval hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetrievalConfig {
    /// Demonstrations per prompt.
    pub k: usize,
    /// Temporal decay rate per day.
    pub alpha: f64,
    /// Retrieval backend; [`RetrievalBackend::Exact`] is the only one.
    pub backend: RetrievalBackend,
}

impl Default for RetrievalConfig {
    fn default() -> Self {
        RetrievalConfig {
            k: 5,
            alpha: 0.3,
            backend: RetrievalBackend::Exact,
        }
    }
}

/// One indexed historical incident.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoricalEntry {
    /// Caller-assigned id (index into the training set).
    pub id: usize,
    /// Root-cause category label.
    pub category: String,
    /// Summarized diagnostic information (prompt demonstration text).
    pub summary: String,
    /// When the incident occurred.
    pub at: SimTime,
    /// Embedding of the incident's (raw) diagnostic information.
    pub embedding: Vec<f32>,
}

/// A retrieved neighbor with its similarity.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor<'a> {
    /// The matched historical entry.
    pub entry: &'a HistoricalEntry,
    /// Similarity per the paper's formula.
    pub similarity: f64,
}

/// The index of historical incidents.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HistoricalIndex {
    entries: Vec<HistoricalEntry>,
}

/// The paper's similarity formula.
pub fn similarity(distance: f64, delta_days: f64, alpha: f64) -> f64 {
    (1.0 / (1.0 + distance)) * (-alpha * delta_days.abs()).exp()
}

/// 64-bit FNV-1a hash of a byte string — the stable hash behind the
/// serving plane's seeded cost, fault and storage models.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn euclidean(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = (*x - *y) as f64;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

impl HistoricalIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        HistoricalIndex::default()
    }

    /// Adds a historical incident.
    pub fn add(&mut self, entry: HistoricalEntry) {
        self.entries.push(entry);
    }

    /// Number of indexed incidents.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries.
    pub fn entries(&self) -> &[HistoricalEntry] {
        &self.entries
    }

    /// Retrieves the top-`k` most similar incidents **from distinct
    /// categories** (paper §4.2.2: "we select the top K incidents from
    /// different categories as demonstrations").
    pub fn top_k_diverse(
        &self,
        query_embedding: &[f32],
        query_time: SimTime,
        config: &RetrievalConfig,
    ) -> Vec<Neighbor<'_>> {
        let scored = self.entries.iter().enumerate().map(|(i, e)| {
            let dist = euclidean(query_embedding, &e.embedding);
            let dt = e.at.abs_diff(query_time).as_days_f64();
            (i, e, similarity(dist, dt, config.alpha))
        });
        diverse_select(scored.collect(), config.k)
    }
}

/// The greedy distinct-category selection of the linear scan:
/// stable-sort all `(position, entry, similarity)` candidates by
/// similarity (descending) and keep the first entry of each new category
/// until `k` categories are chosen (none for `k = 0`).
fn diverse_select(mut scored: Vec<(usize, &HistoricalEntry, f64)>, k: usize) -> Vec<Neighbor<'_>> {
    // total_cmp instead of partial_cmp: a NaN similarity (possible
    // from a degenerate zero embedding) must not panic the pipeline;
    // it gets a deterministic position instead.
    scored.sort_by(|a, b| b.2.total_cmp(&a.2));
    let mut seen_categories = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for (_, entry, sim) in scored {
        if out.len() == k {
            break;
        }
        if seen_categories.insert(entry.category.as_str()) {
            out.push(Neighbor {
                entry,
                similarity: sim,
            });
        }
    }
    out
}

/// Read access to a historical-incident store for the retrieval stage.
///
/// The batch pipeline queries its frozen [`HistoricalIndex`]; the online
/// serving engine queries [`HistorySnapshot`]s of a growing
/// [`OnlineHistoricalIndex`]. Both return identical answers on the same
/// visible entries (asserted by property tests), so a prediction is a
/// pure function of the view contents.
pub trait HistoryView {
    /// Top-`k` distinct-category neighbors of `query_embedding` at
    /// `query_time` — the contract of [`HistoricalIndex::top_k_diverse`].
    fn top_k_diverse(
        &self,
        query_embedding: &[f32],
        query_time: SimTime,
        config: &RetrievalConfig,
    ) -> Vec<Neighbor<'_>>;

    /// Number of entries in the view (for online views: published,
    /// before any per-query visibility filtering).
    fn len(&self) -> usize;

    /// True if the view holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl HistoryView for HistoricalIndex {
    fn top_k_diverse(
        &self,
        query_embedding: &[f32],
        query_time: SimTime,
        config: &RetrievalConfig,
    ) -> Vec<Neighbor<'_>> {
        HistoricalIndex::top_k_diverse(self, query_embedding, query_time, config)
    }

    fn len(&self) -> usize {
        HistoricalIndex::len(self)
    }
}

/// Rows per chunk of the online store. Chunking keeps a snapshot at
/// `O(n / ENTRY_CHUNK)` `Arc` clones and an append at one `O(ENTRY_CHUNK)`
/// copy worst case, and gives every chunk a zone map to prune on.
const ENTRY_CHUNK: usize = 256;

/// The `max_cell` value every checkpoint records. The store has no cells;
/// the field stays so checkpoint records keep their format.
const CHECKPOINT_MAX_CELL: usize = 64;

/// Up to `ENTRY_CHUNK` rows of the online store, one column per field,
/// plus the chunk's zone map: the earliest and latest `at` it holds.
#[derive(Debug, Clone)]
struct Chunk {
    /// Row-major embeddings, `dim` floats per row.
    embeddings: Vec<f32>,
    /// Store-local category ids.
    category: Vec<u32>,
    at: Vec<SimTime>,
    /// The instant each row became retrievable: its resolution time for
    /// streamed incidents, [`SimTime::EPOCH`] for warm-start history.
    visible_from: Vec<SimTime>,
    /// The stored entries, handed out by reference as neighbors.
    entries: Vec<HistoricalEntry>,
    min_at: SimTime,
    max_at: SimTime,
}

impl Chunk {
    fn with_capacity(rows: usize, dim: usize) -> Self {
        Chunk {
            embeddings: Vec::with_capacity(rows * dim),
            category: Vec::with_capacity(rows),
            at: Vec::with_capacity(rows),
            visible_from: Vec::with_capacity(rows),
            entries: Vec::with_capacity(rows),
            min_at: SimTime::from_secs(u64::MAX),
            max_at: SimTime::EPOCH,
        }
    }

    fn push(&mut self, entry: HistoricalEntry, category: u32, visible_from: SimTime) {
        self.embeddings.extend_from_slice(&entry.embedding);
        self.category.push(category);
        self.at.push(entry.at);
        self.visible_from.push(visible_from);
        self.min_at = self.min_at.min(entry.at);
        self.max_at = self.max_at.max(entry.at);
        self.entries.push(entry);
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Smallest `|at − t|` any row of the chunk can have.
    fn gap(&self, t: SimTime) -> SimDuration {
        if t < self.min_at {
            self.min_at.abs_diff(t)
        } else if t > self.max_at {
            t.abs_diff(self.max_at)
        } else {
            SimDuration::ZERO
        }
    }

    /// Resident bytes of the columns (the entries are not counted).
    fn column_bytes(&self) -> usize {
        self.embeddings.capacity() * std::mem::size_of::<f32>()
            + self.category.capacity() * std::mem::size_of::<u32>()
            + (self.at.capacity() + self.visible_from.capacity()) * std::mem::size_of::<SimTime>()
            + std::mem::size_of::<Chunk>()
    }
}

/// An append-only list of `Arc`'d chunks; cloning it is a snapshot.
#[derive(Debug, Clone, Default)]
struct Rows {
    chunks: Vec<Arc<Chunk>>,
    /// Distinct categories when this list was taken (ids are `0..categories`).
    categories: usize,
    len: usize,
    /// Floats per embedding.
    dim: usize,
    /// Some stored embedding has a NaN or infinite component.
    non_finite: bool,
}

/// The temporal-decay factor `e^(−α·days(Δt))` — the one path from a
/// time gap to a factor, shared by the per-row similarity and the chunk
/// bound so rounding can never put a bound under a row.
fn decay(dt: SimDuration, alpha: f64) -> f64 {
    (-alpha * dt.as_days_f64()).exp()
}

/// An incrementally growing historical-incident store with cheap
/// snapshotted read views: one exact, append-only columnar scan.
///
/// The batch pipeline builds its index once; an on-call deployment
/// cannot, because the paper's recurrence structure (93.8% of
/// recurrences within 20 days, Figure 2) means the most valuable
/// retrieval candidate for an incoming incident is usually one resolved
/// *hours* ago. This store accepts [`insert`]s as incidents resolve and
/// [`publish`]es them; readers take [`snapshot`]s (the published chunk
/// list, `Arc` clones) and query them lock-free.
///
/// A row's similarity `1/(1+d) · e^(−α|Δt|)` is at most `e^(−α|Δt|)`, so
/// the time axis is the index: each chunk's `[min_at, max_at]` zone map
/// bounds every row in it, chunks are visited in ascending time gap, and
/// the scan stops at the first chunk whose bound is strictly below the
/// current `k`-th best per-category similarity. The answer equals the
/// linear scan's ([`HistoricalIndex::top_k_diverse`]) bit for bit.
///
/// [`insert`]: OnlineHistoricalIndex::insert
/// [`publish`]: OnlineHistoricalIndex::publish
/// [`snapshot`]: OnlineHistoricalIndex::snapshot
#[derive(Debug)]
pub struct OnlineHistoricalIndex {
    chunk_rows: usize,
    category_ids: HashMap<String, u32>,
    rows: Rows,
    published: Rows,
    epoch: u64,
}

impl Default for OnlineHistoricalIndex {
    fn default() -> Self {
        OnlineHistoricalIndex::with_chunk_rows(ENTRY_CHUNK)
    }
}

impl OnlineHistoricalIndex {
    /// Creates an empty store.
    pub fn new() -> Self {
        OnlineHistoricalIndex::default()
    }

    fn with_chunk_rows(chunk_rows: usize) -> Self {
        OnlineHistoricalIndex {
            chunk_rows: chunk_rows.max(1),
            category_ids: HashMap::new(),
            rows: Rows::default(),
            published: Rows::default(),
            epoch: 0,
        }
    }

    /// Warm-starts from existing history (e.g. a trained pipeline's
    /// index); every seeded entry is visible to all queries, and the
    /// first epoch is published immediately. `_max_cell` is ignored;
    /// kept for the benchmark crate.
    pub fn warm(entries: &[HistoricalEntry], _max_cell: usize) -> Self {
        let mut idx = OnlineHistoricalIndex::new();
        for e in entries {
            idx.insert(e.clone(), SimTime::EPOCH);
        }
        idx.publish();
        idx
    }

    /// Footprint report of the stored columns.
    pub fn index_stats(&self) -> IndexStats {
        IndexStats {
            vectors: self.rows.len,
            dim: self.rows.dim,
            chunks: self.rows.chunks.len(),
            bytes: self.rows.chunks.iter().map(|c| c.column_bytes()).sum(),
        }
    }

    /// Appends a resolved incident. It reaches readers at the next
    /// [`publish`](OnlineHistoricalIndex::publish), and from then on
    /// only for queries at or after `visible_from` (its resolution
    /// instant; pass [`SimTime::EPOCH`] for always-visible history).
    /// Insertion order is the retrieval tie-break.
    ///
    /// # Panics
    ///
    /// If the embedding's dimension differs from the first insert's.
    pub fn insert(&mut self, entry: HistoricalEntry, visible_from: SimTime) {
        if self.rows.len == 0 {
            self.rows.dim = entry.embedding.len();
        }
        let dim = self.rows.dim;
        assert_eq!(
            entry.embedding.len(),
            dim,
            "every embedding in one store has the same dimension"
        );
        let category = match self.category_ids.get(&entry.category) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.category_ids.len())
                    .expect("fewer than 2^32 categories in one store");
                self.category_ids.insert(entry.category.clone(), id);
                id
            }
        };
        if self.rows.len.is_multiple_of(self.chunk_rows) {
            self.rows
                .chunks
                .push(Arc::new(Chunk::with_capacity(self.chunk_rows, dim)));
        }
        self.rows.non_finite |= entry.embedding.iter().any(|x| !x.is_finite());
        let last = self.rows.chunks.last_mut().expect("chunk just ensured");
        Arc::make_mut(last).push(entry, category, visible_from);
        self.rows.len += 1;
        self.rows.categories = self.category_ids.len();
    }

    /// Number of the currently published epoch (0 = nothing published).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Raises the epoch counter to `epoch` if it is behind (journal
    /// continuity on recovery); never lowers it.
    pub fn resume_epoch(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }

    /// Publishes every row inserted so far and returns the new epoch
    /// number (a monotone counter).
    pub fn publish(&mut self) -> u64 {
        self.published = self.rows.clone();
        self.epoch += 1;
        self.epoch
    }

    /// Entries inserted so far (published or not).
    pub fn len(&self) -> usize {
        self.rows.len
    }

    /// True if nothing was inserted.
    pub fn is_empty(&self) -> bool {
        self.rows.len == 0
    }

    /// An immutable view of the latest published rows. Costs
    /// `O(n / 256)` `Arc` clones; safe to hand to another thread.
    pub fn snapshot(&self) -> HistorySnapshot {
        HistorySnapshot {
            rows: self.published.clone(),
        }
    }

    /// Serializes the store: every entry in insertion order, plus the
    /// published epoch.
    pub fn checkpoint(&self) -> HistoryCheckpoint {
        let entries = self
            .rows
            .chunks
            .iter()
            .flat_map(|c| {
                c.entries
                    .iter()
                    .zip(&c.visible_from)
                    .map(|(entry, &visible_from)| CheckpointEntry {
                        entry: entry.clone(),
                        visible_from,
                    })
            })
            .collect();
        HistoryCheckpoint {
            max_cell: CHECKPOINT_MAX_CELL,
            shard_epochs: vec![self.epoch],
            entries,
        }
    }

    /// Rebuilds a store from a checkpoint: the entries are re-inserted
    /// in their stored order and published once, and the epoch counter
    /// resumes at the largest recorded epoch. Epoch numbering is journal
    /// bookkeeping and never affects query answers.
    pub fn restore(checkpoint: &HistoryCheckpoint) -> Self {
        let mut idx = OnlineHistoricalIndex::new();
        for ce in &checkpoint.entries {
            idx.insert(ce.entry.clone(), ce.visible_from);
        }
        idx.publish();
        idx.resume_epoch(checkpoint.shard_epochs.iter().copied().max().unwrap_or(0));
        idx
    }
}

/// A serializable snapshot of an [`OnlineHistoricalIndex`]'s full state,
/// as journaled in checkpoint records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryCheckpoint {
    /// Always 64 and ignored on restore: the store has no cells, and the
    /// field keeps checkpoint records in their journaled format.
    pub max_cell: usize,
    /// Published epoch numbers: one for a checkpoint written by one
    /// store; journals written by category-sharded stores hold one per
    /// shard. Restore resumes at the largest.
    pub shard_epochs: Vec<u64>,
    /// Every inserted entry, in insertion order.
    pub entries: Vec<CheckpointEntry>,
}

/// One [`OnlineHistoricalIndex`] entry as journaled by the serving
/// plane's write-ahead log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointEntry {
    /// The stored historical entry.
    pub entry: HistoricalEntry,
    /// The virtual instant it became retrievable.
    pub visible_from: SimTime,
}

/// A sealed read view of one [`OnlineHistoricalIndex`] epoch.
#[derive(Debug, Clone)]
pub struct HistorySnapshot {
    rows: Rows,
}

/// One category's best row: its similarity and position in the
/// snapshot.
#[derive(Debug, Clone, Copy)]
struct Rep {
    similarity: f64,
    chunk: usize,
    row: usize,
}

/// The retrieval ranking: higher similarity first, earlier insertion
/// (chunk, then row) breaks ties — the linear scan's stable-sort order.
fn rank(a: &Rep, b: &Rep) -> CmpOrdering {
    b.similarity
        .total_cmp(&a.similarity)
        .then((a.chunk, a.row).cmp(&(b.chunk, b.row)))
}

/// The `k` best per-category similarities seen so far, whose minimum is
/// the scan's pruning threshold. A category's best only ever rises, so it
/// either moves up in place or enters by evicting the minimum.
struct KthBest {
    k: usize,
    top: Vec<(f64, u32)>,
    kth: f64,
}

impl KthBest {
    fn new(k: usize) -> Self {
        KthBest {
            k,
            top: Vec::new(),
            kth: f64::NEG_INFINITY,
        }
    }

    /// Records that `category`'s best similarity rose to `sim`.
    fn raise(&mut self, category: u32, sim: f64) {
        if let Some(slot) = self.top.iter_mut().find(|t| t.1 == category) {
            slot.0 = sim;
        } else if self.top.len() < self.k {
            self.top.push((sim, category));
        } else {
            let min = (0..self.top.len())
                .min_by(|&a, &b| self.top[a].0.total_cmp(&self.top[b].0))
                .expect("k > 0");
            if sim <= self.top[min].0 {
                return;
            }
            self.top[min] = (sim, category);
        }
        if self.top.len() == self.k {
            self.kth = self.top.iter().map(|t| t.0).fold(f64::INFINITY, f64::min);
        }
    }
}

impl HistorySnapshot {
    /// Entries in this epoch (before per-query visibility filtering).
    pub fn len(&self) -> usize {
        self.rows.len
    }

    /// True if the epoch holds no entries.
    pub fn is_empty(&self) -> bool {
        self.rows.len == 0
    }

    /// Entries visible to a query at `at`.
    pub fn visible_len(&self, at: SimTime) -> usize {
        self.rows
            .chunks
            .iter()
            .map(|c| c.visible_from.iter().filter(|&&v| v <= at).count())
            .sum()
    }

    fn entry(&self, rep: &Rep) -> &HistoricalEntry {
        &self.rows.chunks[rep.chunk].entries[rep.row]
    }

    /// Exact retrieval of this snapshot's best rows of distinct
    /// categories, at most `config.k` of them, in [`rank`] order.
    ///
    /// Chunks are visited in ascending zone-map gap to `query_time`. No
    /// row of a chunk with gap `g` scores above `decay(g)`, and gaps only
    /// grow along the visit, so once that bound is strictly below the
    /// `k`-th best per-category similarity no later row can enter the
    /// top `k`; a row whose own decay factor is below it is skipped
    /// without computing its distance. Both thresholds are strict: a tie
    /// could still win on insertion order. The bounds assume `α ≥ 0` and
    /// finite embeddings; otherwise every visible row is scored.
    fn diverse_reps(
        &self,
        query_embedding: &[f32],
        query_time: SimTime,
        config: &RetrievalConfig,
    ) -> Vec<Rep> {
        let (k, alpha) = (config.k, config.alpha);
        if k == 0 || self.rows.len == 0 {
            return Vec::new();
        }
        let prune = alpha.is_finite()
            && alpha >= 0.0
            && !self.rows.non_finite
            && query_embedding.iter().all(|x| x.is_finite());
        let mut order: Vec<(SimDuration, usize)> = self
            .rows
            .chunks
            .iter()
            .enumerate()
            .map(|(c, chunk)| (chunk.gap(query_time), c))
            .collect();
        order.sort_unstable();
        let dim = self.rows.dim;
        let mut best: Vec<Option<Rep>> = vec![None; self.rows.categories];
        let mut kth = KthBest::new(k);
        for (gap, c) in order {
            if prune && decay(gap, alpha) < kth.kth {
                break;
            }
            let chunk = &self.rows.chunks[c];
            for r in 0..chunk.len() {
                if chunk.visible_from[r] > query_time {
                    continue;
                }
                let factor = decay(chunk.at[r].abs_diff(query_time), alpha);
                if prune && factor < kth.kth {
                    continue;
                }
                let dist = euclidean(query_embedding, &chunk.embeddings[r * dim..(r + 1) * dim]);
                // The same expression as `similarity`, so the bits agree.
                let cand = Rep {
                    similarity: (1.0 / (1.0 + dist)) * factor,
                    chunk: c,
                    row: r,
                };
                let cat = chunk.category[r];
                let slot = &mut best[cat as usize];
                if slot.is_none_or(|cur| rank(&cand, &cur) == CmpOrdering::Less) {
                    *slot = Some(cand);
                    kth.raise(cat, cand.similarity);
                }
            }
        }
        let mut reps: Vec<Rep> = best
            .into_iter()
            .flatten()
            .filter(|rep| !prune || rep.similarity >= kth.kth)
            .collect();
        reps.sort_by(rank);
        reps.truncate(k);
        reps
    }
}

impl HistoryView for HistorySnapshot {
    /// Zone-map-pruned exact retrieval (see `HistorySnapshot::diverse_reps`,
    /// private): the answer is byte-identical to
    /// [`HistoricalIndex::top_k_diverse`] over the same visible entries.
    fn top_k_diverse(
        &self,
        query_embedding: &[f32],
        query_time: SimTime,
        config: &RetrievalConfig,
    ) -> Vec<Neighbor<'_>> {
        self.diverse_reps(query_embedding, query_time, config)
            .iter()
            .map(|rep| Neighbor {
                entry: self.entry(rep),
                similarity: rep.similarity,
            })
            .collect()
    }

    fn len(&self) -> usize {
        self.rows.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: usize, cat: &str, day: u64, emb: Vec<f32>) -> HistoricalEntry {
        HistoricalEntry {
            id,
            category: cat.to_string(),
            summary: format!("summary {id}"),
            at: SimTime::from_days(day),
            embedding: emb,
        }
    }

    #[test]
    fn similarity_formula_matches_paper() {
        // Zero distance, zero time gap: similarity 1.
        assert!((similarity(0.0, 0.0, 0.3) - 1.0).abs() < 1e-12);
        // Distance 1 halves the spatial part.
        assert!((similarity(1.0, 0.0, 0.3) - 0.5).abs() < 1e-12);
        // Ten days at alpha 0.3 decays by e^-3.
        let s = similarity(0.0, 10.0, 0.3);
        assert!((s - (-3.0f64).exp()).abs() < 1e-12);
        // Alpha 0 ignores time.
        assert_eq!(similarity(2.0, 100.0, 0.0), 1.0 / 3.0);
    }

    #[test]
    fn temporal_decay_prefers_recent_incidents() {
        let mut idx = HistoricalIndex::new();
        // Same embedding, different times; category must differ to coexist.
        idx.add(entry(0, "Old", 10, vec![0.0, 0.0]));
        idx.add(entry(1, "New", 99, vec![0.0, 0.0]));
        let cfg = RetrievalConfig {
            k: 2,
            alpha: 0.3,
            ..RetrievalConfig::default()
        };
        let hits = idx.top_k_diverse(&[0.0, 0.0], SimTime::from_days(100), &cfg);
        assert_eq!(hits[0].entry.category, "New");
        assert!(hits[0].similarity > hits[1].similarity);
        // With alpha = 0 the tie is broken by insertion order, not time.
        let cfg0 = RetrievalConfig {
            k: 2,
            alpha: 0.0,
            ..RetrievalConfig::default()
        };
        let hits0 = idx.top_k_diverse(&[0.0, 0.0], SimTime::from_days(100), &cfg0);
        assert!((hits0[0].similarity - hits0[1].similarity).abs() < 1e-12);
    }

    #[test]
    fn diversity_takes_one_per_category() {
        let mut idx = HistoricalIndex::new();
        idx.add(entry(0, "A", 50, vec![0.0]));
        idx.add(entry(1, "A", 50, vec![0.1]));
        idx.add(entry(2, "B", 50, vec![5.0]));
        idx.add(entry(3, "C", 50, vec![9.0]));
        let cfg = RetrievalConfig {
            k: 3,
            alpha: 0.0,
            ..RetrievalConfig::default()
        };
        let hits = idx.top_k_diverse(&[0.0], SimTime::from_days(50), &cfg);
        let cats: Vec<&str> = hits.iter().map(|n| n.entry.category.as_str()).collect();
        assert_eq!(cats, vec!["A", "B", "C"]);
        // The closer "A" entry represents its category.
        assert_eq!(hits[0].entry.id, 0);
    }

    #[test]
    fn k_larger_than_categories_returns_all_categories() {
        let mut idx = HistoricalIndex::new();
        idx.add(entry(0, "A", 1, vec![0.0]));
        idx.add(entry(1, "B", 1, vec![1.0]));
        let cfg = RetrievalConfig {
            k: 10,
            alpha: 0.3,
            ..RetrievalConfig::default()
        };
        let hits = idx.top_k_diverse(&[0.0], SimTime::from_days(1), &cfg);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = HistoricalIndex::new();
        let hits = idx.top_k_diverse(&[0.0], SimTime::EPOCH, &RetrievalConfig::default());
        assert!(hits.is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn k_zero_returns_nothing_from_every_view() {
        let entries: Vec<HistoricalEntry> = (0..6)
            .map(|i| entry(i, &format!("Cat{}", i % 3), i as u64, vec![i as f32]))
            .collect();
        let mut linear = HistoricalIndex::new();
        for e in &entries {
            linear.add(e.clone());
        }
        let online = OnlineHistoricalIndex::warm(&entries, 0).snapshot();
        let cfg = RetrievalConfig {
            k: 0,
            ..RetrievalConfig::default()
        };
        let at = SimTime::from_days(3);
        assert!(linear.top_k_diverse(&[1.0], at, &cfg).is_empty());
        assert!(HistoryView::top_k_diverse(&online, &[1.0], at, &cfg).is_empty());
    }

    #[test]
    fn online_snapshot_matches_linear_index() {
        let mut linear = HistoricalIndex::new();
        for i in 0..40usize {
            linear.add(entry(
                i,
                &format!("Cat{}", i % 9),
                (i as u64 * 7) % 300,
                vec![(i % 5) as f32, (i % 3) as f32 * 2.0],
            ));
        }
        let online = OnlineHistoricalIndex::warm(linear.entries(), 0);
        let snap = online.snapshot();
        assert_eq!(HistoryView::len(&snap), linear.len());
        let cfg = RetrievalConfig {
            k: 5,
            alpha: 0.3,
            ..RetrievalConfig::default()
        };
        for q in [[0.0f32, 0.0], [3.5, 1.0], [4.0, 6.0]] {
            for day in [0u64, 50, 180, 360] {
                let at = SimTime::from_days(day);
                let a = linear.top_k_diverse(&q, at, &cfg);
                let b = HistoryView::top_k_diverse(&snap, &q, at, &cfg);
                assert_eq!(a, b, "query {q:?} at day {day}");
            }
        }
    }

    #[test]
    fn zone_maps_bound_each_chunk_and_stats_count_columns() {
        let mut online = OnlineHistoricalIndex::with_chunk_rows(3);
        // Out-of-order timestamps: the second chunk's zone map is loose.
        for (i, day) in [5u64, 1, 9, 40, 2, 30, 7].into_iter().enumerate() {
            online.insert(entry(i, "A", day, vec![0.0, 1.0]), SimTime::EPOCH);
        }
        let zones: Vec<(u64, u64)> = online
            .rows
            .chunks
            .iter()
            .map(|c| (c.min_at.as_secs() / 86_400, c.max_at.as_secs() / 86_400))
            .collect();
        assert_eq!(zones, vec![(1, 9), (2, 40), (7, 7)]);
        let q = SimTime::from_days(20);
        let gaps: Vec<u64> = online
            .rows
            .chunks
            .iter()
            .map(|c| c.gap(q).as_secs())
            .collect();
        assert_eq!(gaps, vec![11 * 86_400, 0, 13 * 86_400]);
        let stats = online.index_stats();
        assert_eq!((stats.vectors, stats.dim, stats.chunks), (7, 2, 3));
        assert!(stats.bytes >= 7 * (2 * 4 + 4 + 8 + 8));
    }

    #[test]
    fn online_insert_respects_visibility_and_epochs() {
        let mut online = OnlineHistoricalIndex::new();
        online.insert(entry(0, "A", 10, vec![0.0]), SimTime::EPOCH);
        // Not yet published: snapshots are empty.
        assert!(online.snapshot().is_empty());
        assert_eq!(online.publish(), 1);
        let first_epoch = online.snapshot();
        // Resolved on day 50: invisible to queries before that.
        online.insert(entry(1, "B", 50, vec![0.0]), SimTime::from_days(50));
        assert_eq!(online.publish(), 2, "publish returns a monotone counter");
        assert_eq!(first_epoch.len(), 1, "sealed epoch must not move");
        let snap = online.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.visible_len(SimTime::from_days(20)), 1);
        assert_eq!(snap.visible_len(SimTime::from_days(60)), 2);
        let cfg = RetrievalConfig {
            k: 2,
            alpha: 0.0,
            ..RetrievalConfig::default()
        };
        let early = HistoryView::top_k_diverse(&snap, &[0.0], SimTime::from_days(20), &cfg);
        assert_eq!(early.len(), 1);
        assert_eq!(early[0].entry.category, "A");
        let late = HistoryView::top_k_diverse(&snap, &[0.0], SimTime::from_days(60), &cfg);
        assert_eq!(late.len(), 2);
    }

    #[test]
    #[should_panic(expected = "same dimension")]
    fn mixed_dimensions_are_rejected() {
        let mut online = OnlineHistoricalIndex::new();
        online.insert(entry(0, "A", 1, vec![0.0, 1.0]), SimTime::EPOCH);
        online.insert(entry(1, "B", 1, vec![0.0]), SimTime::EPOCH);
    }

    #[test]
    fn non_finite_inputs_fall_back_to_a_full_scan() {
        let mut linear = HistoricalIndex::new();
        for i in 0..12usize {
            let x = if i == 4 { f32::NAN } else { i as f32 };
            linear.add(entry(i, &format!("Cat{}", i % 4), i as u64 * 30, vec![x]));
        }
        let online = OnlineHistoricalIndex::warm(linear.entries(), 0);
        let snap = online.snapshot();
        let cfg = RetrievalConfig {
            k: 2,
            alpha: 0.3,
            ..RetrievalConfig::default()
        };
        let at = SimTime::from_days(330);
        for q in [[1.0f32], [f32::INFINITY]] {
            let want = linear.top_k_diverse(&q, at, &cfg);
            let got = HistoryView::top_k_diverse(&snap, &q, at, &cfg);
            let ids = |v: &[Neighbor<'_>]| -> Vec<(usize, u64)> {
                v.iter()
                    .map(|n| (n.entry.id, n.similarity.to_bits()))
                    .collect()
            };
            assert_eq!(ids(&got), ids(&want), "query {q:?}");
        }
    }

    #[test]
    fn fnv1a_matches_the_reference_value() {
        // FNV-1a reference value ("a" hashes to the known constant).
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn checkpoint_round_trips_through_json_and_restores() {
        let mut store = OnlineHistoricalIndex::new();
        for i in 0..30usize {
            store.insert(
                entry(
                    i,
                    &format!("Cat{}", i % 5),
                    (i as u64 * 9) % 250,
                    vec![(i % 6) as f32],
                ),
                SimTime::from_days((i as u64 * 2) % 80),
            );
            if i % 6 == 5 {
                store.publish();
            }
        }
        store.publish();
        let ckpt = store.checkpoint();
        assert_eq!(ckpt.entries.len(), store.len());
        assert_eq!(ckpt.shard_epochs, vec![store.epoch()]);
        assert_eq!(ckpt.max_cell, CHECKPOINT_MAX_CELL);
        // Entries come out in insertion order.
        for (i, ce) in ckpt.entries.iter().enumerate() {
            assert_eq!(ce.entry.id, i);
        }
        // The checkpoint survives a serde round trip (WAL requirement).
        let json = serde_json::to_string(&ckpt).expect("serializable");
        let back: HistoryCheckpoint = serde_json::from_str(&json).expect("parseable");
        assert_eq!(back, ckpt);
        let restored = OnlineHistoricalIndex::restore(&back);
        assert_eq!(restored.len(), store.len());
        assert_eq!(restored.epoch(), store.epoch());
        let cfg = RetrievalConfig {
            k: 4,
            alpha: 0.3,
            ..RetrievalConfig::default()
        };
        let (reference, snap) = (store.snapshot(), restored.snapshot());
        for day in [0u64, 40, 120, 300] {
            let at = SimTime::from_days(day);
            assert_eq!(
                HistoryView::top_k_diverse(&reference, &[1.0], at, &cfg),
                HistoryView::top_k_diverse(&snap, &[1.0], at, &cfg),
                "restored store must answer identically at day {day}"
            );
        }
        // A checkpoint from a category-sharded store carries one epoch
        // per shard; restore resumes at the largest.
        let sharded = HistoryCheckpoint {
            shard_epochs: vec![3, 9, 2, 5],
            ..ckpt
        };
        assert_eq!(OnlineHistoricalIndex::restore(&sharded).epoch(), 9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// `(id, similarity bits)` of each neighbor: what byte identity of
    /// two answers means.
    fn fingerprint(hits: &[Neighbor<'_>]) -> Vec<(usize, u64)> {
        hits.iter()
            .map(|n| (n.entry.id, n.similarity.to_bits()))
            .collect()
    }

    /// The linear oracle over the entries visible at `at`, in insertion
    /// order.
    fn oracle(entries: &[(HistoricalEntry, SimTime)], at: SimTime) -> HistoricalIndex {
        let mut linear = HistoricalIndex::new();
        for (e, visible_from) in entries {
            if *visible_from <= at {
                linear.add(e.clone());
            }
        }
        linear
    }

    /// Entries from `(day, category, x, y, visible day)` specs, inserted
    /// in spec order — so timestamps arrive out of order. The small
    /// grids make duplicate embeddings and timestamps across categories
    /// common, which only the insertion-order tie-break can order.
    fn entries(specs: &[(u64, usize, i32, i32, u64)]) -> Vec<(HistoricalEntry, SimTime)> {
        specs
            .iter()
            .enumerate()
            .map(|(i, &(day, cat, x, y, vis))| {
                (
                    HistoricalEntry {
                        id: i,
                        category: format!("Cat{cat}"),
                        summary: String::new(),
                        at: SimTime::from_days(day),
                        embedding: vec![x as f32, y as f32],
                    },
                    SimTime::from_days(vis),
                )
            })
            .collect()
    }

    const QUERIES: [[f32; 2]; 3] = [[0.0, 0.0], [1.5, 2.5], [3.0, 0.0]];

    proptest! {
        #[test]
        fn similarity_is_bounded_and_monotone(
            d1 in 0.0f64..50.0, d2 in 0.0f64..50.0,
            t1 in 0.0f64..365.0, t2 in 0.0f64..365.0,
            alpha in 0.0f64..2.0
        ) {
            let s = similarity(d1, t1, alpha);
            prop_assert!((0.0..=1.0).contains(&s));
            // Monotone decreasing in distance at fixed time.
            if d1 <= d2 {
                prop_assert!(similarity(d1, t1, alpha) + 1e-12 >= similarity(d2, t1, alpha));
            }
            // Monotone decreasing in |Δt| at fixed distance.
            if t1 <= t2 {
                prop_assert!(similarity(d1, t1, alpha) + 1e-12 >= similarity(d1, t2, alpha));
            }
        }

        #[test]
        fn top_k_diverse_is_sorted_and_distinct(
            k in 0usize..8,
            days in proptest::collection::vec(0u64..364, 1..30)
        ) {
            let mut idx = HistoricalIndex::new();
            for (i, &d) in days.iter().enumerate() {
                idx.add(HistoricalEntry {
                    id: i,
                    category: format!("Cat{}", i % 7),
                    summary: String::new(),
                    at: SimTime::from_days(d),
                    embedding: vec![(i % 5) as f32, (i % 3) as f32],
                });
            }
            let hits = idx.top_k_diverse(&[0.0, 0.0], SimTime::from_days(180), &RetrievalConfig { k, alpha: 0.3, ..RetrievalConfig::default() });
            prop_assert!(hits.len() <= k);
            for w in hits.windows(2) {
                prop_assert!(w[0].similarity + 1e-12 >= w[1].similarity);
            }
            let mut cats: Vec<&str> = hits.iter().map(|n| n.entry.category.as_str()).collect();
            cats.sort_unstable();
            let before = cats.len();
            cats.dedup();
            prop_assert_eq!(cats.len(), before, "duplicate categories in demos");
        }

        /// The store answers exactly as the linear scan over the visible
        /// entries — same ids, same order, same similarity bits — with
        /// out-of-order inserts (loose zone maps), queries anywhere in
        /// history (the scan runs both ways), α = 0 (nothing pruned),
        /// duplicate embeddings and timestamps across categories (the
        /// insertion-order tie-break), `visible_from` filtering, publishes
        /// mid-stream, `k = 0`, and chunks of 1–4 rows so small corpora
        /// cross many chunk boundaries.
        #[test]
        fn store_equals_linear_scan(
            k in 0usize..8,
            alpha in proptest::sample::select(vec![0.0f64, 0.02, 0.3, 2.0]),
            chunk_rows in 1usize..5,
            publish_every in 1usize..5,
            query_day in 0u64..70,
            specs in proptest::collection::vec(
                (0u64..60, 0usize..6, 0i32..4, 0i32..4, 0u64..60), 1..60)
        ) {
            let entries = entries(&specs);
            let mut store = OnlineHistoricalIndex::with_chunk_rows(chunk_rows);
            for (i, (e, visible_from)) in entries.iter().enumerate() {
                store.insert(e.clone(), *visible_from);
                if (i + 1) % publish_every == 0 {
                    store.publish();
                }
            }
            store.publish();
            let snap = store.snapshot();
            let cfg = RetrievalConfig { k, alpha, ..RetrievalConfig::default() };
            let at = SimTime::from_days(query_day);
            let linear = oracle(&entries, at);
            prop_assert_eq!(snap.visible_len(at), linear.len());
            for q in QUERIES {
                prop_assert_eq!(
                    fingerprint(&HistoryView::top_k_diverse(&snap, &q, at, &cfg)),
                    fingerprint(&linear.top_k_diverse(&q, at, &cfg)),
                    "query {:?}", q
                );
            }
        }

        /// A checkpoint restored into a fresh store (default chunk size,
        /// one publish) answers exactly as the linear scan, and so does
        /// the store it was taken from.
        #[test]
        fn store_and_its_restore_equal_linear_scan(
            k in 0usize..8,
            alpha in proptest::sample::select(vec![0.0f64, 0.02, 0.3, 2.0]),
            chunk_rows in 1usize..5,
            query_day in 0u64..70,
            specs in proptest::collection::vec(
                (0u64..60, 0usize..6, 0i32..4, 0i32..4, 0u64..60), 1..50)
        ) {
            let entries = entries(&specs);
            let mut store = OnlineHistoricalIndex::with_chunk_rows(chunk_rows);
            for (i, (e, visible_from)) in entries.iter().enumerate() {
                store.insert(e.clone(), *visible_from);
                if i % 3 == 0 {
                    store.publish();
                }
            }
            store.publish();
            prop_assert_eq!(store.len(), entries.len());
            let restored = OnlineHistoricalIndex::restore(&store.checkpoint());
            let cfg = RetrievalConfig { k, alpha, ..RetrievalConfig::default() };
            let at = SimTime::from_days(query_day);
            let linear = oracle(&entries, at);
            let (a, b) = (store.snapshot(), restored.snapshot());
            for q in QUERIES {
                let want = fingerprint(&linear.top_k_diverse(&q, at, &cfg));
                prop_assert_eq!(
                    &fingerprint(&HistoryView::top_k_diverse(&a, &q, at, &cfg)),
                    &want,
                    "store, query {:?}", q
                );
                prop_assert_eq!(
                    &fingerprint(&HistoryView::top_k_diverse(&b, &q, at, &cfg)),
                    &want,
                    "restore, query {:?}", q
                );
            }
        }
    }
}
