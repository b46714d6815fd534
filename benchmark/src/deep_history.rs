//! `deep_history`: retrieval-bound queries against a 100k-entry history
//! warmed into the serving engine's `OnlineHistoricalIndex` (Exact
//! backend), one caller in a closed loop through
//! `RcaCopilot::predict_from_query`.
//!
//! Scaled corpora carry no text, so the options have empty summaries and
//! the prompt side is trivial: nearly all of each query is the store.

use crate::paper_replay::{self, budget_tokenizer, same_answer, traced_predict, Query};
use crate::report::{
    median, peak_rss_mb, percentile, prediction_line, secs_since, shuffle, sorted, timed_reps,
    Digest, Json,
};
use crate::trace::Recorder;
use crate::{Args, Outcome, SETUP_REPS};
use rcacopilot::core::retrieval::{
    HistoricalEntry, HistoricalIndex, HistorySnapshot, HistoryView, OnlineHistoricalIndex,
    RetrievalBackend, RetrievalConfig,
};
use rcacopilot::core::RcaCopilot;
use rcacopilot::handlers::RunDegradation;
use rcacopilot::serve::EngineConfig;
use rcacopilot::simcloud::{scaled_corpus, ScaleConfig};
use rcacopilot::telemetry::SimTime;
use rcacopilot::textkit::bpe::BpeTokenizer;
use std::time::Instant;

/// The corpus is fixed; the benchmark's `--seed` draws the queries.
const CORPUS_SEED: u64 = 42;
const CORPUS: usize = 100_000;
const YEARS: usize = 4;
const DIM: usize = 16;
const K: usize = 5;
/// Temporal decay per day: gentle enough that months of history stay in
/// play at this corpus size.
const ALPHA: f64 = 0.02;
/// Distinct queries per run; a run completes at least one cycle, which
/// gives the p90 ten samples beyond it.
const QUERIES: usize = 100;
/// Queries per throughput sample.
const RATE_CHUNK: usize = 10;
/// Queries whose store ids the untraced run checks against the oracle.
const ID_CHECKS: usize = 5;
/// Queries are drawn from the newest tenth of the corpus: an incoming
/// incident usually recurs a recently active category.
const TAIL_DIVISOR: usize = 10;

struct Setup {
    copilot: RcaCopilot,
    tokenizer: Option<BpeTokenizer>,
    entries: Vec<HistoricalEntry>,
    store: OnlineHistoricalIndex,
    store_build_s: f64,
}

fn setup(trace: bool) -> Setup {
    let table2 = paper_replay::setup();
    let tokenizer = trace.then(|| budget_tokenizer(&table2.prepared));
    let entries: Vec<HistoricalEntry> = scaled_corpus(&ScaleConfig {
        seed: CORPUS_SEED,
        years: YEARS,
        incidents: CORPUS,
        dim: DIM,
    })
    .into_iter()
    .enumerate()
    .map(|(id, inc)| HistoricalEntry {
        id,
        category: inc.category,
        summary: String::new(),
        at: inc.at,
        embedding: inc.embedding,
    })
    .collect();
    let t0 = Instant::now();
    let store = OnlineHistoricalIndex::warm(&entries, EngineConfig::default().max_cell);
    let store_build_s = secs_since(t0);
    Setup {
        copilot: table2.copilot,
        tokenizer,
        entries,
        store,
        store_build_s,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let mut build_times = Vec::with_capacity(SETUP_REPS);
    let (s, setup_times) = timed_reps(SETUP_REPS, || {
        let s = setup(args.trace);
        build_times.push(s.store_build_s);
        s
    });
    o.metrics.put("setup_s", median(&setup_times), "s");

    let cfg = RetrievalConfig {
        k: K,
        alpha: ALPHA,
        backend: RetrievalBackend::Exact,
    };
    // Query just past the horizon: every entry is history.
    let at = SimTime::from_days(YEARS as u64 * 364 + 1);
    // A fixed query set, evenly spaced over the tail; the seed picks the
    // order in which the loop walks it.
    let tail = s.entries.len() - s.entries.len() / TAIL_DIVISOR;
    let step = (s.entries.len() - tail) / QUERIES;
    let picks: Vec<usize> = (0..QUERIES).map(|q| tail + q * step).collect();
    let mut order: Vec<usize> = (0..QUERIES).collect();
    shuffle(&mut order, &mut { args.seed });
    let snap: HistorySnapshot = s.store.snapshot();
    let none = RunDegradation::default();

    let mut lines: Vec<Option<String>> = vec![None; QUERIES];
    let mut demos: Vec<Option<Vec<String>>> = vec![None; QUERIES];
    let mut traced_ids: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut repeat_agree = true;
    let mut traced_agree = true;
    let mut latencies = Vec::new();
    let mut traced_ms = Vec::new();
    let mut rec = Recorder::default();
    let (mut dropped, mut prompt_tokens) = (0usize, 0usize);
    let mut done = 0usize;
    let window = Instant::now();
    // Untraced runs finish the first cycle whatever the window; the
    // traced run stops with the window.
    while secs_since(window) < args.seconds as f64 || (!args.trace && done < QUERIES) {
        let q = order[done % QUERIES];
        let query = &s.entries[picks[q]].embedding;
        let t0 = Instant::now();
        let pred = s
            .copilot
            .predict_from_query(&snap, query, "", at, &cfg, &none);
        let ms = secs_since(t0) * 1e3;
        latencies.push(ms);
        let line = prediction_line(&format!("query={q}"), &pred);
        match &lines[q] {
            None => {
                lines[q] = Some(line);
                demos[q] = Some(pred.demo_categories.clone());
            }
            Some(first) => repeat_agree &= *first == line,
        }
        if let Some(tok) = &s.tokenizer {
            let t0 = Instant::now();
            let (traced, drop_n, prompt, ids) = rec.span("query", done as u64, |rec| {
                traced_predict(
                    rec,
                    done as u64,
                    &s.copilot,
                    tok,
                    &Query {
                        history: &snap,
                        embedding: query,
                        input_text: "",
                        at,
                        retrieval: &cfg,
                        degradation: &none,
                    },
                )
            });
            traced_ids.push((q, ids));
            traced_ms.push(secs_since(t0) * 1e3);
            traced_agree &= same_answer(&traced, &pred);
            dropped += drop_n;
            prompt_tokens += tok.count_tokens(&prompt);
        }
        done += 1;
    }
    o.attempted = done as u64;
    o.failed = 0;
    // Before the checks, which copy the corpus into the oracle.
    o.metrics.put("peak_rss_mb", peak_rss_mb(), "MB");

    // Output checks, outside the timed loop, against the linear
    // oracle: the retrieved categories of every query run, and the top-K
    // ids of every traced query, or of the first few queries in an
    // untraced run (a store query costs as much as the timed call, the
    // oracle's far less).
    let mut oracle = HistoricalIndex::new();
    for e in &s.entries {
        oracle.add(e.clone());
    }
    let oracle_ids = |q: usize| -> Vec<usize> {
        oracle
            .top_k_diverse(&s.entries[picks[q]].embedding, at, &cfg)
            .iter()
            .map(|n| n.entry.id)
            .collect()
    };
    let mut oracle_agree = true;
    let mut oracle_ms = Vec::new();
    let run: Vec<usize> = (0..QUERIES).filter(|&q| demos[q].is_some()).collect();
    let mut id_checks = traced_ids.len();
    for &q in &run {
        let t0 = Instant::now();
        let want_ids = oracle_ids(q);
        oracle_ms.push(secs_since(t0) * 1e3);
        let want: Vec<String> = want_ids
            .iter()
            .map(|&id| s.entries[id].category.clone())
            .collect();
        oracle_agree &= demos[q].as_ref() == Some(&want);
        if !args.trace && q < ID_CHECKS {
            id_checks += 1;
            let got: Vec<usize> = snap
                .top_k_diverse(&s.entries[picks[q]].embedding, at, &cfg)
                .iter()
                .map(|n| n.entry.id)
                .collect();
            oracle_agree &= got == want_ids;
        }
    }
    for (q, got) in &traced_ids {
        oracle_agree &= *got == oracle_ids(*q);
    }
    o.check(
        "retrieval equals the linear oracle",
        oracle_agree,
        format!("categories on {} queries, ids on {id_checks}", run.len()),
    );
    o.check(
        "repeated queries log the same prediction",
        repeat_agree,
        String::new(),
    );
    let mut digest = Digest::default();
    for line in lines.iter().flatten() {
        digest.line(line);
    }
    if done >= QUERIES {
        o.digest = digest.hex();
    }

    let lat = sorted(latencies.clone());
    // Median over chunks of consecutive queries: a burst of host noise
    // moves one chunk, not the figure.
    let chunk_rates: Vec<f64> = latencies
        .chunks_exact(RATE_CHUNK)
        .map(|c| RATE_CHUNK as f64 * 1e3 / c.iter().sum::<f64>())
        .collect();
    o.metrics
        .put("incidents_per_s", median(&chunk_rates), "1/s");
    o.metrics
        .put("latency_p50_ms", percentile(&lat, 0.50), "ms");
    o.metrics
        .put("latency_p90_ms", percentile(&lat, 0.90), "ms");
    o.metrics.put("failed_share", 0.0, "ratio");
    let stats = s.store.index_stats();
    o.counts
        .push(("latency_samples".into(), Json::U64(lat.len() as u64)));
    o.counts
        .push(("oracle_p50_ms".into(), Json::F64(median(&oracle_ms))));
    o.counts
        .push(("store_bytes".into(), Json::U64(stats.bytes as u64)));
    o.counts
        .push(("store_vectors".into(), Json::U64(stats.vectors as u64)));

    if args.trace {
        o.check(
            "traced composition reproduces predict_from_query",
            traced_agree,
            String::new(),
        );
        let untraced_mean = lat.iter().sum::<f64>() / lat.len() as f64;
        o.layer_report(&rec, &traced_ms, untraced_mean);
        o.layers
            .put("budget.options_dropped", dropped as f64, "count");
        o.layers
            .put("budget.prompt_tokens", prompt_tokens as f64, "count");
        o.layers
            .put("budget.prompts", traced_ms.len() as f64, "count");
        o.layers.put("store.build_s", median(&build_times), "s");
        o.layers.put("store.bytes", stats.bytes as f64, "bytes");
        o.recorder = Some(rec);
    }
    o
}
