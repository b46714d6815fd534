//! `paper_replay`: the paper's Table 2 setup replayed through
//! `PlanExecutor::run_incident`, one caller in a closed loop.
//!
//! Every pass over the test split gets fresh `PlanCaches`, so each
//! incident is distinct within its pass and the memo never hits; the
//! frozen 490-entry `HistoricalIndex` is read-only. The traced run calls
//! the same layers one at a time and must reproduce `run_incident`'s
//! answer for every incident.

use crate::report::{
    median, peak_rss_mb, percentile, prediction_line, secs_since, shuffle, sorted, timed_reps,
    Digest, Json,
};
use crate::trace::Recorder;
use crate::{Args, Outcome, SETUP_REPS};
use rcacopilot::core::eval::{evaluate_method, Method, PreparedDataset};
use rcacopilot::core::retrieval::{HistoryView, RetrievalConfig};
use rcacopilot::core::{
    f1_scores, CollectionStage, ContextSpec, InferencePlan, PlanCaches, PlanExecutor, RcaCopilot,
    RcaCopilotConfig, RcaPrediction, SummarizeMode,
};
use rcacopilot::handlers::RunDegradation;
use rcacopilot::llm::prompt::{PredictionPrompt, PromptOption, CONTEXT_TOKENS};
use rcacopilot::llm::{CotEngine, ModelProfile};
use rcacopilot::simcloud::{generate_dataset, CampaignConfig, Incident, IncidentDataset};
use rcacopilot::telemetry::SimTime;
use rcacopilot::textkit::bpe::BpeTokenizer;
use std::time::Instant;

/// The Table 2 campaign: its seed, and the split seed and training
/// share of the paper's 75/25 split. The benchmark's `--seed` varies the
/// replay order, not the campaign.
const CAMPAIGN_SEED: u64 = 42;
const SPLIT_SEED: u64 = 7;
const TRAIN_FRAC: f64 = 0.75;
/// Samples a run needs before its p99 has ten samples beyond it.
const MIN_SAMPLES: usize = 1_000;

/// Everything the replay needs.
pub struct Setup {
    pub dataset: IncidentDataset,
    pub prepared: PreparedDataset,
    pub copilot: RcaCopilot,
}

/// Dataset generation, collection + summarization of every incident,
/// and copilot training: the Table 2 setup.
pub fn setup() -> Setup {
    let dataset = generate_dataset(&CampaignConfig {
        seed: CAMPAIGN_SEED,
        ..CampaignConfig::default()
    });
    let split = dataset.split(SPLIT_SEED, TRAIN_FRAC);
    let prepared = PreparedDataset::prepare(&dataset, &split);
    let copilot = RcaCopilot::train(
        &prepared.train_examples(&ContextSpec::default()),
        RcaCopilotConfig::default(),
    );
    Setup {
        dataset,
        prepared,
        copilot,
    }
}

/// The tokenizer `RcaCopilot::train_with_embedder` fits: the demo
/// corpus of the training examples, vocabulary 800.
pub fn budget_tokenizer(prepared: &PreparedDataset) -> BpeTokenizer {
    let corpus: Vec<String> = prepared
        .train_examples(&ContextSpec::default())
        .into_iter()
        .map(|e| e.demo_text)
        .collect();
    BpeTokenizer::train(&corpus, 800)
}

/// The arguments of `RcaCopilot::predict_from_query`.
pub struct Query<'a> {
    pub history: &'a dyn HistoryView,
    pub embedding: &'a [f32],
    pub input_text: &'a str,
    pub at: SimTime,
    pub retrieval: &'a RetrievalConfig,
    pub degradation: &'a RunDegradation,
}

/// Retrieve → budget → CoT for one embedded query, each call in its own
/// span: exactly the steps of `RcaCopilot::predict_from_query`.
/// Returns the prediction, the options the budget dropped, the final
/// prompt's text (whose tokens the caller counts outside the request's
/// spans), and the retrieved entry ids.
pub fn traced_predict(
    rec: &mut Recorder,
    request: u64,
    copilot: &RcaCopilot,
    tokenizer: &BpeTokenizer,
    q: &Query<'_>,
) -> (RcaPrediction, usize, String, Vec<usize>) {
    let config = copilot.config();
    let Query {
        history,
        embedding: query,
        input_text,
        at,
        retrieval,
        degradation,
    } = *q;
    let neighbors = rec.span("retrieve", request, |_| {
        history.top_k_diverse(query, at, retrieval)
    });
    let ids = neighbors.iter().map(|n| n.entry.id).collect();
    let completeness = degradation.completeness();
    let (prompt, dropped) = rec.span("budget", request, |_| {
        let mut prompt = PredictionPrompt::new(
            input_text,
            neighbors
                .iter()
                .map(|n| PromptOption {
                    summary: n.entry.summary.as_str().into(),
                    category: n.entry.category.as_str().into(),
                })
                .collect(),
        );
        if completeness < 1.0 {
            prompt.degradation_note = Some(format!(
                "{}; treat missing evidence as unknown rather than absent.",
                degradation.summary()
            ));
        }
        let dropped = prompt.truncate_to_budget(tokenizer, CONTEXT_TOKENS);
        (prompt, dropped)
    });
    let pred = rec.span("cot", request, |_| {
        CotEngine::new(config.profile, config.llm_seed).predict(&prompt)
    });
    let prediction = RcaPrediction {
        label: pred.label,
        unseen: pred.unseen,
        // The explanation is not compared; the downgrade mirrors
        // `predict_from_query` so confidences compare exactly.
        confidence: if completeness < 1.0 {
            pred.confidence * completeness
        } else {
            pred.confidence
        },
        explanation: pred.explanation,
        demo_categories: prompt
            .options
            .iter()
            .map(|o| o.category.to_string())
            .collect(),
        completeness,
    };
    (prediction, dropped, prompt.render(), ids)
}

/// True when two predictions agree on what the check compares: label,
/// confidence and demonstration categories.
pub fn same_answer(a: &RcaPrediction, b: &RcaPrediction) -> bool {
    a.label == b.label && a.confidence == b.confidence && a.demo_categories == b.demo_categories
}

/// One pass over the test incidents, each with fresh caches.
#[derive(Default)]
struct Pass {
    latencies_ms: Vec<f64>,
    predictions: Vec<Option<RcaPrediction>>,
    digest: Digest,
    memo: [(u64, u64); 2],
    /// Traced runs only: per-incident time of the layer-by-layer
    /// composition, and whether it reproduced `run_incident`.
    traced_ms: Vec<f64>,
    traced_agree: bool,
    dropped: usize,
    prompt_tokens: usize,
}

/// The traced side of a pass: the budget tokenizer and the recorder.
struct Tracing<'a> {
    tokenizer: &'a BpeTokenizer,
    rec: &'a mut Recorder,
    request_base: u64,
}

/// Runs every test incident through `run_incident` (timed), in the
/// order `order` gives. In a traced
/// run each incident then goes once more through the layers called one
/// at a time, over caches of its own, so both sides see the same
/// (empty) memo state and the pair compares like for like.
fn pass(
    s: &Setup,
    stage: &CollectionStage,
    plan: &InferencePlan,
    test: &[&Incident],
    order: &[usize],
    mut tracing: Option<Tracing<'_>>,
) -> Pass {
    let caches = PlanCaches::new(1);
    let exec = PlanExecutor::new(&s.copilot, stage, plan, &caches);
    let traced_caches = PlanCaches::new(1);
    let traced_exec = PlanExecutor::new(&s.copilot, stage, plan, &traced_caches);
    let mut out = Pass {
        traced_agree: true,
        predictions: vec![None; test.len()],
        ..Pass::default()
    };
    for &j in order {
        let inc = test[j];
        let at = inc.occurred_at();
        let t0 = Instant::now();
        let result = exec.run_incident(inc, at, s.copilot.index(), SummarizeMode::Full);
        out.latencies_ms.push(secs_since(t0) * 1e3);
        let prediction = result.ok().map(|o| o.prediction);
        if let Some(t) = tracing.as_mut() {
            let request = t.request_base + j as u64;
            let tokenizer = t.tokenizer;
            let t0 = Instant::now();
            let answer = t.rec.span("incident", request, |rec| {
                let collected = rec.span("collect", request, |_| {
                    traced_exec.collect(inc).map(|c| {
                        let raw = c.diagnostic_text();
                        (c, raw)
                    })
                });
                let (collected, raw_diag) = collected.ok()?;
                let summary = rec.span("summarize", request, |_| {
                    traced_exec.summarize(&raw_diag, SummarizeMode::Full)
                });
                let input_text = rec.span("assemble", request, |_| {
                    traced_exec.assemble(&collected, &raw_diag, &summary)
                });
                let query = rec.span("embed", request, |_| traced_exec.embed(&raw_diag));
                Some(traced_predict(
                    rec,
                    request,
                    &s.copilot,
                    tokenizer,
                    &Query {
                        history: s.copilot.index(),
                        embedding: &query,
                        input_text: &input_text,
                        at,
                        retrieval: &s.copilot.config().retrieval,
                        degradation: &collected.run.degradation,
                    },
                ))
            });
            out.traced_ms.push(secs_since(t0) * 1e3);
            out.traced_agree &= match (&answer, &prediction) {
                (Some((a, ..)), Some(b)) => same_answer(a, b),
                (None, None) => true,
                _ => false,
            };
            if let Some((_, dropped, prompt, _)) = answer {
                out.dropped += dropped;
                out.prompt_tokens += tokenizer.count_tokens(&prompt);
            }
        }
        out.predictions[j] = prediction;
    }
    for (j, p) in out.predictions.iter().enumerate() {
        if let Some(p) = p {
            out.digest
                .line(&prediction_line(&format!("incident={j}"), p));
        }
    }
    out.memo = [caches.summary.stats(), caches.embed.stats()];
    out
}

fn add_memo(acc: &mut [(u64, u64); 2], m: [(u64, u64); 2]) {
    for (a, m) in acc.iter_mut().zip(m) {
        a.0 += m.0;
        a.1 += m.1;
    }
}

/// The F1 scores this code produces on the Table 2 campaign, pinned to
/// three decimals (the replay order the seed picks cannot move them).
const PINNED_F1: (f64, f64) = (0.712, 0.603);

pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let (s, setup_times) = timed_reps(SETUP_REPS, setup);
    o.metrics.put("setup_s", median(&setup_times), "s");
    let test: Vec<&Incident> = s
        .prepared
        .test
        .iter()
        .map(|&i| &s.dataset.incidents()[i])
        .collect();
    let gold: Vec<String> = test.iter().map(|inc| inc.category.clone()).collect();
    let stage = CollectionStage::standard();
    let plan = InferencePlan::default();
    let tokenizer = args.trace.then(|| budget_tokenizer(&s.prepared));
    let mut rec = Recorder::default();

    // The closed loop: whole passes until the window closes and the
    // sample supports a p99.
    let mut latencies: Vec<f64> = Vec::new();
    let mut traced_ms: Vec<f64> = Vec::new();
    let mut first: Option<Pass> = None;
    let mut digests_agree = true;
    let mut traced_agree = true;
    let (mut predicted, mut attempted) = (0u64, 0u64);
    let mut pass_rates = Vec::new();
    let mut memo = [(0u64, 0u64); 2];
    let (mut dropped, mut prompt_tokens) = (0usize, 0usize);
    let mut pass_no = 0u64;
    let mut order: Vec<usize> = (0..test.len()).collect();
    let mut rng = args.seed;
    let window = Instant::now();
    while secs_since(window) < args.seconds as f64 || latencies.len() < MIN_SAMPLES {
        let tracing = tokenizer.as_ref().map(|tokenizer| Tracing {
            tokenizer,
            rec: &mut rec,
            request_base: pass_no * 1_000_000,
        });
        shuffle(&mut order, &mut rng);
        let p = pass(&s, &stage, &plan, &test, &order, tracing);
        attempted += test.len() as u64;
        let served = p.predictions.iter().flatten().count();
        predicted += served as u64;
        pass_rates.push(served as f64 * 1e3 / p.latencies_ms.iter().sum::<f64>());
        latencies.extend(&p.latencies_ms);
        traced_ms.extend(&p.traced_ms);
        traced_agree &= p.traced_agree;
        dropped += p.dropped;
        prompt_tokens += p.prompt_tokens;
        add_memo(&mut memo, p.memo);
        match &first {
            None => first = Some(p),
            Some(f) => digests_agree &= f.digest == p.digest,
        }
        pass_no += 1;
    }
    // Before the checks, which train a second copilot.
    o.metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    let first = first.expect("at least one pass");
    let failed = attempted - predicted;
    o.attempted = attempted;
    o.failed = failed;

    let lat = sorted(latencies);
    // Median over passes: a burst of host noise moves one pass, not the
    // figure.
    o.metrics.put("incidents_per_s", median(&pass_rates), "1/s");
    o.metrics
        .put("latency_p50_ms", percentile(&lat, 0.50), "ms");
    o.metrics
        .put("latency_p90_ms", percentile(&lat, 0.90), "ms");
    o.metrics
        .put("latency_p99_ms", percentile(&lat, 0.99), "ms");
    o.metrics
        .put("failed_share", failed as f64 / attempted as f64, "ratio");
    o.counts
        .push(("latency_samples".into(), Json::U64(lat.len() as u64)));

    // Output checks.
    o.digest = first.digest.hex();
    o.check(
        "every pass logs the same predictions",
        digests_agree,
        String::new(),
    );
    let labels: Vec<String> = first
        .predictions
        .iter()
        .map(|p| p.as_ref().map_or_else(String::new, |p| p.label.clone()))
        .collect();
    let f1 = f1_scores(&gold, &labels);
    o.metrics.put("micro_f1", f1.micro_f1, "ratio");
    o.metrics.put("macro_f1", f1.macro_f1, "ratio");
    // `evaluate_method` retrains the copilot (seconds of work); the
    // content is the same at every seed, so the default seed checks it.
    if args.seed == crate::DEFAULT_SEED {
        let eval = evaluate_method(&s.prepared, Method::RcaCopilot(ModelProfile::Gpt4), 1);
        o.check(
            "run_incident labels equal evaluate_method's",
            eval.predictions == labels
                && eval.f1.micro_f1 == f1.micro_f1
                && eval.f1.macro_f1 == f1.macro_f1,
            format!(
                "run_incident F1 {:.4}/{:.4}, evaluate_method F1 {:.4}/{:.4}",
                f1.micro_f1, f1.macro_f1, eval.f1.micro_f1, eval.f1.macro_f1
            ),
        );
    }
    let round3 = |x: f64| (x * 1000.0).round() / 1000.0;
    o.check(
        "F1 equals the pinned Table 2 scores",
        (round3(f1.micro_f1), round3(f1.macro_f1)) == PINNED_F1,
        format!(
            "{:.3}/{:.3}, pinned {:.3}/{:.3}",
            f1.micro_f1, f1.macro_f1, PINNED_F1.0, PINNED_F1.1
        ),
    );
    o.memo(memo[0], memo[1]);
    let memo_hits = memo[0].0 + memo[1].0;
    o.check(
        "no memo hits within a pass",
        memo_hits == 0,
        format!("{memo_hits} hits"),
    );
    if args.trace {
        o.check(
            "traced composition reproduces run_incident",
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
        o.recorder = Some(rec);
    }
    o
}
