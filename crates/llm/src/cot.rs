//! The chain-of-thought prediction engine.
//!
//! Given the paper's Figure 9 prompt — the incident's summarized
//! diagnostics plus top-K historical demonstrations — the engine scores
//! every option against the input by textual evidence only:
//!
//! - cosine similarity of character-trigram profiles (robust to phrasing),
//! - Jaccard overlap of *salient entities* (exception names, CamelCase
//!   identifiers, ALL-CAPS markers) — the "reasoning" a capable model
//!   would articulate, and which the explanation text cites.
//!
//! A capability-dependent noise term models the difference between
//! GPT-3.5 and GPT-4; if even the best option scores below the profile's
//! threshold the engine answers "Unseen incident" and synthesizes a new
//! category label (Figure 11).

use crate::labelgen::{camelcase_entities, camelcase_tokens, synthesize_label};
use crate::profile::ModelProfile;
use crate::prompt::PredictionPrompt;
use rcacopilot_textkit::ngram::{hash_token, Fnv1a};
use rcacopilot_textkit::normalize::{mask_entities, normalize};
use std::collections::BTreeSet;
use std::fmt::Write;

/// The engine's answer to a prediction prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Predicted category label. For unseen incidents this is the
    /// synthesized new-category keyword.
    pub label: String,
    /// Index into the prompt's options, `None` for "Unseen incident".
    pub option_index: Option<usize>,
    /// True when option A (unseen) was chosen.
    pub unseen: bool,
    /// The winning option's (noisy) similarity score.
    pub confidence: f64,
    /// Natural-language explanation of the choice.
    pub explanation: String,
}

/// The simulated chain-of-thought predictor.
#[derive(Debug, Clone, Copy)]
pub struct CotEngine {
    /// Capability profile in use.
    pub profile: ModelProfile,
    /// Seed for the (deterministic) noise stream; vary across rounds to
    /// reproduce the paper's §5.6 stability experiment.
    pub seed: u64,
}

impl CotEngine {
    /// Creates an engine with the given profile and noise seed.
    pub fn new(profile: ModelProfile, seed: u64) -> Self {
        CotEngine { profile, seed }
    }

    /// Per-option score breakdown `(clean, cosine, jaccard, contrastive)`
    /// — the engine's "reasoning trace", exposed for debugging and for
    /// explanation tooling.
    pub fn option_scores(&self, prompt: &PredictionPrompt<'_>) -> Vec<(f64, f64, f64, f64)> {
        with_features(prompt, score_options)
    }

    /// Answers a prediction prompt.
    pub fn predict(&self, prompt: &PredictionPrompt<'_>) -> Prediction {
        with_features(prompt, |query, options| {
            self.predict_from(prompt, query, options)
        })
    }

    /// [`CotEngine::predict`] over the prompt's precomputed features.
    fn predict_from(
        &self,
        prompt: &PredictionPrompt<'_>,
        query: &TextFeatures<'_>,
        options: &[TextFeatures<'_>],
    ) -> Prediction {
        // Long prompts degrade a real LLM's reading fidelity
        // ("lost in the middle"); scoring noise grows with the amount of
        // context the model must hold. This is what the paper's
        // summarization stage buys back (Table 3: summarized beats raw).
        let prompt_chars: usize = prompt.input.len()
            + prompt
                .options
                .iter()
                .map(|o| o.summary.len())
                .sum::<usize>();
        let approx_tokens = prompt_chars as f64 / 4.0 * self.profile.length_sensitivity();
        // Superlinear in length: a long prompt does not merely dilute
        // attention, it causes outright misreads past a few thousand
        // tokens. Capped so pathological prompts stay bounded.
        let length_factor =
            (1.0 + approx_tokens / 1500.0 + (approx_tokens / 1800.0).powi(2)).min(12.0);

        // Long prompts degrade reading fidelity (see `length_factor`
        // above); contrastive per-option scores come from a shared helper.
        let scores = score_options(query, options);
        let mut best: Option<(usize, f64, f64)> = None; // (idx, noisy, clean)
        for (i, &(clean, _, _, _)) in scores.iter().enumerate() {
            let noisy = clean + self.noise_for(&prompt.input, i) * length_factor;
            if best.is_none_or(|(_, bn, _)| noisy > bn) {
                best = Some((i, noisy, clean));
            }
        }
        // An option wins only on *distinctive* grounds: template-level
        // similarity without any option-specific shared evidence is what a
        // careful reader calls "none of these match".
        let best_is_generic = best.is_some_and(|(idx, _, clean)| {
            let (_, cos, _, contrastive) = scores[idx];
            contrastive < 0.02 && cos < 0.80 && clean < 0.45
        });

        match best {
            Some((idx, noisy, _))
                if noisy >= self.profile.unseen_threshold() && !best_is_generic =>
            {
                let option = &prompt.options[idx];
                let shared: Vec<String> = common(&query.entities, &options[idx].entities)
                    .map(String::from)
                    .collect();
                let explanation = explain_match(&option.category, &shared, &prompt.input);
                Prediction {
                    label: option.category.to_string(),
                    option_index: Some(idx),
                    unseen: false,
                    confidence: noisy,
                    explanation,
                }
            }
            best_or_none => {
                let label = synthesize_label(&prompt.input);
                let confidence = best_or_none.map_or(0.0, |(_, n, _)| n);
                let explanation = explain_unseen(&label, &prompt.input);
                Prediction {
                    label,
                    option_index: None,
                    unseen: true,
                    confidence,
                    explanation,
                }
            }
        }
    }

    /// Deterministic pseudo-Gaussian noise for `(input, option index)`.
    fn noise_for(&self, input: &str, option_index: usize) -> f64 {
        let sigma = self.profile.noise();
        if sigma == 0.0 {
            return 0.0;
        }
        // Sum of three uniforms approximates a Gaussian (Irwin–Hall).
        let mut acc = 0.0;
        for salt in 0..3u64 {
            // FNV-1a of "{seed}|{option_index}|{salt}|{input}", streamed.
            let mut h = Fnv1a::new();
            let _ = write!(h, "{}|{}|{}|", self.seed, option_index, salt);
            h.write(input.as_bytes());
            acc += (h.finish() % 1_000_000) as f64 / 1_000_000.0 - 0.5;
        }
        acc * sigma * 2.0
    }
}

/// What scoring reads from one text, derived once per text. Entities are
/// slices of the text, content words slices of its canonical form.
struct TextFeatures<'a> {
    /// [`salient_entities`] of the text, sorted.
    entities: Vec<&'a str>,
    /// [`evidence_terms`] of the text, sorted.
    terms: Vec<&'a str>,
    /// Character-trigram profile of the canonical text.
    trigrams: Vec<(u64, f64)>,
}

impl<'a> TextFeatures<'a> {
    /// Features of `text`, whose [`canonical`] form is `canon`.
    fn of(text: &'a str, canon: &'a str) -> Self {
        let entities = sorted_set(salient_tokens(text));
        let terms = sorted_set(entities.iter().copied().chain(content_words(canon)));
        TextFeatures {
            entities,
            terms,
            trigrams: trigram_profile(canon),
        }
    }
}

/// The masked, normalized form scoring compares texts in.
fn canonical(text: &str) -> String {
    normalize(&mask_entities(text))
}

/// Calls `f` with the features of the prompt's input and of each
/// option's summary.
fn with_features<R>(
    prompt: &PredictionPrompt<'_>,
    f: impl FnOnce(&TextFeatures<'_>, &[TextFeatures<'_>]) -> R,
) -> R {
    let texts =
        || std::iter::once(&*prompt.input).chain(prompt.options.iter().map(|o| &*o.summary));
    let canons: Vec<String> = texts().map(canonical).collect();
    let features: Vec<TextFeatures<'_>> = texts()
        .zip(&canons)
        .map(|(text, canon)| TextFeatures::of(text, canon))
        .collect();
    f(&features[0], &features[1..])
}

/// Sorts and deduplicates.
fn sorted_set<'a>(items: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    let mut v: Vec<&str> = items.collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// The items two sorted, deduplicated slices share, in order.
fn common<'s, 'a>(a: &'s [&'a str], b: &'s [&'a str]) -> impl Iterator<Item = &'a str> + 's {
    let mut b_iter = b.iter().peekable();
    a.iter().copied().filter(move |&t| {
        while b_iter.next_if(|&&u| u < t).is_some() {}
        b_iter.next_if(|&&u| u == t).is_some()
    })
}

/// Scores every option of a prompt: `(clean, cosine, jaccard, contrastive)`.
///
/// The contrastive component models how a capable model reads a
/// multiple-choice prompt: evidence terms that appear in more than one
/// option cannot discriminate, so only each option's *unique* terms count,
/// matched against the query's own non-boilerplate terms.
fn score_options(
    query: &TextFeatures<'_>,
    options: &[TextFeatures<'_>],
) -> Vec<(f64, f64, f64, f64)> {
    // Terms present in more than one option are non-discriminative.
    let mut all_terms: Vec<&str> = options
        .iter()
        .flat_map(|o| o.terms.iter().copied())
        .collect();
    all_terms.sort_unstable();
    let mut shared: Vec<&str> = all_terms
        .windows(2)
        .filter(|w| w[0] == w[1])
        .map(|w| w[0])
        .collect();
    shared.dedup();
    let is_shared = |t: &&str| shared.binary_search(t).is_ok();
    let query_distinct: Vec<&str> = query
        .terms
        .iter()
        .copied()
        .filter(|t| !is_shared(t))
        .collect();

    options
        .iter()
        .map(|opt| {
            let cos = cosine(&query.trigrams, &opt.trigrams);
            let jac = jaccard(&query.entities, &opt.entities);
            let unique: Vec<&str> = opt
                .terms
                .iter()
                .copied()
                .filter(|t| !is_shared(t))
                .collect();
            let inter = common(&unique, &query_distinct).count();
            // Cosine-style normalization: plain Jaccard punishes options
            // with richer summaries (larger unions), biasing toward terse
            // options regardless of evidence.
            let denom = ((unique.len() * query_distinct.len()) as f64).sqrt();
            let contrastive = if denom == 0.0 {
                0.0
            } else {
                inter as f64 / denom
            };
            (
                0.25 * cos + 0.20 * jac + 0.55 * contrastive,
                cos,
                jac,
                contrastive,
            )
        })
        .collect()
}

/// Character-trigram frequency profile of `canon` (already normalized and
/// masked), sorted by trigram hash. Each trigram is hashed straight from
/// its slice of `canon`.
fn trigram_profile(canon: &str) -> Vec<(u64, f64)> {
    let mut hashes: Vec<u64> = Vec::with_capacity(canon.len());
    // Byte offsets of the last three characters seen, by index mod 3.
    let mut starts = [0usize; 3];
    let ends = canon.char_indices().map(|(i, _)| i).chain([canon.len()]);
    for (k, at) in ends.enumerate() {
        if k >= 3 {
            hashes.push(hash_token(&canon[starts[k % 3]..at]));
        }
        starts[k % 3] = at;
    }
    hashes.sort_unstable();
    let mut profile: Vec<(u64, f64)> = Vec::with_capacity(hashes.len());
    for h in hashes {
        match profile.last_mut() {
            Some((last, count)) if *last == h => *count += 1.0,
            _ => profile.push((h, 1.0)),
        }
    }
    profile
}

/// Cosine of two trigram profiles. The dot product is a merge-join that
/// adds the matching products in ascending key order, as iterating an
/// ordered map of one profile and probing the other would.
fn cosine(a: &[(u64, f64)], b: &[(u64, f64)]) -> f64 {
    let mut b_iter = b.iter().peekable();
    let dot: f64 = a
        .iter()
        .filter_map(|&(k, va)| {
            while b_iter.next_if(|&&(kb, _)| kb < k).is_some() {}
            b_iter.next_if(|&&(kb, _)| kb == k).map(|&(_, vb)| va * vb)
        })
        .sum();
    let na: f64 = a.iter().map(|(_, v)| v * v).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|(_, v)| v * v).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Evidence terms for contrastive option reading: salient entities plus
/// lowercase content words of length >= 5 (after masking per-incident
/// identifiers). Lowercase words matter because discriminators are often
/// plain prose — "quarantine queue" vs "replay queue".
pub fn evidence_terms(text: &str) -> BTreeSet<String> {
    let canon = canonical(text);
    salient_tokens(text)
        .chain(content_words(&canon))
        .map(String::from)
        .collect()
}

/// Lowercase content words (length >= 5) of canonical text, with repeats.
fn content_words(canon: &str) -> impl Iterator<Item = &str> {
    canon
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|tok| tok.len() >= 5 && tok.chars().all(|c| c.is_ascii_lowercase()))
}

/// Salient entities: CamelCase identifiers plus ALL-CAPS markers and
/// snake_case metric names.
pub fn salient_entities(text: &str) -> BTreeSet<String> {
    salient_tokens(text).map(String::from).collect()
}

/// [`salient_entities`] as slices of `text`, with repeats.
fn salient_tokens(text: &str) -> impl Iterator<Item = &str> {
    let markers = text
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|tok| {
            let len = tok.len();
            (len >= 4 && tok.chars().all(|c| c.is_ascii_uppercase()))
                || (len >= 6
                    && tok.contains('_')
                    && tok.chars().all(|c| c.is_ascii_lowercase() || c == '_'))
        });
    camelcase_tokens(text).chain(markers)
}

/// Jaccard overlap of two sorted, deduplicated sets.
fn jaccard(a: &[&str], b: &[&str]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let inter = common(a, b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

fn explain_match(category: &str, shared: &[String], input: &str) -> String {
    let evidence = if shared.is_empty() {
        "the closely matching error-log narrative".to_string()
    } else {
        let mut top: Vec<&String> = shared.iter().collect();
        top.truncate(4);
        top.iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let first_line: String = input.split('.').next().unwrap_or("").trim().to_string();
    format!(
        "The incident was matched to category {category} based on the occurrence of {evidence} \
         in both the current diagnostics and the historical incident. The current incident \
         reports: \"{first_line}\", which mirrors the demonstrated failure pattern."
    )
}

fn explain_unseen(label: &str, input: &str) -> String {
    let ents = camelcase_entities(input);
    let evidence = if ents.is_empty() {
        "the failure narrative".to_string()
    } else {
        ents.iter()
            .take(3)
            .map(String::as_str)
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "The prediction of \"{label}\" was made based on the occurrence of {evidence} within \
         the diagnostic information, which does not match any provided historical incident. \
         These signals point to a previously unseen failure mode; the new category keyword \
         \"{label}\" is proposed for OCE review."
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::PromptOption;

    fn prompt(input: &str, options: &[(&str, &str)]) -> PredictionPrompt<'static> {
        PredictionPrompt::new(
            input.to_string(),
            options
                .iter()
                .map(|(s, c)| PromptOption {
                    summary: s.to_string().into(),
                    category: c.to_string().into(),
                })
                .collect(),
        )
    }

    #[test]
    fn picks_the_matching_demonstration() {
        let p = prompt(
            "The DatacenterHubOutboundProxyProbe failed twice with WinSock error 11001; total \
             UDP socket count is 15276, mostly Transport.exe.",
            &[
                (
                    "The DatacenterHubOutboundProxyProbe has failed twice on the backend \
                     machine with WinSock error 11001; UDP socket count 14923 used by \
                     Transport.exe.",
                    "HubPortExhaustion",
                ),
                (
                    "There are 62 managed threads blocked in process TransportDelivery waiting \
                     on DeliveryQueue.",
                    "DeliveryHang",
                ),
            ],
        );
        let engine = CotEngine::new(ModelProfile::Gpt4, 1);
        let pred = engine.predict(&p);
        assert_eq!(pred.label, "HubPortExhaustion");
        assert_eq!(pred.option_index, Some(0));
        assert!(!pred.unseen);
        assert!(pred.explanation.contains("HubPortExhaustion"));
        assert!(
            pred.explanation.contains("DatacenterHubOutboundProxyProbe")
                || pred.explanation.contains("WinSock")
        );
    }

    #[test]
    fn declares_unseen_when_nothing_matches() {
        let p = prompt(
            "System.IO.IOException: there is not enough space on the disk; multiple processes \
             crashed with IO exceptions in DiagnosticsLog.",
            &[
                (
                    "TLS handshake failed due to cipher suite mismatch after baseline change.",
                    "TlsHandshakeFailureCipherSuite",
                ),
                (
                    "LDAP referral chase storm across domain controllers.",
                    "LdapReferralStorm",
                ),
            ],
        );
        let engine = CotEngine::new(ModelProfile::Gpt4, 1);
        let pred = engine.predict(&p);
        assert!(pred.unseen, "confidence {}", pred.confidence);
        assert_eq!(pred.label, "I/O Bottleneck");
        assert!(pred.explanation.contains("I/O Bottleneck"));
        assert!(pred.explanation.contains("unseen"));
    }

    #[test]
    fn empty_options_always_unseen() {
        let p = prompt("anything at all", &[]);
        let engine = CotEngine::new(ModelProfile::Gpt4, 1);
        let pred = engine.predict(&p);
        assert!(pred.unseen);
        assert_eq!(pred.option_index, None);
    }

    #[test]
    fn gpt35_is_noisier_than_gpt4_but_deterministic_per_seed() {
        let p = prompt(
            "TenantSettingsNotFoundException: journaling config invalid for tenant.",
            &[
                (
                    "TenantSettingsNotFoundException raised for JournalingReportNdrTo.",
                    "InvalidJournaling",
                ),
                (
                    "InvalidConfigurationException: DlpPolicy value rejected.",
                    "ConfigInvalidDlpPolicy",
                ),
            ],
        );
        let e1 = CotEngine::new(ModelProfile::Gpt35, 5);
        let e2 = CotEngine::new(ModelProfile::Gpt35, 5);
        assert_eq!(e1.predict(&p), e2.predict(&p));
        // Noise magnitude differs across profiles.
        let n35 = CotEngine::new(ModelProfile::Gpt35, 5)
            .noise_for("x", 0)
            .abs();
        let n4 = CotEngine::new(ModelProfile::Gpt4, 5)
            .noise_for("x", 0)
            .abs();
        // Same hash stream scaled by sigma: 3.33x ratio exactly.
        assert!(n35 > n4);
    }

    #[test]
    fn salient_entities_capture_the_right_tokens() {
        let ents = salient_entities(
            "TaskCanceledException at AuthClient.GetTokenAsync; metric dependency_latency_ms \
             TIMEOUT observed",
        );
        assert!(ents.contains("TaskCanceledException"));
        assert!(ents.contains("GetTokenAsync"));
        assert!(ents.contains("dependency_latency_ms"));
        assert!(ents.contains("TIMEOUT"));
        assert!(!ents.contains("at"));
    }

    #[test]
    fn trigram_cosine_orders_similarity_sensibly() {
        let a = trigram_profile("udp socket count exhausted winsock error");
        let b = trigram_profile("winsock error udp socket exhausted on hub");
        let c = trigram_profile("certificate expired for federation endpoint");
        assert!(cosine(&a, &b) > cosine(&a, &c));
        assert!(cosine(&a, &a) > 0.999);
    }
}

/// The scoring code the single-pass features replaced, kept as the
/// oracle: every feature re-derived from the raw text wherever it is
/// read, trigram profiles in `BTreeMap`s of per-trigram `String` hashes,
/// and the noise hash over a `format!`ed string.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::prompt::PromptOption;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn reference_profile(text: &str) -> BTreeMap<u64, f64> {
        let canon = normalize(&mask_entities(text));
        let chars: Vec<char> = canon.chars().collect();
        let mut map: BTreeMap<u64, f64> = BTreeMap::new();
        if chars.len() < 3 {
            return map;
        }
        for w in chars.windows(3) {
            let g: String = w.iter().collect();
            *map.entry(hash_token(&g)).or_insert(0.0) += 1.0;
        }
        map
    }

    fn reference_cosine(a: &BTreeMap<u64, f64>, b: &BTreeMap<u64, f64>) -> f64 {
        let dot: f64 = a
            .iter()
            .filter_map(|(k, va)| b.get(k).map(|vb| va * vb))
            .sum();
        let na: f64 = a.values().map(|v| v * v).sum::<f64>().sqrt();
        let nb: f64 = b.values().map(|v| v * v).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }

    fn reference_salient_entities(text: &str) -> BTreeSet<String> {
        let mut set: BTreeSet<String> = camelcase_entities(text).into_iter().collect();
        for tok in text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
            let len = tok.len();
            if len >= 4 && tok.chars().all(|c| c.is_ascii_uppercase()) {
                set.insert(tok.to_string());
            }
            if len >= 6
                && tok.contains('_')
                && tok.chars().all(|c| c.is_ascii_lowercase() || c == '_')
            {
                set.insert(tok.to_string());
            }
        }
        set
    }

    fn reference_evidence_terms(text: &str) -> BTreeSet<String> {
        let mut set = reference_salient_entities(text);
        let canon = normalize(&mask_entities(text));
        for tok in canon.split(|c: char| !c.is_ascii_alphanumeric()) {
            if tok.len() >= 5 && tok.chars().all(|c| c.is_ascii_lowercase()) {
                set.insert(tok.to_string());
            }
        }
        set
    }

    fn reference_jaccard(a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 0.0;
        }
        let inter = a.intersection(b).count() as f64;
        let union = a.union(b).count() as f64;
        inter / union
    }

    fn reference_scores(prompt: &PredictionPrompt<'_>) -> Vec<(f64, f64, f64, f64)> {
        let query_tri = reference_profile(&prompt.input);
        let query_ents = reference_salient_entities(&prompt.input);
        let query_terms = reference_evidence_terms(&prompt.input);
        let option_terms: Vec<BTreeSet<String>> = prompt
            .options
            .iter()
            .map(|o| reference_evidence_terms(&o.summary))
            .collect();
        let mut term_counts: BTreeMap<&str, usize> = BTreeMap::new();
        for terms in &option_terms {
            for t in terms {
                *term_counts.entry(t.as_str()).or_insert(0) += 1;
            }
        }
        let shared: BTreeSet<&str> = term_counts
            .iter()
            .filter(|(_, &c)| c > 1)
            .map(|(&t, _)| t)
            .collect();
        let query_distinct: BTreeSet<&str> = query_terms
            .iter()
            .map(String::as_str)
            .filter(|t| !shared.contains(t))
            .collect();
        prompt
            .options
            .iter()
            .enumerate()
            .map(|(i, opt)| {
                let cos = reference_cosine(&query_tri, &reference_profile(&opt.summary));
                let jac = reference_jaccard(&query_ents, &reference_salient_entities(&opt.summary));
                let unique: BTreeSet<&str> = option_terms[i]
                    .iter()
                    .map(String::as_str)
                    .filter(|t| !shared.contains(t))
                    .collect();
                let inter = unique.intersection(&query_distinct).count();
                let denom = ((unique.len() * query_distinct.len()) as f64).sqrt();
                let contrastive = if denom == 0.0 {
                    0.0
                } else {
                    inter as f64 / denom
                };
                (
                    0.25 * cos + 0.20 * jac + 0.55 * contrastive,
                    cos,
                    jac,
                    contrastive,
                )
            })
            .collect()
    }

    fn reference_noise(engine: &CotEngine, input: &str, option_index: usize) -> f64 {
        let sigma = engine.profile.noise();
        if sigma == 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for salt in 0..3u64 {
            let h = hash_token(&format!(
                "{}|{}|{}|{}",
                engine.seed, option_index, salt, input
            ));
            acc += (h % 1_000_000) as f64 / 1_000_000.0 - 0.5;
        }
        acc * sigma * 2.0
    }

    fn reference_predict(engine: &CotEngine, prompt: &PredictionPrompt<'_>) -> Prediction {
        let query_ents = reference_salient_entities(&prompt.input);
        let prompt_chars: usize = prompt.input.len()
            + prompt
                .options
                .iter()
                .map(|o| o.summary.len())
                .sum::<usize>();
        let approx_tokens = prompt_chars as f64 / 4.0 * engine.profile.length_sensitivity();
        let length_factor =
            (1.0 + approx_tokens / 1500.0 + (approx_tokens / 1800.0).powi(2)).min(12.0);
        let scores = reference_scores(prompt);
        let mut best: Option<(usize, f64, f64)> = None;
        for (i, &(clean, _, _, _)) in scores.iter().enumerate() {
            let noisy = clean + reference_noise(engine, &prompt.input, i) * length_factor;
            if best.is_none_or(|(_, bn, _)| noisy > bn) {
                best = Some((i, noisy, clean));
            }
        }
        let best_is_generic = best.is_some_and(|(idx, _, clean)| {
            let (_, cos, _, contrastive) = scores[idx];
            contrastive < 0.02 && cos < 0.80 && clean < 0.45
        });
        match best {
            Some((idx, noisy, _))
                if noisy >= engine.profile.unseen_threshold() && !best_is_generic =>
            {
                let option = &prompt.options[idx];
                let shared: Vec<String> = query_ents
                    .intersection(&reference_salient_entities(&option.summary))
                    .cloned()
                    .collect();
                Prediction {
                    label: option.category.to_string(),
                    option_index: Some(idx),
                    unseen: false,
                    confidence: noisy,
                    explanation: explain_match(&option.category, &shared, &prompt.input),
                }
            }
            best_or_none => {
                let label = synthesize_label(&prompt.input);
                let confidence = best_or_none.map_or(0.0, |(_, n, _)| n);
                let explanation = explain_unseen(&label, &prompt.input);
                Prediction {
                    label,
                    option_index: None,
                    unseen: true,
                    confidence,
                    explanation,
                }
            }
        }
    }

    fn bits(scores: &[(f64, f64, f64, f64)]) -> Vec<[u64; 4]> {
        scores
            .iter()
            .map(|s| [s.0.to_bits(), s.1.to_bits(), s.2.to_bits(), s.3.to_bits()])
            .collect()
    }

    /// Words that exercise every feature: CamelCase and ALL-CAPS
    /// entities, snake_case metrics, masked machine names, hex ids and
    /// numbers, long content words, and non-ASCII text.
    const WORDS: &[&str] = &[
        "TenantSettingsNotFoundException",
        "DatacenterHubOutboundProxyProbe",
        "WinSock",
        "TIMEOUT",
        "NXDOMAIN",
        "dependency_latency_ms",
        "NAMPR03MB1234",
        "3fa85f64-5717",
        "15276",
        "11001",
        "socket",
        "exhausted",
        "transport",
        "quarantine",
        "queue",
        "failed",
        "on",
        "the",
        "ΣΑΣ",
        "straße",
        "İstanbul",
        "key=value",
        "(11/21/2022)",
        "a",
        "",
    ];

    fn text(picks: &[usize]) -> String {
        picks
            .iter()
            .map(|&i| WORDS[i % WORDS.len()])
            .collect::<Vec<_>>()
            .join(" ")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn scores_and_predictions_match_reference_bit_for_bit(
            input in proptest::collection::vec(0usize..64, 0..24),
            options in proptest::collection::vec(proptest::collection::vec(0usize..64, 0..16), 0..7),
            seed in 0u64..1_000,
            gpt4 in proptest::sample::select(vec![true, false]),
        ) {
            let prompt = PredictionPrompt::new(
                text(&input),
                options
                    .iter()
                    .enumerate()
                    .map(|(i, o)| PromptOption {
                        summary: text(o).into(),
                        category: format!("Cat{i}").into(),
                    })
                    .collect(),
            );
            let profile = if gpt4 { ModelProfile::Gpt4 } else { ModelProfile::Gpt35 };
            let engine = CotEngine::new(profile, seed);
            prop_assert_eq!(
                bits(&engine.option_scores(&prompt)),
                bits(&reference_scores(&prompt))
            );
            let fast = engine.predict(&prompt);
            let slow = reference_predict(&engine, &prompt);
            prop_assert_eq!(fast.confidence.to_bits(), slow.confidence.to_bits());
            prop_assert_eq!(fast, slow);
            for i in 0..options.len() {
                prop_assert_eq!(
                    engine.noise_for(&prompt.input, i).to_bits(),
                    reference_noise(&engine, &prompt.input, i).to_bits()
                );
            }
        }
    }

    #[test]
    fn matched_predictions_match_reference() {
        // An option restating the input wins, so the explanation path
        // that cites shared entities is compared too.
        let input = text(&[0, 2, 3, 5, 6, 9, 11, 13, 18]);
        let mut matched = 0;
        for seed in 0..40 {
            let prompt = PredictionPrompt::new(
                input.clone(),
                vec![
                    PromptOption {
                        summary: text(&[1, 4, 10, 12, 14, 15]).into(),
                        category: "Other".into(),
                    },
                    PromptOption {
                        summary: text(&[0, 2, 3, 5, 7, 9, 11, 13, 19]).into(),
                        category: "Same".into(),
                    },
                ],
            );
            let engine = CotEngine::new(ModelProfile::Gpt35, seed);
            let fast = engine.predict(&prompt);
            assert_eq!(
                fast.confidence.to_bits(),
                reference_predict(&engine, &prompt).confidence.to_bits()
            );
            assert_eq!(fast, reference_predict(&engine, &prompt));
            matched += usize::from(!fast.unseen);
        }
        assert!(matched > 0);
    }

    #[test]
    fn entity_and_term_sets_match_reference() {
        let all = text(&(0..WORDS.len()).collect::<Vec<_>>());
        for t in [
            all.as_str(),
            "",
            "GetTokenAsync at AuthClient.GetTokenAsync TIMEOUT_ms",
        ] {
            assert_eq!(salient_entities(t), reference_salient_entities(t));
            assert_eq!(evidence_terms(t), reference_evidence_terms(t));
        }
    }

    #[test]
    fn trigram_profile_matches_reference_map() {
        for text in [
            "",
            "ab",
            "abc",
            "ΣΑΣ σας",
            "udp socket count on NAMPR03MB1234 ﬃ",
        ] {
            let fast = trigram_profile(&normalize(&mask_entities(text)));
            let slow: Vec<(u64, f64)> = reference_profile(text).into_iter().collect();
            assert_eq!(fast, slow, "{text:?}");
        }
    }
}
