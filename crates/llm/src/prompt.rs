//! Prompt structures mirroring the paper's Figures 7 and 9.

use rcacopilot_textkit::bpe::BpeTokenizer;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt::Write;

/// Token budget of the simulated model's context window (the paper uses
/// GPT-4 with an 8K window).
pub const CONTEXT_TOKENS: usize = 8192;

/// The summarization prompt (paper Figure 7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryPrompt {
    /// The diagnostic information to summarize.
    pub diagnostic_info: String,
}

impl SummaryPrompt {
    /// Renders the full prompt text.
    pub fn render(&self) -> String {
        format!(
            "{}\n\nPlease summarize the above input. Please note that the above input is \
             incident diagnostic information. The summary results should be about 120 words, \
             no more than 140 words, and should cover important information as much as \
             possible. Just return the summary without any additional output.",
            self.diagnostic_info
        )
    }
}

/// One lettered option of the prediction prompt.
///
/// Fields are `Cow`s so the retrieval → prompt hot path can borrow the
/// historical entries' summaries and categories directly instead of
/// cloning one `String` pair per retrieved neighbor per prediction;
/// owned construction (tests, ad-hoc prompts) still works via `.into()`.
#[derive(Debug, Clone, PartialEq)]
pub struct PromptOption<'a> {
    /// Summarized diagnostic information of the historical incident.
    pub summary: Cow<'a, str>,
    /// Its labeled root cause category.
    pub category: Cow<'a, str>,
}

impl PromptOption<'_> {
    /// Detaches the option from whatever it borrows.
    pub fn into_owned(self) -> PromptOption<'static> {
        PromptOption {
            summary: Cow::Owned(self.summary.into_owned()),
            category: Cow::Owned(self.category.into_owned()),
        }
    }
}

/// The prediction prompt (paper Figure 9): the current incident plus top-K
/// historical demonstrations from distinct categories, with option A fixed
/// as "Unseen incident".
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionPrompt<'a> {
    /// Summarized diagnostic information of the incident being predicted.
    pub input: Cow<'a, str>,
    /// Demonstration options (B, C, ... in render order).
    pub options: Vec<PromptOption<'a>>,
    /// Degradation annotation injected when the collection stage ran
    /// with incomplete diagnostics (fault-injected telemetry). `None` on
    /// the fault-free path, which keeps the rendered prompt byte-for-byte
    /// identical to the historical format.
    pub degradation_note: Option<String>,
}

impl<'a> PredictionPrompt<'a> {
    /// Creates a prompt with no degradation annotation.
    pub fn new(input: impl Into<Cow<'a, str>>, options: Vec<PromptOption<'a>>) -> Self {
        PredictionPrompt {
            input: input.into(),
            options,
            degradation_note: None,
        }
    }

    /// Renders the full prompt text in the Figure 9 format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_head(&mut out);
        for (i, opt) in self.options.iter().enumerate() {
            write_option(&mut out, i, opt);
        }
        out
    }

    /// Everything before the demonstration options: context, input,
    /// degradation note and option A. Ends in a newline.
    fn write_head(&self, out: &mut String) {
        out.push_str(
            "Context: The following description shows the error log information of an \
             incident. Please select the incident information that is most likely to have \
             the same root cause and give your explanation (just give one answer). If not, \
             please select the first item \"Unseen incident\".\n\n",
        );
        out.push_str("Input: ");
        out.push_str(&self.input);
        if let Some(note) = &self.degradation_note {
            out.push_str("\n\nData completeness warning: ");
            out.push_str(note);
        }
        out.push_str("\n\nOptions:\nA: Unseen incident.\n");
    }

    /// Counts prompt tokens with `tokenizer` (the tiktoken substitute).
    pub fn token_count(&self, tokenizer: &BpeTokenizer) -> usize {
        tokenizer.count_tokens(&self.render())
    }

    /// Drops trailing options until the prompt fits `budget` tokens.
    /// Returns the number of options removed.
    ///
    /// The head and every option line end in a newline, and a BPE count
    /// is additive over whitespace words, so the prompt's count is the
    /// head's plus each remaining line's: each is counted once, and no
    /// rendering happens per dropped option.
    pub fn truncate_to_budget(&mut self, tokenizer: &BpeTokenizer, budget: usize) -> usize {
        let mut text = String::new();
        self.write_head(&mut text);
        let mut total = tokenizer.count_tokens(&text);
        let mut line_tokens = Vec::with_capacity(self.options.len());
        for (i, opt) in self.options.iter().enumerate() {
            text.clear();
            write_option(&mut text, i, opt);
            let n = tokenizer.count_tokens(&text);
            line_tokens.push(n);
            total += n;
        }
        let mut dropped = 0;
        while self.options.len() > 1 && total > budget {
            self.options.pop();
            total -= line_tokens[self.options.len()];
            dropped += 1;
        }
        dropped
    }
}

/// Appends option line `i` (label `B` onward). Ends in a newline.
fn write_option(out: &mut String, i: usize, opt: &PromptOption<'_>) {
    // Single letters cover the normal K <= 25 case; larger option lists
    // (possible before budget truncation) get numbered labels instead of
    // overflowing the alphabet.
    if i < 25 {
        out.push((b'B' + i as u8) as char);
    } else {
        let _ = write!(out, "Option{}", i + 1);
    }
    out.push_str(": ");
    out.push_str(&opt.summary);
    out.push_str(" category: ");
    out.push_str(&opt.category);
    out.push_str(".\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokenizer() -> BpeTokenizer {
        BpeTokenizer::train(
            &[
                "incident diagnostic summary category unseen option".to_string(),
                "udp socket exhausted probe failed".to_string(),
            ],
            300,
        )
    }

    fn prompt() -> PredictionPrompt<'static> {
        PredictionPrompt::new(
            "The probe has failed twice with a WinSock 11001 error.",
            vec![
                PromptOption {
                    summary: "The DatacenterHubOutboundProxyProbe has failed twice".into(),
                    category: "HubPortExhaustion".into(),
                },
                PromptOption {
                    summary: "There are 62 managed threads in process TransportDelivery".into(),
                    category: "AuthCertIssue".into(),
                },
            ],
        )
    }

    #[test]
    fn render_matches_figure9_shape() {
        let text = prompt().render();
        assert!(text.starts_with("Context:"));
        assert!(text.contains("give your explanation"));
        assert!(text.contains("A: Unseen incident."));
        assert!(text.contains("B: The DatacenterHubOutboundProxyProbe"));
        assert!(text.contains("category: HubPortExhaustion."));
        assert!(text.contains("C: There are 62 managed threads"));
    }

    #[test]
    fn degradation_note_renders_between_input_and_options() {
        let clean = prompt().render();
        assert!(!clean.contains("Data completeness warning"));
        let mut p = prompt();
        p.degradation_note =
            Some("1 of 3 diagnostic sections unavailable (sources: probes)".into());
        let text = p.render();
        let input = text.find("Input:").unwrap();
        let note = text.find("Data completeness warning: 1 of 3").unwrap();
        let options = text.find("Options:").unwrap();
        assert!(input < note && note < options);
    }

    #[test]
    fn summary_prompt_matches_figure7_wording() {
        let p = SummaryPrompt {
            diagnostic_info: "probe failed".into(),
        };
        let text = p.render();
        assert!(text.contains("about 120 words, no more than 140 words"));
        assert!(text.starts_with("probe failed"));
    }

    #[test]
    fn token_budget_truncation_drops_trailing_options() {
        let tok = tokenizer();
        let mut p = prompt();
        for i in 0..30 {
            p.options.push(PromptOption {
                summary: format!("padding incident summary number {i} with several words").into(),
                category: format!("Cat{i}").into(),
            });
        }
        let full = p.token_count(&tok);
        let dropped = p.truncate_to_budget(&tok, full / 2);
        assert!(dropped > 0);
        assert!(p.token_count(&tok) <= full / 2);
        assert!(!p.options.is_empty());
    }

    /// The budget loop `truncate_to_budget` replaced, kept as the
    /// oracle: re-render and re-count the whole prompt after every pop.
    fn reference_truncate(
        p: &mut PredictionPrompt<'_>,
        tok: &BpeTokenizer,
        budget: usize,
    ) -> usize {
        let mut dropped = 0;
        while p.options.len() > 1 && p.token_count(tok) > budget {
            p.options.pop();
            dropped += 1;
        }
        dropped
    }

    #[test]
    fn one_pass_truncation_matches_recount_for_every_budget() {
        for note in [
            None,
            Some("2 of 3 diagnostic sections unavailable (sources: Ωprobes)"),
        ] {
            let mut full = prompt();
            full.degradation_note = note.map(String::from);
            // 28 options: labels run past `Z` into `Option26`..`Option28`.
            for i in 0..26 {
                full.options.push(PromptOption {
                    summary: format!("udp probe {i} failed; unseen-word{} ΣΑΣ", i * 7).into(),
                    category: format!("Cat{i}").into(),
                });
            }
            let text = full.render();
            assert!(text.contains("Option28: "));
            // Trained on the prompt minus one option, as the pipeline's
            // tokenizer is trained on the demonstrations: most words hit
            // the word table, the last option's take the merge loop.
            let seen = text[..text.find("Option28: ").unwrap()].to_string();
            let tok = BpeTokenizer::train(&[seen], 300);
            let count = full.token_count(&tok);
            for budget in 1..=count {
                let mut fast = full.clone();
                let mut slow = full.clone();
                let dropped = fast.truncate_to_budget(&tok, budget);
                assert_eq!(
                    dropped,
                    reference_truncate(&mut slow, &tok, budget),
                    "budget {budget}"
                );
                assert_eq!(fast, slow, "budget {budget}");
            }
        }
    }

    #[test]
    fn truncation_never_removes_last_option() {
        let tok = tokenizer();
        let mut p = prompt();
        p.options.truncate(1);
        let dropped = p.truncate_to_budget(&tok, 1);
        assert_eq!(dropped, 0);
        assert_eq!(p.options.len(), 1);
    }
}
