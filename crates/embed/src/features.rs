//! Hashed feature extraction for FastText-style models.

use rcacopilot_textkit::ngram::{bucket_of_hash, hash_bytes, Fnv1a};
use rcacopilot_textkit::normalize::{mask_entities, normalize, tokenize};
use serde::{Deserialize, Serialize};

/// Turns raw text into hashed feature-bucket indices.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureExtractor {
    /// Number of hash buckets (rows of the embedding table).
    pub buckets: usize,
    /// Minimum character n-gram length.
    pub min_n: usize,
    /// Maximum character n-gram length.
    pub max_n: usize,
    /// Maximum word n-gram order (1 = unigrams only).
    pub word_ngrams: usize,
    /// Whether to mask per-incident entities before tokenizing.
    pub mask: bool,
}

impl Default for FeatureExtractor {
    fn default() -> Self {
        FeatureExtractor {
            buckets: 1 << 15,
            min_n: 3,
            max_n: 5,
            word_ngrams: 2,
            mask: true,
        }
    }
}

impl FeatureExtractor {
    /// Extracts the bucket indices of all features of `text`.
    ///
    /// Features: word n-grams up to `word_ngrams`, plus character n-grams
    /// of each word (FastText's subword trick). Duplicates are kept —
    /// frequency matters for the averaged representation.
    ///
    /// Each n-gram is hashed from slices of its tokens, never built as a
    /// string: a word n-gram hashes as its tokens joined by `_`, a
    /// character n-gram as its window of `<token>`. Order is the one the
    /// averaging in [`crate::FastTextModel::embed`] sums in: word n-grams
    /// by order then position, then each token's character n-grams by
    /// length then position.
    pub fn extract(&self, text: &str) -> Vec<usize> {
        let canon = if self.mask {
            normalize(&mask_entities(text))
        } else {
            normalize(text)
        };
        let tokens = tokenize(&canon);
        let mut out = Vec::with_capacity(tokens.len() * 6);
        for n in 1..=self.word_ngrams.min(tokens.len()) {
            for gram in tokens.windows(n) {
                let mut h = Fnv1a::new();
                h.write(gram[0].as_bytes());
                for tok in &gram[1..] {
                    h.write(b"_");
                    h.write(tok.as_bytes());
                }
                out.push(bucket_of_hash(h.finish(), self.buckets));
            }
        }
        let mut padded: Vec<u8> = Vec::new();
        for tok in &tokens {
            // Placeholders (<machine>, <num>, ...) carry no subword signal.
            if tok.starts_with('<') {
                continue;
            }
            // Other tokens are ASCII, so byte windows are char windows.
            debug_assert!(tok.is_ascii(), "tokenize yields ASCII words");
            padded.clear();
            padded.push(b'<');
            padded.extend_from_slice(tok.as_bytes());
            padded.push(b'>');
            for n in self.min_n..=self.max_n.min(padded.len()) {
                for start in 0..=padded.len() - n {
                    let gram = &padded[start..start + n];
                    out.push(bucket_of_hash(hash_bytes(gram), self.buckets));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcacopilot_textkit::ngram::bucket_of;

    #[test]
    fn extract_is_deterministic_and_in_range() {
        let fx = FeatureExtractor::default();
        let a = fx.extract("UDP socket count exhausted on NAMPR03FD0001");
        let b = fx.extract("UDP socket count exhausted on NAMPR03FD0001");
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.iter().all(|&i| i < fx.buckets));
    }

    #[test]
    fn masking_makes_machine_names_irrelevant() {
        let fx = FeatureExtractor::default();
        let a = fx.extract("probe failed on NAMPR03FD0001 with WinSock 11001");
        let b = fx.extract("probe failed on EURPR07FD0002 with WinSock 11001");
        assert_eq!(a, b, "masked machine names must not change features");
        let fx_raw = FeatureExtractor {
            mask: false,
            ..FeatureExtractor::default()
        };
        let c = fx_raw.extract("probe failed on NAMPR03FD0001 with WinSock 11001");
        let d = fx_raw.extract("probe failed on EURPR07FD0002 with WinSock 11001");
        assert_ne!(c, d);
    }

    #[test]
    fn similar_texts_share_features() {
        let fx = FeatureExtractor::default();
        let a: std::collections::BTreeSet<usize> = fx
            .extract("TenantSettingsNotFoundException in journaling")
            .into_iter()
            .collect();
        let b: std::collections::BTreeSet<usize> = fx
            .extract("TenantSettingsNotFoundException in submission")
            .into_iter()
            .collect();
        let c: std::collections::BTreeSet<usize> =
            fx.extract("UDP hub ports exhausted").into_iter().collect();
        let ab = a.intersection(&b).count();
        let ac = a.intersection(&c).count();
        assert!(
            ab > ac * 2,
            "related texts should share more buckets ({ab} vs {ac})"
        );
    }

    #[test]
    fn ngrams_join_words_and_pad_characters() {
        let fx = FeatureExtractor {
            buckets: 1 << 20,
            min_n: 2,
            max_n: 4,
            word_ngrams: 2,
            mask: false,
        };
        let b = |gram: &str| bucket_of(gram, fx.buckets);
        let expected: Vec<usize> = [
            "udp", "io", "udp_io", // word n-grams, `_`-joined
            "<u", "ud", "dp", "p>", "<ud", "udp", "dp>", "<udp", "udp>", // `<udp>`
            "<i", "io", "o>", "<io", "io>", "<io>", // `<io>`: stops at its length
        ]
        .iter()
        .map(|g| b(g))
        .collect();
        assert_eq!(fx.extract("UDP io"), expected);
    }

    /// Character n-grams of `<word>` as strings, for every `n` in
    /// `min_n..=max_n` that fits.
    fn reference_char_ngrams(word: &str, min_n: usize, max_n: usize) -> Vec<String> {
        let padded: Vec<char> = std::iter::once('<')
            .chain(word.chars())
            .chain(std::iter::once('>'))
            .collect();
        let mut grams = Vec::new();
        for n in min_n..=max_n {
            if padded.len() < n {
                break;
            }
            for start in 0..=(padded.len() - n) {
                grams.push(padded[start..start + n].iter().collect());
            }
        }
        grams
    }

    /// Word n-grams as `_`-joined strings for every `n` in `1..=max_n`.
    fn reference_word_ngrams(tokens: &[String], max_n: usize) -> Vec<String> {
        let mut grams = Vec::new();
        for n in 1..=max_n {
            if tokens.len() < n {
                break;
            }
            for start in 0..=(tokens.len() - n) {
                grams.push(tokens[start..start + n].join("_"));
            }
        }
        grams
    }

    /// The composition `extract` replaced, kept as the oracle: every
    /// n-gram built as a `String`, then hashed.
    fn reference_extract(fx: &FeatureExtractor, text: &str) -> Vec<usize> {
        let canon = if fx.mask {
            normalize(&mask_entities(text))
        } else {
            normalize(text)
        };
        let tokens = tokenize(&canon);
        let mut out = Vec::new();
        for gram in reference_word_ngrams(&tokens, fx.word_ngrams) {
            out.push(bucket_of(&gram, fx.buckets));
        }
        for tok in &tokens {
            if tok.starts_with('<') {
                continue;
            }
            for gram in reference_char_ngrams(tok, fx.min_n, fx.max_n) {
                out.push(bucket_of(&gram, fx.buckets));
            }
        }
        out
    }

    #[test]
    fn extract_matches_reference_at_edge_settings() {
        let text = "Probe on NAMPR03MB1234 failed: a <b> io_err ΣΑΣ x=1 <num>";
        for (min_n, max_n, word_ngrams) in [(0, 2, 0), (1, 1, 1), (3, 5, 2), (4, 9, 4), (5, 3, 3)] {
            for mask in [true, false] {
                let fx = FeatureExtractor {
                    buckets: 97,
                    min_n,
                    max_n,
                    word_ngrams,
                    mask,
                };
                assert_eq!(fx.extract(text), reference_extract(&fx, text));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn extract_matches_reference(
            text in "[a-zA-Z0-9 _.:=<>/()ΣΑß-]{0,90}",
            mask in proptest::sample::select(vec![true, false]),
        ) {
            let fx = FeatureExtractor {
                mask,
                ..FeatureExtractor::default()
            };
            proptest::prop_assert_eq!(fx.extract(&text), reference_extract(&fx, &text));
        }
    }

    #[test]
    fn empty_text_yields_no_features() {
        let fx = FeatureExtractor::default();
        assert!(fx.extract("").is_empty());
        assert!(fx.extract("   \n\t ").is_empty());
    }
}
