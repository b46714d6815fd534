//! A byte-pair-encoding tokenizer — the reproduction's `tiktoken`.
//!
//! The paper uses tiktoken only to *count* tokens (the summarizer's
//! 120–140-word budget, the prompt-length limits) and the simulated LLM
//! needs a stable subword id space. This is a classic BPE trained on a
//! corpus: start from characters, repeatedly merge the most frequent
//! adjacent symbol pair until the target vocabulary size is reached.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// End-of-word marker appended during training/encoding, so that merges do
/// not cross word boundaries and suffixes tokenize consistently.
const EOW: char = '\u{1}';

/// A trained BPE tokenizer.
///
/// Encoding is per whitespace word, so a word's ids depend on nothing but
/// its lowercased text. `train` therefore encodes every training word
/// once into `words`, and `encode`/`count_tokens` look words up there,
/// running the merge loop only for words the corpus never contained.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BpeTokenizer {
    /// Symbol table: id → symbol string.
    symbols: Vec<String>,
    /// `(code point, id)` of every single-character symbol, sorted.
    chars: Vec<(u32, u32)>,
    /// Merge rules `((left id, right id), (priority, merged id))`, sorted
    /// by pair for binary search.
    merges: Vec<((u32, u32), (u32, u32))>,
    /// Lowercased training word → its ids (EOW included).
    words: HashMap<String, Vec<u32>>,
}

impl BpeTokenizer {
    /// Trains a tokenizer on `corpus`, stopping at `vocab_size` symbols or
    /// when no pair occurs at least twice.
    ///
    /// # Panics
    ///
    /// Panics if `vocab_size` is zero.
    pub fn train(corpus: &[String], vocab_size: usize) -> Self {
        assert!(vocab_size > 0, "vocab_size must be positive");
        let mut tok = BpeTokenizer::default();
        // Symbol string → id, for interning.
        let mut ids: BTreeMap<String, u32> = BTreeMap::new();

        // Word frequency table over lowercased whitespace words.
        let mut word_freq: BTreeMap<String, u64> = BTreeMap::new();
        for doc in corpus {
            for w in doc.split_whitespace() {
                *word_freq.entry(w.to_lowercase()).or_insert(0) += 1;
            }
        }

        // Seed the symbol table with single characters (+ EOW).
        let mut char_set: Vec<char> = word_freq
            .keys()
            .flat_map(|w| w.chars())
            .collect::<std::collections::BTreeSet<char>>()
            .into_iter()
            .collect();
        char_set.push(EOW);
        for c in char_set {
            intern(&mut tok.symbols, &mut ids, c.to_string());
        }
        // Merged symbols are two characters or longer, so these are all
        // the single-character symbols.
        tok.chars = ids
            .iter()
            .filter_map(|(sym, &id)| sym.chars().next().map(|c| (u32::from(c), id)))
            .collect();
        tok.chars.sort_unstable();

        // Represent each distinct word as a symbol-id sequence.
        let mut words: Vec<(Vec<u32>, u64)> = word_freq
            .iter()
            .map(|(w, f)| {
                let mut seq = Vec::new();
                tok.symbolize(w, &mut seq);
                (seq, *f)
            })
            .collect();

        // A pair merged twice (its merged symbol re-created by another
        // route) keeps its last priority.
        let mut merges: BTreeMap<(u32, u32), (u32, u32)> = BTreeMap::new();
        let mut priority = 0u32;
        while tok.symbols.len() < vocab_size {
            // Count adjacent pairs.
            let mut pair_freq: HashMap<(u32, u32), u64> = HashMap::new();
            for (seq, f) in &words {
                for win in seq.windows(2) {
                    *pair_freq.entry((win[0], win[1])).or_insert(0) += f;
                }
            }
            // Deterministic best pair: max frequency, ties by pair ids.
            let Some((&best_pair, &best_freq)) = pair_freq
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            else {
                break;
            };
            if best_freq < 2 {
                break;
            }
            let merged_sym = format!(
                "{}{}",
                tok.symbols[best_pair.0 as usize], tok.symbols[best_pair.1 as usize]
            );
            let merged_id = intern(&mut tok.symbols, &mut ids, merged_sym);
            merges.insert(best_pair, (priority, merged_id));
            priority += 1;

            // Apply the merge to every word.
            for (seq, _) in &mut words {
                let mut out = Vec::with_capacity(seq.len());
                let mut i = 0;
                while i < seq.len() {
                    if i + 1 < seq.len() && (seq[i], seq[i + 1]) == best_pair {
                        out.push(merged_id);
                        i += 2;
                    } else {
                        out.push(seq[i]);
                        i += 1;
                    }
                }
                *seq = out;
            }
        }
        tok.merges = merges.into_iter().collect();

        // Encode every training word with the same merge loop `encode`
        // runs, so a table hit is exactly what the loop would produce.
        let (mut seq, mut ranks) = (Vec::new(), Vec::new());
        for w in word_freq.into_keys() {
            tok.encode_word(&w, &mut seq, &mut ranks);
            tok.words.insert(w, seq.clone());
        }
        tok
    }

    /// Number of symbols in the vocabulary.
    pub fn vocab_size(&self) -> usize {
        self.symbols.len()
    }

    /// The id of the single-character symbol `c`, if any.
    fn char_id(&self, c: char) -> Option<u32> {
        let at = self
            .chars
            .binary_search_by_key(&u32::from(c), |&(cp, _)| cp)
            .ok()?;
        Some(self.chars[at].1)
    }

    /// The `(priority, merged id)` rule for the adjacent pair `(left, right)`.
    fn merge_of(&self, left: u32, right: u32) -> Option<(u32, u32)> {
        let at = self
            .merges
            .binary_search_by_key(&(left, right), |&(pair, _)| pair)
            .ok()?;
        Some(self.merges[at].1)
    }

    /// Writes the character ids of the lowercased word `lower` plus EOW
    /// into `seq`, skipping characters outside the vocabulary.
    fn symbolize(&self, lower: &str, seq: &mut Vec<u32>) {
        seq.clear();
        seq.extend(lower.chars().filter_map(|c| self.char_id(c)));
        seq.extend(self.char_id(EOW));
    }

    /// Encodes the lowercased word `lower` into `seq` by repeatedly
    /// applying the highest-priority applicable merge, the leftmost one
    /// on ties. `ranks` is scratch space holding each adjacent pair's
    /// rule; a merge only changes the rules of its two neighbours.
    fn encode_word(&self, lower: &str, seq: &mut Vec<u32>, ranks: &mut Vec<Option<(u32, u32)>>) {
        self.symbolize(lower, seq);
        ranks.clear();
        ranks.extend(seq.windows(2).map(|w| self.merge_of(w[0], w[1])));
        loop {
            let mut best: Option<(u32, usize, u32)> = None; // (priority, pos, merged)
            for (pos, rank) in ranks.iter().enumerate() {
                if let Some((prio, merged)) = *rank {
                    if best.is_none_or(|(bp, _, _)| prio < bp) {
                        best = Some((prio, pos, merged));
                    }
                }
            }
            let Some((_, pos, merged)) = best else { break };
            seq[pos] = merged;
            seq.remove(pos + 1);
            ranks.remove(pos);
            if pos > 0 {
                ranks[pos - 1] = self.merge_of(seq[pos - 1], seq[pos]);
            }
            if pos < ranks.len() {
                ranks[pos] = self.merge_of(seq[pos], seq[pos + 1]);
            }
        }
    }

    /// Calls `f` with the ids of each whitespace word of `text`, in order.
    fn for_each_word(&self, text: &str, mut f: impl FnMut(&[u32])) {
        let mut lower = String::new();
        let (mut seq, mut ranks) = (Vec::new(), Vec::new());
        for word in text.split_whitespace() {
            lower.clear();
            if word.is_ascii() {
                lower.push_str(word);
                lower.make_ascii_lowercase();
            } else {
                // Full Unicode lowercasing of the whole word keeps its
                // context rules (a word-final 'Σ' becomes 'ς').
                lower.push_str(&word.to_lowercase());
            }
            match self.words.get(lower.as_str()) {
                Some(ids) => f(ids),
                None => {
                    self.encode_word(&lower, &mut seq, &mut ranks);
                    f(&seq);
                }
            }
        }
    }

    /// Encodes `text` into symbol ids. Unknown characters are skipped.
    pub fn encode(&self, text: &str) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_word(text, |ids| out.extend_from_slice(ids));
        out
    }

    /// Number of BPE tokens in `text` — the reproduction's token counter.
    /// Additive over whitespace words: text split at whitespace counts
    /// as the sum of its parts.
    pub fn count_tokens(&self, text: &str) -> usize {
        let mut n = 0;
        self.for_each_word(text, |ids| n += ids.len());
        n
    }

    /// Decodes ids back to a string (words separated by single spaces).
    pub fn decode(&self, ids: &[u32]) -> String {
        let mut out = String::new();
        for &id in ids {
            if let Some(sym) = self.symbols.get(id as usize) {
                for c in sym.chars() {
                    if c == EOW {
                        out.push(' ');
                    } else {
                        out.push(c);
                    }
                }
            }
        }
        out.trim_end().to_string()
    }

    /// The symbol string of id, if valid.
    pub fn symbol(&self, id: u32) -> Option<&str> {
        self.symbols.get(id as usize).map(String::as_str)
    }
}

/// The id of `sym`, adding it to the symbol table if new.
fn intern(symbols: &mut Vec<String>, ids: &mut BTreeMap<String, u32>, sym: String) -> u32 {
    if let Some(&id) = ids.get(&sym) {
        return id;
    }
    let id = symbols.len() as u32;
    symbols.push(sym.clone());
    ids.insert(sym, id);
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<String> {
        vec![
            "the transport process failed failed failed".to_string(),
            "transport process restarted".to_string(),
            "socket socket socket exception in transport".to_string(),
        ]
    }

    #[test]
    fn training_reaches_target_or_exhausts_merges() {
        let tok = BpeTokenizer::train(&corpus(), 200);
        assert!(tok.vocab_size() <= 200);
        assert!(tok.vocab_size() > 20);
    }

    #[test]
    fn frequent_words_compress_to_few_tokens() {
        let tok = BpeTokenizer::train(&corpus(), 300);
        let frequent = tok.count_tokens("transport");
        let rare = tok.count_tokens("zzzgibberishzzz");
        assert!(
            frequent < "transport".len(),
            "frequent word should merge below character count, got {frequent}"
        );
        // Rare word stays near character granularity (chars present in corpus).
        assert!(rare >= frequent);
    }

    #[test]
    fn encode_decode_round_trips_known_text() {
        let tok = BpeTokenizer::train(&corpus(), 300);
        let text = "transport process failed";
        let ids = tok.encode(text);
        assert_eq!(tok.decode(&ids), text);
    }

    #[test]
    fn unknown_characters_are_skipped_not_panicking() {
        let tok = BpeTokenizer::train(&corpus(), 100);
        let ids = tok.encode("Ω≈ç√ transport");
        assert!(!ids.is_empty());
        assert!(tok.decode(&ids).contains("transport"));
    }

    #[test]
    fn encoding_is_case_insensitive() {
        let tok = BpeTokenizer::train(&corpus(), 300);
        assert_eq!(tok.encode("Transport"), tok.encode("transport"));
    }

    #[test]
    fn count_tokens_is_additive_over_words() {
        let tok = BpeTokenizer::train(&corpus(), 300);
        let a = tok.count_tokens("transport");
        let b = tok.count_tokens("process");
        assert_eq!(tok.count_tokens("transport process"), a + b);
    }

    #[test]
    #[should_panic(expected = "vocab_size must be positive")]
    fn zero_vocab_panics() {
        let _ = BpeTokenizer::train(&corpus(), 0);
    }

    #[test]
    fn training_is_deterministic() {
        let a = BpeTokenizer::train(&corpus(), 150);
        let b = BpeTokenizer::train(&corpus(), 150);
        assert_eq!(
            a.encode("transport process failed"),
            b.encode("transport process failed")
        );
        assert_eq!(a.vocab_size(), b.vocab_size());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The encoder the word table replaced, kept as the oracle: every
    /// word lowercased into a fresh `String`, every character looked up
    /// through a fresh `String`, merges found in a `HashMap`.
    fn reference_encode(tok: &BpeTokenizer, text: &str) -> Vec<u32> {
        let merges: HashMap<(u32, u32), (u32, u32)> = tok.merges.iter().copied().collect();
        let ids: BTreeMap<String, u32> = tok
            .symbols
            .iter()
            .enumerate()
            .map(|(id, sym)| (sym.clone(), id as u32))
            .collect();
        let mut out = Vec::new();
        for word in text.split_whitespace() {
            let lower = word.to_lowercase();
            let mut seq: Vec<u32> = lower
                .chars()
                .filter_map(|c| ids.get(&c.to_string()).copied())
                .collect();
            if let Some(&eow) = ids.get(&EOW.to_string()) {
                seq.push(eow);
            }
            loop {
                let mut best: Option<(u32, usize, u32)> = None;
                for (pos, win) in seq.windows(2).enumerate() {
                    if let Some(&(prio, merged)) = merges.get(&(win[0], win[1])) {
                        if best.is_none_or(|(bp, _, _)| prio < bp) {
                            best = Some((prio, pos, merged));
                        }
                    }
                }
                let Some((_, pos, merged)) = best else { break };
                seq[pos] = merged;
                seq.remove(pos + 1);
            }
            out.extend(seq);
        }
        out
    }

    fn assert_matches_reference(tok: &BpeTokenizer, text: &str) -> Result<(), TestCaseError> {
        let expected = reference_encode(tok, text);
        prop_assert_eq!(tok.count_tokens(text), expected.len());
        prop_assert_eq!(tok.encode(text), expected);
        Ok(())
    }

    #[test]
    fn word_table_matches_reference_on_unicode_case_rules() {
        let corpus = vec![
            "ΣΑΣ σας İstanbul straße ﬃ office Transport transport".to_string(),
            "the ΣΑΣ office ﬃx İİ ß ss".to_string(),
        ];
        let tok = BpeTokenizer::train(&corpus, 120);
        for text in [
            "",
            "   \t\n ",
            "ΣΑΣ σας ΣΑς",
            "İ İstanbul i̇stanbul ISTANBUL",
            "STRASSE straße SS ß",
            "ﬃ FFI office OFFICE",
            "unknown Ωmega 12345 Transport\u{1}x",
        ] {
            assert_matches_reference(&tok, text).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn encode_and_count_match_reference(
            train in proptest::collection::vec("[a-fA-FΣΑσςİßﬃ]{1,7}", 1..30),
            text in proptest::collection::vec("[a-hA-HΣΑσςİßﬃΩ0-9]{0,7}", 0..20),
            sep in proptest::sample::select(vec![" ", "  ", "\t", "\n ", " \u{1} "]),
        ) {
            let corpus = vec![train.join(" "), train[..train.len() / 2].join(" ")];
            let tok = BpeTokenizer::train(&corpus, 90);
            // Training words hit the table; the rest take the merge loop.
            assert_matches_reference(&tok, &train.join(sep))?;
            assert_matches_reference(&tok, &text.join(sep))?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn encode_decode_round_trips_corpus_alphabet(words in proptest::collection::vec("[a-z]{1,8}", 1..8)) {
            let corpus = vec![words.join(" "), "the quick brown fox".to_string()];
            let tok = BpeTokenizer::train(&corpus, 200);
            let text = words.join(" ");
            let ids = tok.encode(&text);
            prop_assert_eq!(tok.decode(&ids), text);
        }

        #[test]
        fn token_count_is_monotone_under_concat(a in "[a-z ]{1,40}", b in "[a-z ]{1,40}") {
            let corpus = vec![a.clone(), b.clone()];
            let tok = BpeTokenizer::train(&corpus, 150);
            let joined = format!("{a} {b}");
            prop_assert!(tok.count_tokens(&joined) <= tok.count_tokens(&a) + tok.count_tokens(&b) + 1);
        }
    }
}
