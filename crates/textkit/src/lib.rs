//! Text processing primitives for the RCACopilot reproduction.
//!
//! Diagnostic information is noisy semi-structured text: machine names,
//! GUIDs, timestamps, counters. Everything downstream — the FastText-style
//! embedding model, the TF-IDF features of the XGBoost baseline, and the
//! simulated LLM — shares the primitives in this crate:
//!
//! - [`mod@normalize`]: canonicalization and entity masking (timestamps,
//!   machine names, hex ids, large numbers → placeholder tokens) plus word
//!   tokenization.
//! - [`ngram`]: FNV-1a feature hashing (one-shot or streamed over slices)
//!   into bucket indices.
//! - [`sparse`]: sparse vectors with dot/cosine/Euclidean operations.
//! - [`tfidf`]: a fit/transform TF-IDF vectorizer over a corpus.
//! - [`bpe`]: a byte-pair-encoding tokenizer (the `tiktoken` substitute)
//!   used for token counting and as the simulated LLM's input space.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bpe;
pub mod ngram;
pub mod normalize;
pub mod sparse;
pub mod tfidf;

pub use bpe::BpeTokenizer;
pub use ngram::hash_token;
pub use normalize::{mask_entities, normalize, tokenize};
pub use sparse::SparseVector;
pub use tfidf::TfIdfVectorizer;
