//! Workload substrate for the inner-product sketching experiments.
//!
//! The paper evaluates on three workloads: synthetic sparse vectors with controlled
//! support overlap and outliers (Section 5.1), numeric column pairs from World Bank
//! data-lake tables (Section 5.2, Figure 5), and TF-IDF vectors of 20-Newsgroups
//! documents (Figure 6).  The latter two datasets are not redistributable artifacts, so
//! this crate generates *synthetic stand-ins that control exactly the properties those
//! experiments stress* — key-overlap ratio, value kurtosis, document length and TF-IDF
//! sparsity. The experiments in `ipsketch-bench` run the paper's procedure on these
//! generators in place of the real data ([`worldbank`] for Figure 5, [`text`] and
//! [`tfidf`] for Figure 6).
//!
//! Modules:
//!
//! * [`distributions`] — self-contained random distributions (normal, log-normal, Zipf,
//!   Pareto, …) built on the reproducible generators of `ipsketch-hash`.
//! * [`synthetic`] — the Section 5.1 synthetic vector-pair generator.
//! * [`tables`] — a small relational table model (key column + numeric value columns)
//!   used by the dataset-search application.
//! * [`worldbank`] — a World-Bank-like data lake: many tables whose key sets overlap to
//!   varying degrees and whose columns span light- to heavy-tailed value distributions.
//! * [`text`] — a topic-model corpus generator plus tokenizer.
//! * [`tfidf`] — vocabulary construction and TF-IDF (unigram + bigram) vectorization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributions;
pub mod error;
pub mod synthetic;
pub mod tables;
pub mod text;
pub mod tfidf;
pub mod worldbank;

pub use error::DataError;
pub use synthetic::{SyntheticPair, SyntheticPairConfig};
pub use tables::{Column, Table};
pub use text::{Corpus, CorpusConfig, Document};
pub use tfidf::{TfIdfConfig, TfIdfVectorizer, Vocabulary};
pub use worldbank::{DataLake, DataLakeConfig};
