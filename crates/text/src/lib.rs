//! # humnet-text
//!
//! Text substrate for the `humnet` toolkit.
//!
//! The corpus crate generates synthetic paper abstracts with a Markov
//! model trained on topical seed text. Two modules serve it:
//!
//! * [`tokenize`] — word and sentence tokenization;
//! * [`generate`] — a Markov-chain generator for synthetic abstracts
//!   (deterministic given a seed).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod generate;
pub mod tokenize;

pub use generate::MarkovModel;
pub use tokenize::{sentences, tokenize};
