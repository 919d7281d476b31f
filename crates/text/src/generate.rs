//! Markov-chain text generation for synthetic abstracts.
//!
//! The humnet corpus generator needs plausible-looking English that is (a)
//! deterministic given a seed, and (b) controllable: papers that "use
//! ethnographic methods" must actually contain those tokens so the audit
//! pipelines have signal to find. A word-level Markov chain trained on
//! small topical seed corpora fits both needs.

use humnet_stats::Rng;
use std::collections::HashMap;

/// A first-order word-level Markov model.
#[derive(Debug, Clone, Default)]
pub struct MarkovModel {
    /// Transition table: word -> (successor, count) list.
    table: HashMap<String, Vec<(String, u64)>>,
    /// Sentence-start words with counts.
    starts: Vec<(String, u64)>,
}

impl MarkovModel {
    /// Create an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Train on a sentence (a sequence of tokens). Multiple calls
    /// accumulate. Empty sentences are ignored.
    pub fn train(&mut self, tokens: &[String]) {
        if tokens.is_empty() {
            return;
        }
        bump(&mut self.starts, &tokens[0]);
        for w in tokens.windows(2) {
            let entry = self.table.entry(w[0].clone()).or_default();
            bump(entry, &w[1]);
        }
    }

    /// Train on raw text, one sentence at a time.
    pub fn train_text(&mut self, text: &str) {
        for sentence in crate::tokenize::sentences(text) {
            self.train(&crate::tokenize::tokenize(&sentence));
        }
    }

    /// True if the model has no training data.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Generate a sentence of at most `max_words` words. Returns an empty
    /// vector for an untrained model. Generation stops early when a word
    /// has no successors.
    pub fn generate(&self, max_words: usize, rng: &mut Rng) -> Vec<String> {
        if self.starts.is_empty() || max_words == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(max_words);
        let mut current = pick(&self.starts, rng).to_owned();
        out.push(current.clone());
        while out.len() < max_words {
            match self.table.get(&current) {
                Some(successors) if !successors.is_empty() => {
                    current = pick(successors, rng).to_owned();
                    out.push(current.clone());
                }
                _ => break,
            }
        }
        out
    }

    /// Generate a paragraph of `sentences` sentences, capitalized and
    /// period-joined.
    pub fn generate_paragraph(&self, sentences: usize, max_words: usize, rng: &mut Rng) -> String {
        let mut parts = Vec::with_capacity(sentences);
        for _ in 0..sentences {
            let words = self.generate(max_words, rng);
            if words.is_empty() {
                continue;
            }
            let mut s = words.join(" ");
            if let Some(first) = s.get_mut(0..1) {
                first.make_ascii_uppercase();
            }
            s.push('.');
            parts.push(s);
        }
        parts.join(" ")
    }
}

fn bump(list: &mut Vec<(String, u64)>, word: &str) {
    if let Some(entry) = list.iter_mut().find(|(w, _)| w == word) {
        entry.1 += 1;
    } else {
        list.push((word.to_owned(), 1));
    }
}

fn pick<'a>(list: &'a [(String, u64)], rng: &mut Rng) -> &'a str {
    let weights: Vec<f64> = list.iter().map(|&(_, c)| c as f64).collect();
    &list[rng.choose_weighted(&weights)].0
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED_TEXT: &str = "We measure the network. We interview the operators. \
        The operators maintain the network. The network serves the community.";

    fn trained() -> MarkovModel {
        let mut m = MarkovModel::new();
        m.train_text(SEED_TEXT);
        m
    }

    #[test]
    fn untrained_model_generates_nothing() {
        let m = MarkovModel::new();
        assert!(m.is_empty());
        assert!(m.generate(10, &mut Rng::new(1)).is_empty());
        assert_eq!(m.generate_paragraph(2, 5, &mut Rng::new(1)), "");
    }

    #[test]
    fn generates_only_seen_words() {
        let m = trained();
        let mut rng = Rng::new(2);
        let vocab: Vec<String> = crate::tokenize::tokenize(SEED_TEXT);
        for _ in 0..20 {
            for word in m.generate(12, &mut rng) {
                assert!(vocab.contains(&word), "unseen word {word}");
            }
        }
    }

    #[test]
    fn generates_only_seen_transitions() {
        let m = trained();
        let mut rng = Rng::new(3);
        // Collect training bigrams.
        let mut pairs = std::collections::HashSet::new();
        for s in crate::tokenize::sentences(SEED_TEXT) {
            let toks = crate::tokenize::tokenize(&s);
            for w in toks.windows(2) {
                pairs.insert((w[0].clone(), w[1].clone()));
            }
        }
        for _ in 0..20 {
            let out = m.generate(12, &mut rng);
            for w in out.windows(2) {
                assert!(
                    pairs.contains(&(w[0].clone(), w[1].clone())),
                    "unseen transition {w:?}"
                );
            }
        }
    }

    #[test]
    fn respects_max_words() {
        let m = trained();
        let mut rng = Rng::new(4);
        assert!(m.generate(3, &mut rng).len() <= 3);
        assert!(m.generate(0, &mut rng).is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let m = trained();
        let a = m.generate(10, &mut Rng::new(7));
        let b = m.generate(10, &mut Rng::new(7));
        assert_eq!(a, b);
    }

    #[test]
    fn paragraph_has_sentences() {
        let m = trained();
        let p = m.generate_paragraph(3, 8, &mut Rng::new(5));
        assert!(p.matches('.').count() == 3, "paragraph: {p}");
        assert!(p.chars().next().unwrap().is_uppercase());
    }
}
