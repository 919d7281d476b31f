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
///
/// Words are interned at training time: generation walks word ids and
/// draws straight from the stored weights, so it allocates only the
/// paragraph it returns, or nothing when it appends to a caller's string
/// sized by [`MarkovModel::max_paragraph_len`].
#[derive(Debug, Clone, Default)]
pub struct MarkovModel {
    /// Interned vocabulary: a word's id is its index.
    words: Vec<String>,
    /// Word -> id.
    ids: HashMap<String, usize>,
    /// Per word id, the words that followed it in training.
    successors: Vec<Successors>,
    /// Sentence-start words.
    starts: Successors,
    /// Length in bytes of the longest interned word.
    longest_word: usize,
}

/// Successor word ids with their counts as `f64` weights, in first-seen
/// order (the draw order of [`Rng::choose_weighted`]).
#[derive(Debug, Clone, Default)]
struct Successors {
    ids: Vec<usize>,
    weights: Vec<f64>,
}

impl Successors {
    fn bump(&mut self, id: usize) {
        match self.ids.iter().position(|&w| w == id) {
            Some(i) => self.weights[i] += 1.0,
            None => {
                self.ids.push(id);
                self.weights.push(1.0);
            }
        }
    }

    fn pick(&self, rng: &mut Rng) -> usize {
        self.ids[rng.choose_weighted(&self.weights)]
    }
}

impl MarkovModel {
    /// Create an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Train on a sentence (a sequence of tokens). Multiple calls
    /// accumulate. Empty sentences are ignored.
    pub fn train(&mut self, tokens: &[String]) {
        let Some(first) = tokens.first() else {
            return;
        };
        let mut prev = self.intern(first);
        self.starts.bump(prev);
        for word in &tokens[1..] {
            let next = self.intern(word);
            self.successors[prev].bump(next);
            prev = next;
        }
    }

    /// Train on raw text, one sentence at a time.
    pub fn train_text(&mut self, text: &str) {
        for sentence in crate::tokenize::sentences(text) {
            self.train(&crate::tokenize::tokenize(&sentence));
        }
    }

    fn intern(&mut self, word: &str) -> usize {
        if let Some(&id) = self.ids.get(word) {
            return id;
        }
        let id = self.words.len();
        self.longest_word = self.longest_word.max(word.len());
        self.words.push(word.to_owned());
        self.ids.insert(word.to_owned(), id);
        self.successors.push(Successors::default());
        id
    }

    /// Generate a paragraph of `sentences` sentences, capitalized and
    /// period-joined. Each sentence has at most `max_words` words and stops
    /// early at a word with no successors. An untrained model, or
    /// `max_words == 0`, gives an empty paragraph.
    pub fn generate_paragraph(&self, sentences: usize, max_words: usize, rng: &mut Rng) -> String {
        let mut out = String::new();
        self.push_paragraph(&mut out, sentences, max_words, rng);
        out
    }

    /// [`MarkovModel::generate_paragraph`], appended to `out` with the
    /// same draws.
    pub fn push_paragraph(
        &self,
        out: &mut String,
        sentences: usize,
        max_words: usize,
        rng: &mut Rng,
    ) {
        if self.starts.ids.is_empty() || max_words == 0 {
            return;
        }
        let start = out.len();
        for _ in 0..sentences {
            if out.len() > start {
                out.push(' ');
            }
            let sentence = out.len();
            let mut current = self.starts.pick(rng);
            out.push_str(&self.words[current]);
            for _ in 1..max_words {
                let next = &self.successors[current];
                if next.ids.is_empty() {
                    break;
                }
                current = next.pick(rng);
                out.push(' ');
                out.push_str(&self.words[current]);
            }
            if let Some(first) = out.get_mut(sentence..sentence + 1) {
                first.make_ascii_uppercase();
            }
            out.push('.');
        }
    }

    /// An upper bound on the bytes [`MarkovModel::push_paragraph`]
    /// appends for these arguments: every word as long as the longest,
    /// each with a space or period after it, and a space between
    /// sentences.
    pub fn max_paragraph_len(&self, sentences: usize, max_words: usize) -> usize {
        sentences * (max_words * (self.longest_word + 1) + 1)
    }
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

    /// The lowercased words of each sentence of a paragraph.
    fn sentence_words(paragraph: &str) -> Vec<Vec<String>> {
        crate::tokenize::sentences(paragraph)
            .iter()
            .map(|s| crate::tokenize::tokenize(s))
            .collect()
    }

    #[test]
    fn untrained_model_generates_nothing() {
        let m = MarkovModel::new();
        assert_eq!(m.generate_paragraph(2, 5, &mut Rng::new(1)), "");
    }

    #[test]
    fn generates_only_seen_words() {
        let m = trained();
        let mut rng = Rng::new(2);
        let vocab: Vec<String> = crate::tokenize::tokenize(SEED_TEXT);
        for words in sentence_words(&m.generate_paragraph(20, 12, &mut rng)) {
            for word in words {
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
        for words in sentence_words(&m.generate_paragraph(20, 12, &mut rng)) {
            for w in words.windows(2) {
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
        for words in sentence_words(&m.generate_paragraph(5, 3, &mut rng)) {
            assert!(words.len() <= 3, "{words:?}");
        }
        assert_eq!(m.generate_paragraph(5, 0, &mut rng), "");
    }

    #[test]
    fn deterministic_given_seed() {
        let m = trained();
        let a = m.generate_paragraph(3, 10, &mut Rng::new(7));
        let b = m.generate_paragraph(3, 10, &mut Rng::new(7));
        assert_eq!(a, b);
    }

    #[test]
    fn push_paragraph_appends_the_same_paragraph_within_its_bound() {
        let m = trained();
        let mut out = String::with_capacity(3 + m.max_paragraph_len(4, 9));
        out.push_str("So ");
        let capacity = out.capacity();
        m.push_paragraph(&mut out, 4, 9, &mut Rng::new(6));
        assert_eq!(out.capacity(), capacity, "no regrowth");
        assert_eq!(
            out,
            format!("So {}", m.generate_paragraph(4, 9, &mut Rng::new(6)))
        );
    }

    #[test]
    fn paragraph_has_sentences() {
        let m = trained();
        let p = m.generate_paragraph(3, 8, &mut Rng::new(5));
        assert!(p.matches('.').count() == 3, "paragraph: {p}");
        assert!(p.chars().next().unwrap().is_uppercase());
    }
}
