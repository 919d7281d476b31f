//! Exact weighted samplers for hot draw loops.
//!
//! [`Rng::choose_weighted`] rescans the whole weight slice on every draw:
//! one pass for the total, one for the pick. When the weights change by a
//! point update between draws (a paper gains a citation, a problem gains a
//! publication), the two samplers here keep the running sums instead.
//!
//! **Contract.** Given the same weights and the same [`Rng`] state, `sample`
//! returns the index `choose_weighted` would return and consumes exactly one
//! `next_f64`, so swapping a sampler in leaves every seeded trajectory
//! byte-identical. Both panic, before drawing, where `choose_weighted` does,
//! with the same message.
//!
//! * [`CumulativeWeights`] — f64 weights. The prefix sums are accumulated
//!   left to right exactly as `choose_weighted` accumulates them, so every
//!   sum is the same f64 bit for bit; a point update re-accumulates the
//!   suffix it invalidates (O(n − i)).
//! * [`FenwickWeights`] — integer weights in a Fenwick tree: `push`, `add`
//!   and `sample` are O(log n). A sum of integer-valued f64s below 2^53 is
//!   exact in any order, so the tree's integer prefix sums equal the f64
//!   scan's, provided the total stays below 2^53.

use crate::rng::Rng;

/// `choose_weighted`'s panic message, shared so callers see one error.
const EMPTY_TOTAL: &str = "choose_weighted() requires positive finite total weight";

/// Largest total [`FenwickWeights`] may hold while its sums stay exact in f64.
const EXACT_LIMIT: u64 = 1 << 53;

/// f64 weights with their running sums, sampled by binary search.
#[derive(Debug, Clone, PartialEq)]
pub struct CumulativeWeights {
    weights: Vec<f64>,
    /// `prefix[i]` is the sum of the positive weights in `0..=i`, added
    /// left to right.
    prefix: Vec<f64>,
}

impl CumulativeWeights {
    /// Index `weights` as given. Like `choose_weighted`, non-positive (and
    /// NaN) weights are never picked.
    pub fn new(weights: Vec<f64>) -> Self {
        let mut cw = CumulativeWeights {
            prefix: vec![0.0; weights.len()],
            weights,
        };
        cw.accumulate_from(0);
        cw
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when there are no weights.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Sum of the positive weights.
    pub fn total(&self) -> f64 {
        self.prefix.last().copied().unwrap_or(0.0)
    }

    /// Replace weight `i` and re-accumulate the sums from `i` onward.
    pub fn set(&mut self, i: usize, w: f64) {
        self.weights[i] = w;
        self.accumulate_from(i);
    }

    /// Draw an index, exactly as `rng.choose_weighted(weights)` would.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = self.total();
        assert!(total > 0.0 && total.is_finite(), "{EMPTY_TOTAL}");
        let target = rng.next_f64() * total;
        let first = self.prefix.partition_point(|&p| p < target);
        // `first` holds a positive weight except at `target == 0`, where it
        // can stop on a leading zero weight that the scan would skip.
        match self.weights[first..].iter().position(|&w| w > 0.0) {
            Some(k) => first + k,
            None => self.weights.iter().rposition(|&w| w > 0.0).unwrap_or(0),
        }
    }

    fn accumulate_from(&mut self, i: usize) {
        let mut acc = if i == 0 { 0.0 } else { self.prefix[i - 1] };
        for (p, &w) in self.prefix[i..].iter_mut().zip(&self.weights[i..]) {
            if w > 0.0 {
                acc += w;
            }
            *p = acc;
        }
    }
}

/// Integer weights in a Fenwick (binary indexed) tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FenwickWeights {
    /// `tree[k - 1]` holds the sum of the weights in `(k - lowbit(k), k]`
    /// (1-based positions).
    tree: Vec<u64>,
    total: u64,
}

impl FenwickWeights {
    /// An empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a weight at index `len`.
    pub fn push(&mut self, w: u64) {
        let k = self.tree.len() + 1;
        let lowbit = k & k.wrapping_neg();
        // Node k covers its own weight plus the nodes k-1, k-2, k-4, ...
        // that tile `(k - lowbit, k - 1]`.
        let mut node = w;
        let mut step = 1;
        while step < lowbit {
            node += self.tree[k - step - 1];
            step <<= 1;
        }
        self.tree.push(node);
        self.grow_total(w);
    }

    /// Add `delta` to weight `i`.
    pub fn add(&mut self, i: usize, delta: u64) {
        let mut k = i + 1;
        while k <= self.tree.len() {
            self.tree[k - 1] += delta;
            k += k & k.wrapping_neg();
        }
        self.grow_total(delta);
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when there are no weights.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Draw an index, exactly as `rng.choose_weighted` would over the
    /// weights converted to f64.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        assert!(self.total > 0, "{EMPTY_TOTAL}");
        let target = rng.next_f64() * self.total as f64;
        // Descend to the longest prefix whose sum is below the target, or
        // zero: the zero case skips leading zero weights at `target == 0`.
        let n = self.tree.len();
        let mut pos = 0;
        let mut acc = 0;
        let mut step = if n == 0 { 0 } else { 1 << n.ilog2() };
        while step > 0 {
            let next = pos + step;
            if next <= n {
                let sum = acc + self.tree[next - 1];
                if sum == 0 || (sum as f64) < target {
                    pos = next;
                    acc = sum;
                }
            }
            step >>= 1;
        }
        // Position `pos + 1`, index `pos`, is the first whose sum reaches
        // the target.
        pos
    }

    fn grow_total(&mut self, delta: u64) {
        self.total += delta;
        debug_assert!(
            self.total < EXACT_LIMIT,
            "FenwickWeights total must stay below 2^53"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Map a raw draw onto a weight class: zero, tiny, large or moderate.
    fn weight(code: u64) -> f64 {
        let frac = (code >> 11) as f64 / (1u64 << 53) as f64;
        match code % 6 {
            0 => 0.0,
            1 => 1e-300 * (1.0 + frac),
            2 => 1e15 * (1.0 + frac),
            _ => 10.0 * frac,
        }
    }

    /// Shape a weight vector: optionally force a leading zero, or keep only
    /// one positive entry; then make sure some weight is positive.
    fn shaped(codes: &[u64], shape: u8) -> Vec<f64> {
        let mut w: Vec<f64> = codes.iter().map(|&c| weight(c)).collect();
        match shape {
            0 => w[0] = 0.0,
            1 => {
                let keep = codes[0] as usize % w.len();
                for (i, x) in w.iter_mut().enumerate() {
                    *x = if i == keep {
                        1.0 + weight(codes[0])
                    } else {
                        0.0
                    };
                }
            }
            _ => {}
        }
        if !w.iter().any(|&x| x > 0.0) {
            *w.last_mut().unwrap() = 3.5;
        }
        w
    }

    /// Draw from both samplers and compare index and RNG state.
    fn same_draw(
        reference: &[f64],
        pick: impl Fn(&mut Rng) -> usize,
        seed: u64,
    ) -> std::result::Result<(), TestCaseError> {
        let mut a = Rng::new(seed);
        let mut b = Rng::new(seed);
        for _ in 0..4 {
            prop_assert_eq!(pick(&mut a), b.choose_weighted(reference));
            prop_assert_eq!(&a, &b);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn cumulative_matches_choose_weighted(
            codes in prop::collection::vec(0u64..u64::MAX, 1..40),
            shape in 0u8..4,
            updates in prop::collection::vec(0u64..u64::MAX, 0..24),
            seed in 0u64..u64::MAX,
        ) {
            let mut reference = shaped(&codes, shape);
            let mut cw = CumulativeWeights::new(reference.clone());
            prop_assert_eq!(cw.total(), reference.iter().copied().filter(|w| *w > 0.0).sum::<f64>());
            same_draw(&reference, |rng| cw.sample(rng), seed)?;
            for (step, &u) in updates.iter().enumerate() {
                let i = (u >> 32) as usize % reference.len();
                let w = weight(u);
                // Never zero out the last positive weight.
                if w <= 0.0 && reference.iter().filter(|x| **x > 0.0).count() == 1 {
                    continue;
                }
                reference[i] = w;
                cw.set(i, w);
                same_draw(&reference, |rng| cw.sample(rng), seed ^ step as u64)?;
            }
        }

        #[test]
        fn fenwick_matches_choose_weighted(
            initial in prop::collection::vec(0u64..6, 1..40),
            ops in prop::collection::vec(0u64..u64::MAX, 0..40),
            seed in 0u64..u64::MAX,
        ) {
            let mut ints = initial.clone();
            if ints.iter().all(|&w| w == 0) {
                *ints.last_mut().unwrap() = 1;
            }
            let mut fw = FenwickWeights::new();
            for &w in &ints {
                fw.push(w);
            }
            for (step, &op) in ops.iter().enumerate() {
                let delta = (op >> 40) % 5;
                if op % 3 == 0 {
                    ints.push(delta);
                    fw.push(delta);
                } else {
                    let i = (op >> 8) as usize % ints.len();
                    ints[i] += delta;
                    fw.add(i, delta);
                }
                prop_assert_eq!(fw.total, ints.iter().sum::<u64>());
                let reference: Vec<f64> = ints.iter().map(|&w| w as f64).collect();
                same_draw(&reference, |rng| fw.sample(rng), seed ^ step as u64)?;
            }
        }
    }

    #[test]
    fn fenwick_push_builds_the_same_tree_as_adds() {
        let weights = [3u64, 0, 7, 1, 0, 0, 2, 9, 4, 5, 0, 6];
        let mut pushed = FenwickWeights::new();
        let mut added = FenwickWeights::new();
        for &w in &weights {
            pushed.push(w);
            added.push(0);
        }
        for (i, &w) in weights.iter().enumerate() {
            added.add(i, w);
        }
        assert_eq!(pushed, added);
    }

    #[test]
    #[should_panic(expected = "choose_weighted() requires positive finite total weight")]
    fn cumulative_rejects_zero_total() {
        CumulativeWeights::new(vec![0.0, -1.0]).sample(&mut Rng::new(1));
    }

    #[test]
    #[should_panic(expected = "choose_weighted() requires positive finite total weight")]
    fn cumulative_rejects_infinite_total() {
        CumulativeWeights::new(vec![1.0, f64::INFINITY]).sample(&mut Rng::new(1));
    }

    #[test]
    #[should_panic(expected = "choose_weighted() requires positive finite total weight")]
    fn fenwick_rejects_zero_total() {
        let mut fw = FenwickWeights::new();
        fw.push(0);
        fw.sample(&mut Rng::new(1));
    }
}
