//! Exact weighted samplers for hot draw loops.
//!
//! [`Rng::choose_weighted`] rescans the whole weight slice on every draw:
//! one pass for the total, one for the pick. When the weights change by a
//! point update between draws (a paper gains a citation, a problem gains a
//! publication), the two samplers here keep Fenwick (binary indexed) trees
//! of partial sums instead, so an update and a draw cost O(log n).
//!
//! **Contract.** Given the same weights and the same [`Rng`] state, `sample`
//! returns the index `choose_weighted` would return and consumes exactly one
//! `next_f64`, so swapping a sampler in leaves every seeded trajectory
//! byte-identical. Both panic, before drawing, where `choose_weighted` does,
//! with the same message.
//!
//! * [`CumulativeWeights`] — f64 weights. The tree's sums are added in a
//!   different order from `choose_weighted`'s left-to-right scan, so they
//!   can differ in the last bits. `sample` therefore certifies its pick
//!   with a rounding-error bound and, when the draw lands too close to a
//!   boundary between two weights to tell, runs `choose_weighted`'s own
//!   scan on the same draw (see the type's docs).
//! * [`FenwickWeights`] — integer weights: `push`, `add` and `sample` are
//!   O(log n). A sum of integer-valued f64s below 2^53 is exact in any
//!   order, so the tree's integer prefix sums equal the f64 scan's,
//!   provided the total stays below 2^53.

use crate::rng::{pick_weighted, positive_sum, Rng};
use std::ops::Add;

/// `choose_weighted`'s panic message, shared so callers see one error.
const EMPTY_TOTAL: &str = "choose_weighted() requires positive finite total weight";

/// Largest total [`FenwickWeights`] may hold while its sums stay exact in f64.
const EXACT_LIMIT: u64 = 1 << 53;

/// Lowest set bit of a 1-based Fenwick position: the width of its node.
fn lowbit(k: usize) -> usize {
    k & k.wrapping_neg()
}

/// Fenwick node `k` (1-based) for weight `w` at position `k`: `w` plus the
/// child nodes `k-1, k-2, k-4, ...` that tile `(k - lowbit(k), k - 1]`,
/// nearest first. `tree` must hold at least the first `k - 1` nodes.
fn node<T: Copy + Add<Output = T>>(tree: &[T], k: usize, w: T) -> T {
    let mut sum = w;
    let mut step = 1;
    while step < lowbit(k) {
        sum = sum + tree[k - step - 1];
        step <<= 1;
    }
    sum
}

/// Descend a Fenwick tree to the longest prefix whose running sum passes
/// `below`, and return its length and that sum (nodes added root side
/// first). The result is that prefix when `below` holds for every shorter
/// prefix too; [`CumulativeWeights::sample`] certifies it instead.
fn descend<T: Copy + Default + Add<Output = T>>(
    tree: &[T],
    below: impl Fn(T) -> bool,
) -> (usize, T) {
    let n = tree.len();
    let mut pos = 0;
    let mut acc = T::default();
    let mut step = if n == 0 { 0 } else { 1 << n.ilog2() };
    while step > 0 {
        let next = pos + step;
        if next <= n {
            let sum = acc + tree[next - 1];
            if below(sum) {
                pos = next;
                acc = sum;
            }
        }
        step >>= 1;
    }
    (pos, acc)
}

/// The part of an f64 weight that `choose_weighted` counts: non-positive
/// and NaN weights count as zero.
fn positive(w: f64) -> f64 {
    if w > 0.0 {
        w
    } else {
        0.0
    }
}

/// f64 weights in a Fenwick tree, sampled by a certified descent.
///
/// `set` and `sample` cost O(log n) node visits (`set` rebuilds each of
/// its O(log n) ancestors from at most log2 n parts). Only
/// [`CumulativeWeights::total`] scans every weight.
///
/// **Why a draw is exact.** Write `u = 2^-53` and `γ_m = m·u / (1 − m·u)`.
/// Any f64 sum of `m` nonnegative terms, added in any order, lies within a
/// factor `1 ± γ_(m−1)` of the real sum (Higham, *Accuracy and Stability of
/// Numerical Algorithms*, §4.2); an addition whose result is subnormal is
/// exact, so the bound has no underflow term. `choose_weighted`'s running
/// sums and total are such sums, and so are the tree's approximate total
/// `A`, the descent's prefix `acc` over the first `k` weights and
/// `acc + w_k`: each is within `1 ± γ_n` of the real sum it stands for.
///
/// `choose_weighted` draws `r`, sets `t = r·T` with `T` its total, and
/// picks the first positive weight whose running sum reaches `t`: it
/// picks `k` exactly when its running sum before `k` is below `t` and its
/// running sum through `k` is at least `t`. `sample` draws the same `r`,
/// descends to the candidate `k` (the longest prefix whose `acc` is below
/// `r·A`) and accepts it only if
///
/// * `r·A·(1 − ε)` is a normal f64 and `acc·(1 + ε) < r·A·(1 − ε)`, and
/// * `(acc + w_k)·(1 − ε) ≥ r·A·(1 + ε)`.
///
/// With `r·A·(1 − ε)` normal, every product here and `r·T` itself round
/// with relative error at most `u` (below that, a product's error is
/// absolute, and `r·A` and `r·T` could round onto neighbouring subnormals).
/// `r·x` is monotone in `x`, so the `1 ± γ_n` bounds carry through the
/// products: the first check puts `choose_weighted`'s sum before `k` below
/// `t` and the second puts its sum through `k` at or above `t` whenever
/// `(1 + ε)/(1 − ε) ≥ (1 + γ_n)²(1 + u)³ / ((1 − γ_n)²(1 − u)³)`, that is
/// for `ε` a little over `2γ_n/(1 − γ_n) + 3u`. The two checks together
/// also force `w_k > 0`. `sample` uses `ε = 8(n + 1)·f64::EPSILON`
/// (`16(n + 1)·u`), about eight times the bound, which also absorbs the
/// rounding of `1 ± ε` themselves.
///
/// A candidate that fails either check (a draw within about `ε` of a
/// boundary between two weights, a zero draw landing on a leading zero
/// weight, or sums too tiny to be normal) falls back to `choose_weighted`'s
/// own scan on the same `r`, so there is one scan and no second copy of
/// its rules. If `A` is not positive or `A·(1 + ε)` is not finite, `sample`
/// calls `choose_weighted` before drawing: the same panic, or the same
/// single draw.
#[derive(Debug, Clone, PartialEq)]
pub struct CumulativeWeights {
    weights: Vec<f64>,
    /// `tree[k - 1]` holds the f64 sum of the positive parts of the
    /// weights in `(k - lowbit(k), k]` (1-based positions), as [`node`]
    /// adds them.
    tree: Vec<f64>,
}

impl CumulativeWeights {
    /// Index `weights` as given. Like `choose_weighted`, non-positive (and
    /// NaN) weights are never picked.
    pub fn new(weights: Vec<f64>) -> Self {
        let mut tree = Vec::with_capacity(weights.len());
        for (i, &w) in weights.iter().enumerate() {
            let sum = node(&tree, i + 1, positive(w));
            tree.push(sum);
        }
        CumulativeWeights { weights, tree }
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when there are no weights.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Sum of the positive weights, added left to right exactly as
    /// `choose_weighted` adds them. O(n).
    pub fn total(&self) -> f64 {
        positive_sum(&self.weights)
    }

    /// Replace weight `i` and rebuild the tree nodes that cover it.
    ///
    /// Each node is recomputed from its parts rather than shifted by a
    /// delta: a subtraction could cancel and void the error bound
    /// `sample` relies on. So the tree is always the one `new` would build
    /// from the current weights.
    pub fn set(&mut self, i: usize, w: f64) {
        self.weights[i] = w;
        let mut k = i + 1;
        while k <= self.tree.len() {
            self.tree[k - 1] = node(&self.tree, k, positive(self.weights[k - 1]));
            k += lowbit(k);
        }
    }

    /// Draw an index, exactly as `rng.choose_weighted(weights)` would.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let n = self.tree.len();
        let eps = 8.0 * (n + 1) as f64 * f64::EPSILON;
        let approx = self.approx_total();
        if !(approx > 0.0 && (approx * (1.0 + eps)).is_finite()) {
            return rng.choose_weighted(&self.weights);
        }
        let r = rng.next_f64();
        let target = r * approx;
        // The candidate is index `pos`, just past the longest prefix whose
        // tree sum is below the target.
        let (pos, acc) = descend(&self.tree, |sum| sum < target);
        if let Some(&w) = self.weights.get(pos) {
            let low = target * (1.0 - eps);
            let high = target * (1.0 + eps);
            if low >= f64::MIN_POSITIVE
                && acc * (1.0 + eps) < low
                && (acc + positive(w)) * (1.0 - eps) >= high
            {
                return pos;
            }
        }
        pick_weighted(&self.weights, self.total(), r)
    }

    /// The tree's sum of every positive weight: `A` in the type's docs.
    fn approx_total(&self) -> f64 {
        let mut k = self.tree.len();
        let mut sum = 0.0;
        while k > 0 {
            sum += self.tree[k - 1];
            k -= lowbit(k);
        }
        sum
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
        let sum = node(&self.tree, self.tree.len() + 1, w);
        self.tree.push(sum);
        self.grow_total(w);
    }

    /// Add `delta` to weight `i`.
    pub fn add(&mut self, i: usize, delta: u64) {
        let mut k = i + 1;
        while k <= self.tree.len() {
            self.tree[k - 1] += delta;
            k += lowbit(k);
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
        // Position `pos + 1`, index `pos`, is the first whose sum reaches
        // the target.
        descend(&self.tree, |sum| sum == 0 || (sum as f64) < target).0
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

    /// A random point update: weight `(u >> 32) % len` becomes `weight(u)`,
    /// unless that would zero out the last positive weight.
    fn update(reference: &[f64], u: u64) -> Option<(usize, f64)> {
        let i = (u >> 32) as usize % reference.len();
        let w = weight(u);
        let positives = reference.iter().filter(|x| **x > 0.0).count();
        (w > 0.0 || positives > 1).then_some((i, w))
    }

    /// Draw `draws` times from the sampler and from `choose_weighted`, both
    /// starting at `start`, and compare index and RNG state.
    fn same_from(
        reference: &[f64],
        pick: impl Fn(&mut Rng) -> usize,
        start: &Rng,
        draws: usize,
    ) -> std::result::Result<(), TestCaseError> {
        let mut a = start.clone();
        let mut b = start.clone();
        for _ in 0..draws {
            prop_assert_eq!(pick(&mut a), b.choose_weighted(reference));
            prop_assert_eq!(&a, &b);
        }
        Ok(())
    }

    fn same_draw(
        reference: &[f64],
        pick: impl Fn(&mut Rng) -> usize,
        seed: u64,
    ) -> std::result::Result<(), TestCaseError> {
        same_from(reference, pick, &Rng::new(seed), 4)
    }

    /// Every draw `m / 2^53` within 4 steps of a boundary `S_k / S_n`
    /// between two weights, where `S_k` is `choose_weighted`'s running sum
    /// before index `k` (and `S_n` its total). The tree's sums differ from
    /// these in the last bits, so a pick near a boundary must be certified
    /// or rescanned.
    fn boundary_draws(weights: &[f64]) -> Vec<u64> {
        let scale = (1u64 << 53) as f64;
        let total = positive_sum(weights);
        let mut sums = vec![0.0];
        let mut acc = 0.0;
        for &w in weights {
            if w > 0.0 {
                acc += w;
                sums.push(acc);
            }
        }
        let mut draws: Vec<u64> = sums
            .iter()
            .flat_map(|&s| {
                let m = (s / total * scale).round() as i64;
                (m - 4..=m + 4).filter_map(|d| u64::try_from(d).ok())
            })
            .filter(|&d| d < 1 << 53)
            .collect();
        draws.sort_unstable();
        draws.dedup();
        draws
    }

    fn same_at_boundaries(
        reference: &[f64],
        cw: &CumulativeWeights,
    ) -> std::result::Result<(), TestCaseError> {
        for m in boundary_draws(reference) {
            same_from(reference, |rng| cw.sample(rng), &Rng::drawing(m), 1)?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn cumulative_matches_choose_weighted(
            codes in prop::collection::vec(0u64..u64::MAX, 1..700),
            shape in 0u8..4,
            updates in prop::collection::vec(0u64..u64::MAX, 0..24),
            seed in 0u64..u64::MAX,
        ) {
            let mut reference = shaped(&codes, shape);
            let mut cw = CumulativeWeights::new(reference.clone());
            prop_assert_eq!(cw.total(), reference.iter().copied().filter(|w| *w > 0.0).sum::<f64>());
            same_draw(&reference, |rng| cw.sample(rng), seed)?;
            for (step, &u) in updates.iter().enumerate() {
                if let Some((i, w)) = update(&reference, u) {
                    reference[i] = w;
                    cw.set(i, w);
                    prop_assert_eq!(&cw, &CumulativeWeights::new(reference.clone()));
                    same_draw(&reference, |rng| cw.sample(rng), seed ^ step as u64)?;
                }
            }
        }

        #[test]
        fn cumulative_matches_choose_weighted_at_boundaries(
            codes in prop::collection::vec(0u64..u64::MAX, 1..80),
            shape in 0u8..4,
            updates in prop::collection::vec(0u64..u64::MAX, 0..8),
        ) {
            let mut reference = shaped(&codes, shape);
            let mut cw = CumulativeWeights::new(reference.clone());
            same_at_boundaries(&reference, &cw)?;
            for &u in &updates {
                if let Some((i, w)) = update(&reference, u) {
                    reference[i] = w;
                    cw.set(i, w);
                }
            }
            same_at_boundaries(&reference, &cw)?;
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
