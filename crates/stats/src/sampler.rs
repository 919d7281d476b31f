//! Exact weighted samplers for hot draw loops.
//!
//! [`Rng::choose_weighted`] rescans the whole weight slice on every draw:
//! one pass for the total, one for the pick. When the weights change by a
//! point update between draws (a paper gains a citation, a problem gains a
//! publication), the two samplers here keep partial sums instead, so an
//! update and a draw touch far fewer entries than a rescan.
//!
//! **Contract.** Given the same weights and the same [`Rng`] state, `sample`
//! returns the index `choose_weighted` would return and consumes exactly one
//! `next_f64`, so swapping a sampler in leaves every seeded trajectory
//! byte-identical. Both panic, before drawing, where `choose_weighted` does,
//! with the same message.
//!
//! * [`CumulativeWeights`] — f64 weights in blocks of 16: running
//!   sums inside each block plus running sums of the block totals. A prefix
//!   is added in a different order from `choose_weighted`'s left-to-right
//!   scan, so it can differ in the last bits. `sample` therefore certifies
//!   its pick with a rounding-error bound and, when the draw lands too close
//!   to a boundary between two weights to tell, runs `choose_weighted`'s
//!   own scan on the same draw (see the type's docs).
//! * [`FenwickWeights`] — integer weights in a Fenwick (binary indexed)
//!   tree: `push`, `add` and `sample` are O(log n), and
//!   [`FenwickWeights::sample_summed`] draws from the sum of two trees'
//!   weights without building a third. A sum of integer-valued f64s below
//!   2^53 is exact in any order, so the tree's integer prefix sums equal
//!   the f64 scan's, provided the total stays below 2^53; the descent
//!   compares them with the draw as integers, a select per level.

use crate::rng::{pick_weighted, positive_sum, Rng};

/// `choose_weighted`'s panic message, shared so callers see one error.
const EMPTY_TOTAL: &str = "choose_weighted() requires positive finite total weight";

/// Largest total [`FenwickWeights`] may hold while its sums stay exact in f64.
const EXACT_LIMIT: u64 = 1 << 53;

/// Weights per block of [`CumulativeWeights`]. A draw compares every
/// block prefix and then every running sum inside one block, and `set`
/// re-adds up to a block and then the block prefixes after it, so the
/// width trades the two; widths 8, 16 and 32 timed alike on `AgendaSim`'s
/// 110 weights.
const BLOCK: usize = 16;

/// Lowest set bit of a 1-based Fenwick position: the width of its node.
fn lowbit(k: usize) -> usize {
    k & k.wrapping_neg()
}

/// Fenwick node `k` (1-based) for weight `w` at position `k`: `w` plus the
/// child nodes `k-1, k-2, k-4, ...` that tile `(k - lowbit(k), k - 1]`,
/// nearest first. `tree` must hold at least the first `k - 1` nodes.
fn node(tree: &[u64], k: usize, w: u64) -> u64 {
    let mut sum = w;
    let mut step = 1;
    while step < lowbit(k) {
        sum += tree[k - step - 1];
        step <<= 1;
    }
    sum
}

/// A Fenwick node past the end of the tree: no threshold below 2^53 lets a
/// prefix sum plus this pass, and adding it to one cannot overflow.
const BEYOND: u64 = 1 << 62;

/// Fenwick node `k + 1` (1-based) of `tree`, or [`BEYOND`] past its end.
fn node_or_beyond(tree: &[u64], k: usize) -> u64 {
    tree.get(k).copied().unwrap_or(BEYOND)
}

/// Descend a Fenwick tree of at most `n` nodes to the longest prefix whose
/// running sum is below `threshold`, and return its length. `node(k)` is
/// node `k + 1` (1-based), or [`BEYOND`] past the last node. Which way a
/// draw goes at each level is a coin flip, so the step is a select rather
/// than a branch.
fn descend(node: impl Fn(usize) -> u64, n: usize, threshold: u64) -> usize {
    let mut pos = 0;
    let mut acc = 0;
    let mut step = if n == 0 { 0 } else { 1 << n.ilog2() };
    while step > 0 {
        let next = pos + step;
        let sum = acc + node(next - 1);
        let take = sum < threshold;
        pos = if take { next } else { pos };
        acc = if take { sum } else { acc };
        step >>= 1;
    }
    pos
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

/// How many of `sums` lie below `target`, counted without a branch per
/// entry. On a nondecreasing slice that is the index of the first entry at
/// or above `target`.
fn count_below(sums: &[f64], target: f64) -> usize {
    sums.iter().map(|&s| usize::from(s < target)).sum()
}

/// f64 weights in blocks of running sums, sampled by a certified count.
///
/// Weight `i` sits in block `i / BLOCK`. `within[i]` is the sum of the
/// positive weights from the start of that block through `i`, and
/// `blocks[b]` is the sum of the totals of blocks `0..=b`, both added left
/// to right. The prefix through `i` in block `b > 0` is then
/// `blocks[b - 1] + within[i]`. `sample` compares every block prefix with
/// its target and then the prefixes inside one block: O(n / BLOCK + BLOCK)
/// comparisons, none of them a branch. `set` rebuilds the rest of its
/// block and every block prefix from there on, the same bounds. Only
/// [`CumulativeWeights::total`] scans every weight.
///
/// **Why a draw is exact.** Write `u = 2^-53` and `γ_m = m·u / (1 − m·u)`.
/// Any f64 sum of `m` nonnegative terms, added in any order, lies within a
/// factor `1 ± γ_(m−1)` of the real sum (Higham, *Accuracy and Stability of
/// Numerical Algorithms*, §4.2); an addition whose result is subnormal is
/// exact, so the bound has no underflow term. `choose_weighted`'s running
/// sums and total are such sums. So are the layout's: the approximate
/// total `A` (the last block prefix), and the prefix `acc` over the first
/// `k` weights and `through` over the first `k + 1` that `sample` reads off
/// as a block prefix plus a running sum inside the next block. Each is
/// within `1 ± γ_n` of the real sum it stands for. Adding a nonnegative
/// f64 never makes a sum smaller, so the prefixes never decrease along
/// the weights.
///
/// `choose_weighted` draws `r`, sets `t = r·T` with `T` its total, and
/// picks the first positive weight whose running sum reaches `t`: it
/// picks `k` exactly when its running sum before `k` is below `t` and its
/// running sum through `k` is at least `t`. `sample` draws the same `r`,
/// counts the block prefixes below `r·A` (which names the first block
/// whose prefix reaches it) and then the prefixes inside that block below
/// `r·A`, which gives the candidate `k`: the first index whose `through`
/// is not below `r·A`. It accepts `k` only if
///
/// * `r·A·(1 − ε)` is a normal f64 and `acc·(1 + ε) < r·A·(1 − ε)`, and
/// * `through·(1 − ε) ≥ r·A·(1 + ε)`.
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
    /// `within[i]`: the positive weights from the start of `i`'s block
    /// through `i`, added left to right.
    within: Vec<f64>,
    /// `blocks[b]`: the totals of blocks `0..=b` (the last `within` of
    /// each), added left to right.
    blocks: Vec<f64>,
}

impl CumulativeWeights {
    /// Index `weights` as given. Like `choose_weighted`, non-positive (and
    /// NaN) weights are never picked.
    pub fn new(weights: Vec<f64>) -> Self {
        let n = weights.len();
        let mut cw = CumulativeWeights {
            weights,
            within: vec![0.0; n],
            blocks: vec![0.0; n.div_ceil(BLOCK)],
        };
        for start in (0..n).step_by(BLOCK) {
            cw.rebuild_block(start);
        }
        cw.rebuild_prefixes(0);
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

    /// Sum of the positive weights, added left to right exactly as
    /// `choose_weighted` adds them. O(n).
    pub fn total(&self) -> f64 {
        positive_sum(&self.weights)
    }

    /// Replace weight `i` and rebuild the running sums that cover it; a
    /// weight set to the value it holds (bit for bit) changes nothing.
    ///
    /// The sums are recomputed from the weights rather than shifted by a
    /// delta: a subtraction could cancel and void the error bound `sample`
    /// relies on. So the layout is always the one `new` would build from
    /// the current weights.
    pub fn set(&mut self, i: usize, w: f64) {
        if self.weights[i].to_bits() == w.to_bits() {
            return;
        }
        self.weights[i] = w;
        self.rebuild_block(i);
        self.rebuild_prefixes(i / BLOCK);
    }

    /// Recompute `within` from index `i` to the end of its block, adding
    /// left to right from the running sum before `i`.
    fn rebuild_block(&mut self, i: usize) {
        let end = (i / BLOCK * BLOCK + BLOCK).min(self.weights.len());
        let mut acc = if i.is_multiple_of(BLOCK) {
            0.0
        } else {
            self.within[i - 1]
        };
        for (s, &w) in self.within[i..end].iter_mut().zip(&self.weights[i..end]) {
            acc += positive(w);
            *s = acc;
        }
    }

    /// Recompute `blocks` from `block` on, adding each block's total to
    /// the prefix before it.
    fn rebuild_prefixes(&mut self, block: usize) {
        let mut prefix = if block == 0 {
            0.0
        } else {
            self.blocks[block - 1]
        };
        for (b, sum) in self.blocks.iter_mut().enumerate().skip(block) {
            let last = ((b + 1) * BLOCK).min(self.within.len()) - 1;
            prefix += self.within[last];
            *sum = prefix;
        }
    }

    /// Draw an index, exactly as `rng.choose_weighted(weights)` would.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let n = self.weights.len();
        let eps = 8.0 * (n + 1) as f64 * f64::EPSILON;
        let approx = self.blocks.last().copied().unwrap_or(0.0);
        if !(approx > 0.0 && (approx * (1.0 + eps)).is_finite()) {
            return rng.choose_weighted(&self.weights);
        }
        let r = rng.next_f64();
        let target = r * approx;
        // `target <= approx`, the last block prefix, so some block prefix
        // reaches the target and `block` names a block.
        let block = count_below(&self.blocks, target);
        let base = if block == 0 {
            0.0
        } else {
            self.blocks[block - 1]
        };
        let start = block * BLOCK;
        let within = &self.within[start..(start + BLOCK).min(n)];
        // `base + within.last()` is the very sum `blocks[block]` holds, so
        // it reaches the target and `j` stays inside the block.
        let j = within
            .iter()
            .map(|&s| usize::from(base + s < target))
            .sum::<usize>();
        let acc = if j == 0 { base } else { base + within[j - 1] };
        let through = base + within[j];
        let low = target * (1.0 - eps);
        let high = target * (1.0 + eps);
        if low >= f64::MIN_POSITIVE && acc * (1.0 + eps) < low && through * (1.0 - eps) >= high {
            return start + j;
        }
        pick_weighted(&self.weights, self.total(), r)
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
        let tree = &self.tree;
        Self::draw(self.total, tree.len(), |k| node_or_beyond(tree, k), rng)
    }

    /// Draw an index, exactly as `rng.choose_weighted` would over the sums
    /// `self[i] + other[i]` converted to f64, which must stay below 2^53.
    /// Fenwick nodes are linear in the weights, so adding the two trees'
    /// nodes gives the nodes of the summed weights: the draw is the one a
    /// single tree of the sums returns. Panics if the lengths differ.
    pub fn sample_summed(&self, other: &FenwickWeights, rng: &mut Rng) -> usize {
        assert_eq!(
            self.len(),
            other.len(),
            "sample_summed() needs trees of equal length"
        );
        let total = self.total + other.total;
        debug_assert!(
            total < EXACT_LIMIT,
            "FenwickWeights total must stay below 2^53"
        );
        let (a, b) = (&self.tree, &other.tree);
        // Past the end both read BEYOND; their sum still passes no threshold.
        let node = |k| node_or_beyond(a, k) + node_or_beyond(b, k);
        Self::draw(total, a.len(), node, rng)
    }

    /// `choose_weighted`'s pick: the first index whose prefix sum, as an
    /// f64, reaches `target = next_f64() · total`, skipping zero weights.
    /// Prefix sums are integers below 2^53, so `sum as f64 < target` is
    /// `sum < ceil(target)`; a prefix of zero weights is skipped too, so
    /// the threshold is at least 1. Descending to the longest prefix below
    /// it leaves `pos` at the index picked.
    fn draw(total: u64, n: usize, node: impl Fn(usize) -> u64, rng: &mut Rng) -> usize {
        assert!(total > 0, "{EMPTY_TOTAL}");
        let target = rng.next_f64() * total as f64;
        descend(node, n, (target.ceil() as u64).max(1))
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

    /// Lengths on both sides of the block width, and two blocks past it.
    const STRADDLE: [usize; 4] = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1];

    /// `codes` as drawn when `fixed` is 4 or more; otherwise stretched or
    /// cut to `STRADDLE[fixed]`, each repeat of a code mixed with its index
    /// so repeats draw different weights.
    fn sized(codes: &[u64], fixed: usize) -> Vec<u64> {
        match STRADDLE.get(fixed) {
            Some(&n) => codes
                .iter()
                .cycle()
                .enumerate()
                .map(|(i, &c)| c ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .take(n)
                .collect(),
            None => codes.to_vec(),
        }
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
            fixed in 0usize..8,
            shape in 0u8..4,
            updates in prop::collection::vec(0u64..u64::MAX, 0..24),
            seed in 0u64..u64::MAX,
        ) {
            let mut reference = shaped(&sized(&codes, fixed), shape);
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
            fixed in 0usize..8,
            shape in 0u8..4,
            updates in prop::collection::vec(0u64..u64::MAX, 0..8),
        ) {
            let mut reference = shaped(&sized(&codes, fixed), shape);
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

        #[test]
        fn summed_draw_matches_choose_weighted_over_the_sums(
            leading_zeros in 0usize..4,
            initial in prop::collection::vec(0u64..u64::MAX, 1..40),
            ops in prop::collection::vec(0u64..u64::MAX, 0..40),
            seed in 0u64..u64::MAX,
        ) {
            // Two weight vectors of one length, each entry zero a third of
            // the time, behind `leading_zeros` entries zero in both.
            let split = |op: u64| ((op >> 40) % 3 * ((op >> 8) % 5), (op >> 20) % 3 * ((op >> 50) % 4));
            let mut ints: Vec<(u64, u64)> = vec![(0, 0); leading_zeros];
            ints.extend(initial.iter().map(|&op| split(op)));
            if ints.iter().all(|&(a, b)| a + b == 0) {
                ints.last_mut().unwrap().1 = 1;
            }
            let (mut fa, mut fb) = (FenwickWeights::new(), FenwickWeights::new());
            for &(a, b) in &ints {
                fa.push(a);
                fb.push(b);
            }
            for (step, &op) in ops.iter().enumerate() {
                let (a, b) = split(op);
                if op % 3 == 0 {
                    ints.push((a, b));
                    fa.push(a);
                    fb.push(b);
                } else {
                    let i = (op >> 12) as usize % ints.len();
                    ints[i].0 += a;
                    ints[i].1 += b;
                    fa.add(i, a);
                    fb.add(i, b);
                }
                let reference: Vec<f64> = ints.iter().map(|&(a, b)| (a + b) as f64).collect();
                same_draw(&reference, |rng| fa.sample_summed(&fb, rng), seed ^ step as u64)?;
                same_draw(&reference, |rng| fb.sample_summed(&fa, rng), seed ^ step as u64)?;
            }
        }
    }

    #[test]
    fn summed_draw_skips_leading_zero_weights_on_a_zero_draw() {
        let (mut fa, mut fb) = (FenwickWeights::new(), FenwickWeights::new());
        for (a, b) in [(0, 0), (0, 0), (0, 2), (1, 0)] {
            fa.push(a);
            fb.push(b);
        }
        assert_eq!(fa.sample_summed(&fb, &mut Rng::drawing(0)), 2);
    }

    #[test]
    #[should_panic(expected = "sample_summed() needs trees of equal length")]
    fn summed_draw_rejects_unequal_lengths() {
        let (mut fa, fb) = (FenwickWeights::new(), FenwickWeights::new());
        fa.push(1);
        fa.sample_summed(&fb, &mut Rng::new(1));
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
