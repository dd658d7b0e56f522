//! The analytical pruning-effectiveness model of Section 6.3
//! (Equations 6.12–6.15).
//!
//! Given the dataset's scale parameters (number of base spatial units `n`, number
//! of base temporal units `t`, expected ST-cells per entity `c`), the index
//! parameters (number of hash functions `nh`) and a query-difficulty parameter
//! (`nc`, the minimum number of shared cells an entity needs to beat the expected
//! k-th association degree), the model predicts which fraction of MinSigTree
//! leaves a top-k query can discard.
//!
//! The derivation follows the paper with one refinement: instead of the
//! approximate per-value probability of Equation 6.12 we use the exact CDF of the
//! minimum of `c` i.i.d. uniform hash values, which is numerically stable for
//! large hash ranges (the predicted curves are indistinguishable at the paper's
//! parameter values).
//!
//! Reported **PE is the fraction of leaves pruned** (higher is better, matching
//! the prose "high PE"); Definition 5's `(|E'|-k)/|E|` is the complement and is
//! also exposed as [`PePrediction::fraction_checked`].

use serde::{Deserialize, Serialize};

/// Inputs of the analytical model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalyticalPeModel {
    /// Size of the hash range (`n × t` in the paper: base units × temporal units).
    pub hash_range: u64,
    /// Expected number of base ST-cells per entity (`|seq^m_a|`).
    pub cells_per_entity: u64,
    /// Number of hash functions (`nh`).
    pub num_hash_functions: u32,
    /// Minimum number of cells an entity must share with the query to possibly
    /// beat the expected k-th association degree (`nc`).
    pub min_shared_cells: u64,
    /// Number of sub-ranges used to discretise the hash range (`nr`).
    pub num_subranges: u32,
}

/// The model's output.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PePrediction {
    /// Fraction of leaves pruned (higher is better).
    pub fraction_pruned: f64,
    /// Fraction of leaves that must still be checked (Definition 5 without the
    /// `-k` correction).
    pub fraction_checked: f64,
}

impl AnalyticalPeModel {
    /// A model parameterised from dataset statistics.
    pub fn new(
        hash_range: u64,
        cells_per_entity: u64,
        num_hash_functions: u32,
        min_shared_cells: u64,
    ) -> Self {
        AnalyticalPeModel {
            hash_range: hash_range.max(2),
            cells_per_entity: cells_per_entity.max(1),
            num_hash_functions: num_hash_functions.max(1),
            min_shared_cells: min_shared_cells.max(1),
            num_subranges: 200,
        }
    }

    /// CDF of a single signature coordinate (the minimum of `c` uniform draws over
    /// `[0, R)`): `P(sig ≤ x) = 1 − ((R − x − 1)/R)^c`.
    fn min_cdf(&self, x: f64) -> f64 {
        let r = self.hash_range as f64;
        let c = self.cells_per_entity as f64;
        if x < 0.0 {
            return 0.0;
        }
        if x >= r - 1.0 {
            return 1.0;
        }
        1.0 - ((r - x - 1.0) / r).powf(c)
    }

    /// CDF of the routing value (Equation 6.13): the routing index holds the
    /// maximum of the `nh` signature coordinates, so
    /// `P(SIG[r] ≤ x) = P(sig ≤ x)^{nh}`.
    fn routing_cdf(&self, x: f64) -> f64 {
        self.min_cdf(x).powf(self.num_hash_functions as f64)
    }

    /// Equation 6.14: probability that at least `nc` of the query's `c` cells hash
    /// *above* the routing value `x`, i.e. the node cannot be discarded.
    fn non_prunable_probability(&self, x: f64) -> f64 {
        let r = self.hash_range as f64 - 1.0;
        let p_above = ((r - x) / r).clamp(0.0, 1.0);
        let c = self.cells_per_entity;
        let nc = self.min_shared_cells.min(c);
        // P(X >= nc) where X ~ Binomial(c, p_above).
        1.0 - binomial_cdf(c, p_above, nc.saturating_sub(1))
    }

    /// Equation 6.15: the predicted pruning effectiveness.
    pub fn predict(&self) -> PePrediction {
        let r = self.hash_range as f64;
        let nr = self.num_subranges as usize;
        let step = r / nr as f64;
        let mut fraction_checked = 0.0;
        let mut prev_cdf = 0.0;
        for j in 0..nr {
            let hi = (j as f64 + 1.0) * step - 1.0;
            let cdf = self.routing_cdf(hi);
            let v_j = (cdf - prev_cdf).max(0.0);
            prev_cdf = cdf;
            if v_j == 0.0 {
                continue;
            }
            // Use the upper boundary of the sub-range as its representative, as in
            // the paper's V[j]·q(R[j]) sum.
            fraction_checked += v_j * self.non_prunable_probability(hi);
        }
        let fraction_checked = fraction_checked.clamp(0.0, 1.0);
        PePrediction { fraction_pruned: 1.0 - fraction_checked, fraction_checked }
    }
}

/// `P(X ≤ k)` for `X ~ Binomial(n, p)`, computed in log space for stability.
pub(crate) fn binomial_cdf(n: u64, p: f64, k: u64) -> f64 {
    if p <= 0.0 {
        return 1.0;
    }
    if p >= 1.0 {
        return if k >= n { 1.0 } else { 0.0 };
    }
    let k = k.min(n);
    let mut total = 0.0;
    for x in 0..=k {
        total += binomial_pmf(n, p, x);
    }
    total.min(1.0)
}

/// `P(X = k)` for `X ~ Binomial(n, p)`.
pub(crate) fn binomial_pmf(n: u64, p: f64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    let ln = ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln();
    ln.exp()
}

/// `ln(n choose k)` via log-factorials.
pub(crate) fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// `ln(n!)` using the exact sum for small `n` and Stirling's series otherwise.
pub(crate) fn ln_factorial(n: u64) -> f64 {
    if n < 2 {
        return 0.0;
    }
    if n <= 256 {
        return (2..=n).map(|i| (i as f64).ln()).sum();
    }
    let n = n as f64;
    // Stirling with the 1/(12n) correction: accurate to ~1e-9 for n > 256.
    n * n.ln() - n + 0.5 * (2.0 * std::f64::consts::PI * n).ln() + 1.0 / (12.0 * n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_factorial_matches_direct_computation() {
        for n in [0u64, 1, 2, 5, 10, 50, 170] {
            let direct: f64 = (2..=n).map(|i| (i as f64).ln()).sum();
            assert!((ln_factorial(n) - direct).abs() < 1e-9, "n = {n}");
        }
        // Stirling branch continuity.
        let a = ln_factorial(256);
        let b = ln_factorial(257);
        assert!(b > a);
        assert!((b - a - 257f64.ln()).abs() < 1e-6);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let n = 40;
        let p = 0.3;
        let total: f64 = (0..=n).map(|k| binomial_pmf(n, p, k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn binomial_cdf_monotone_and_bounded() {
        let n = 25;
        let p = 0.4;
        let mut prev = 0.0;
        for k in 0..=n {
            let c = binomial_cdf(n, p, k);
            assert!(c >= prev - 1e-12);
            assert!(c <= 1.0 + 1e-12);
            prev = c;
        }
        assert!((binomial_cdf(n, p, n) - 1.0).abs() < 1e-9);
        assert_eq!(binomial_cdf(10, 0.0, 0), 1.0);
        assert_eq!(binomial_cdf(10, 1.0, 9), 0.0);
        assert_eq!(binomial_cdf(10, 1.0, 10), 1.0);
    }

    #[test]
    fn prediction_is_a_probability() {
        let model = AnalyticalPeModel::new(250_000 * 720, 500, 1000, 5);
        let p = model.predict();
        assert!((0.0..=1.0).contains(&p.fraction_pruned));
        assert!((p.fraction_pruned + p.fraction_checked - 1.0).abs() < 1e-12);
    }

    #[test]
    fn more_hash_functions_prune_more() {
        // Figure 7.3: PE improves with the number of hash functions, with
        // diminishing returns.  nc is the number of cells the expected k-th best
        // answer shares with the query; for the co-mover-style associations the
        // paper targets this is close to the per-entity cell count.
        let pe =
            |nh: u32| AnalyticalPeModel::new(10_000 * 720, 300, nh, 295).predict().fraction_pruned;
        let p200 = pe(200);
        let p1000 = pe(1000);
        let p2000 = pe(2000);
        assert!(p1000 > p200, "{p1000} > {p200}");
        assert!(p2000 >= p1000);
        assert!(p2000 - p1000 < p1000 - p200, "diminishing returns expected");
    }

    #[test]
    fn harder_queries_prune_less() {
        // A smaller nc (fewer shared cells needed to be a contender) means more
        // leaves must be checked.
        let pe =
            |nc: u64| AnalyticalPeModel::new(10_000 * 720, 300, 1000, nc).predict().fraction_pruned;
        assert!(pe(200) < pe(290));
        assert!(pe(290) < pe(299));
    }

    #[test]
    fn pe_is_insensitive_to_scaling_entities() {
        // Section 6.4: PE depends on nh and the per-entity cell count, not on the
        // number of entities; the model has no |E| input at all, so check that
        // scaling the hash range and cells together (same density) barely moves it.
        let small = AnalyticalPeModel::new(1_000 * 720, 200, 500, 4).predict().fraction_pruned;
        let large = AnalyticalPeModel::new(10_000 * 720, 200, 500, 4).predict().fraction_pruned;
        assert!((small - large).abs() < 0.2, "PE should be roughly scale free: {small} vs {large}");
    }

    #[test]
    fn degenerate_inputs_are_clamped() {
        let model = AnalyticalPeModel::new(0, 0, 0, 0);
        assert!(model.hash_range >= 2);
        assert!(model.cells_per_entity >= 1);
        assert!(model.num_hash_functions >= 1);
        assert!(model.min_shared_cells >= 1);
        let p = model.predict();
        assert!((0.0..=1.0).contains(&p.fraction_pruned));
    }
}
