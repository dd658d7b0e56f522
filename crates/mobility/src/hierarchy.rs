//! Spatial-hierarchy generation (Section 6.2, Equations 6.7–6.8).
//!
//! The analysis assumes the area of interest is an `L × L` square divided into a
//! grid of base spatial units.  The sp-index over those units is characterised by
//! two power laws:
//!
//! * **width** — the number of units at level `l` is `W_l = Q · l^a` with
//!   `Q = (L/L_bsu)^2 / m^a`, so that the base level has exactly one unit per grid
//!   cell;
//! * **relative density** — the sizes of the units at one level follow
//!   `D_{il} ∝ i^b`, i.e. some districts contain many more buildings than others.
//!
//! [`HierarchySpec::generate`] materialises an [`SpIndex`] satisfying both laws by
//! recursively partitioning the (row-major ordered) grid cells into contiguous
//! runs, which also keeps spatial units spatially coherent.

use serde::{Deserialize, Serialize};
use trace_model::{Level, ModelError, Result, SpIndex, SpIndexBuilder};

/// Parameters of the generated hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Side length of the base-unit grid (`L / L_bsu`); the number of base units
    /// is `grid_side²`.
    pub grid_side: u32,
    /// Height `m` of the sp-index.
    pub levels: Level,
    /// Width exponent `a` (Equation 6.7); real point-of-interest hierarchies have
    /// `a ∈ [1, 2]`.
    pub width_exponent: f64,
    /// Density exponent `b` (Equation 6.8).
    pub density_exponent: f64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig { grid_side: 50, levels: 4, width_exponent: 2.0, density_exponent: 2.0 }
    }
}

/// The realised hierarchy: the widths per level and the generated [`SpIndex`].
#[derive(Debug, Clone)]
pub struct HierarchySpec {
    config: HierarchyConfig,
    widths: Vec<usize>,
    sp: SpIndex,
}

impl HierarchySpec {
    /// Generates a hierarchy from the configuration.
    pub fn generate(config: HierarchyConfig) -> Result<Self> {
        if config.grid_side == 0 {
            return Err(ModelError::InvalidHierarchy("grid_side must be positive".into()));
        }
        if config.levels == 0 {
            return Err(ModelError::InvalidHierarchy("levels must be positive".into()));
        }
        let n_base = (config.grid_side as usize).pow(2);
        let m = config.levels as usize;
        if n_base < m {
            return Err(ModelError::InvalidHierarchy(format!(
                "{n_base} base units cannot form {m} distinct levels"
            )));
        }

        let widths = level_widths(n_base, m, config.width_exponent);

        // Partition bottom-up in *sizes*: level m is the base units themselves;
        // every coarser level groups the previous level's units into contiguous
        // runs whose lengths follow the density power law.
        //
        // `groupings[l]` (for l in 0..m-1, i.e. levels 1..=m-1) holds, for each
        // unit at that level, how many level-(l+2) units it contains.
        let mut groupings: Vec<Vec<usize>> = Vec::with_capacity(m.saturating_sub(1));
        let mut lower_count = n_base;
        for level in (0..m - 1).rev() {
            let width = widths[level];
            let sizes = partition_sizes(lower_count, width, config.density_exponent);
            lower_count = width;
            groupings.push(sizes);
        }
        groupings.reverse();

        // Build the SpIndex top-down.
        let mut builder = SpIndexBuilder::new(config.levels);
        let mut current: Vec<trace_model::SpatialUnitId> = Vec::new();
        for _ in 0..widths[0] {
            current.push(builder.add_top_unit()?);
        }
        for level in 2..=m {
            let sizes = &groupings[level - 2];
            let mut next = Vec::with_capacity(widths[level - 1]);
            debug_assert_eq!(sizes.len(), current.len());
            for (&parent, &child_count) in current.iter().zip(sizes.iter()) {
                for _ in 0..child_count {
                    next.push(builder.add_child(parent)?);
                }
            }
            debug_assert_eq!(next.len(), widths[level - 1]);
            current = next;
        }
        let sp = builder.build()?;
        Ok(HierarchySpec { config, widths, sp })
    }

    /// The configuration used for generation.
    pub fn config(&self) -> HierarchyConfig {
        self.config
    }

    /// The number of units per level (level 1 first).
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// The generated spatial index.
    pub fn sp_index(&self) -> &SpIndex {
        &self.sp
    }

    /// The grid coordinates `(x, y)` of a base unit ordinal (row-major layout).
    pub(crate) fn grid_coordinates(&self, base_ordinal: u32) -> (u32, u32) {
        let side = self.config.grid_side;
        (base_ordinal % side, base_ordinal / side)
    }

    /// The base ordinal of grid coordinates (clamped to the grid).
    pub(crate) fn ordinal_of(&self, x: i64, y: i64) -> u32 {
        let side = self.config.grid_side as i64;
        let cx = x.clamp(0, side - 1);
        let cy = y.clamp(0, side - 1);
        (cy * side + cx) as u32
    }
}

/// Equation 6.7: `W_l = Q · l^a`, normalised so the base level has exactly
/// `n_base` units, clamped to be strictly increasing and at least 1.
pub(crate) fn level_widths(n_base: usize, m: usize, a: f64) -> Vec<usize> {
    let q = n_base as f64 / (m as f64).powf(a);
    let mut widths: Vec<usize> =
        (1..=m).map(|l| ((q * (l as f64).powf(a)) as usize).max(1)).collect();
    widths[m - 1] = n_base;
    // Enforce monotone non-decreasing widths (the tree cannot widen upward) and
    // that every level has at least as many units as the one above it.
    for l in 1..m {
        if widths[l] < widths[l - 1] {
            widths[l] = widths[l - 1];
        }
    }
    // Every parent must have at least one child, so widths must not exceed n_base.
    for w in widths.iter_mut() {
        *w = (*w).min(n_base);
    }
    widths
}

/// Equation 6.8: split `total` items into `parts` contiguous groups whose sizes are
/// proportional to `i^b` (every group gets at least one item).
pub(crate) fn partition_sizes(total: usize, parts: usize, b: f64) -> Vec<usize> {
    assert!(parts >= 1, "need at least one part");
    assert!(total >= parts, "cannot split {total} items into {parts} non-empty parts");
    let weights: Vec<f64> = (1..=parts).map(|i| (i as f64).powf(b)).collect();
    let weight_sum: f64 = weights.iter().sum();
    let spare = total - parts;
    let mut sizes: Vec<usize> =
        weights.iter().map(|w| 1 + (w / weight_sum * spare as f64) as usize).collect();
    // Distribute rounding leftovers to the largest groups first.
    let mut assigned: usize = sizes.iter().sum();
    let mut i = parts;
    while assigned < total {
        i = if i == 0 { parts - 1 } else { i - 1 };
        sizes[i] += 1;
        assigned += 1;
    }
    debug_assert_eq!(sizes.iter().sum::<usize>(), total);
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_follow_the_power_law_shape() {
        let widths = level_widths(2500, 4, 2.0);
        assert_eq!(widths.len(), 4);
        assert_eq!(widths[3], 2500);
        // Strictly non-decreasing and finer levels are wider.
        assert!(widths.windows(2).all(|w| w[0] <= w[1]));
        assert!(widths[0] < widths[3]);
        // With a = 2, level 2 should have about 4x the units of level 1.
        let ratio = widths[1] as f64 / widths[0] as f64;
        assert!((2.0..=6.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn widths_with_zero_exponent_are_flat_until_base() {
        let widths = level_widths(100, 3, 0.0);
        assert_eq!(widths[0], widths[1]);
        assert_eq!(widths[2], 100);
    }

    #[test]
    fn partition_sizes_sum_to_total_and_are_positive() {
        for (total, parts, b) in [(100usize, 7usize, 2.0), (10, 10, 1.5), (55, 3, 0.0)] {
            let sizes = partition_sizes(total, parts, b);
            assert_eq!(sizes.len(), parts);
            assert_eq!(sizes.iter().sum::<usize>(), total);
            assert!(sizes.iter().all(|&s| s >= 1));
        }
    }

    #[test]
    fn partition_sizes_skew_grows_with_b() {
        let flat = partition_sizes(1000, 10, 0.0);
        let skewed = partition_sizes(1000, 10, 2.0);
        let spread = |v: &[usize]| v.iter().max().unwrap() - v.iter().min().unwrap();
        assert!(spread(&skewed) > spread(&flat));
    }

    #[test]
    #[should_panic(expected = "non-empty parts")]
    fn partition_rejects_more_parts_than_items() {
        let _ = partition_sizes(3, 5, 1.0);
    }

    #[test]
    fn generated_hierarchy_matches_widths_and_is_valid() {
        let config = HierarchyConfig { grid_side: 20, levels: 4, ..HierarchyConfig::default() };
        let spec = HierarchySpec::generate(config).unwrap();
        let sp = spec.sp_index();
        assert_eq!(sp.height(), 4);
        assert_eq!(sp.num_base_units(), 400);
        assert_eq!(sp.width_per_level(), spec.widths().to_vec());
        // Every base unit has a full ancestor path.
        for &b in sp.base_units() {
            for level in 1..=4u8 {
                assert!(sp.ancestor_at_level(b, level).is_ok());
            }
        }
    }

    #[test]
    fn contiguous_partitions_give_contiguous_base_ranges() {
        let spec = HierarchySpec::generate(HierarchyConfig {
            grid_side: 10,
            levels: 3,
            ..HierarchyConfig::default()
        })
        .unwrap();
        let sp = spec.sp_index();
        for level in 1..3u8 {
            let mut covered = 0u32;
            for unit in sp.units_at_level(level) {
                let (lo, hi) = sp.base_range(unit).unwrap();
                assert!(hi > lo);
                covered += hi - lo;
            }
            assert_eq!(covered, sp.num_base_units() as u32, "level {level} must tile the grid");
        }
    }

    #[test]
    fn single_level_hierarchy_is_flat() {
        let spec = HierarchySpec::generate(HierarchyConfig {
            grid_side: 5,
            levels: 1,
            ..HierarchyConfig::default()
        })
        .unwrap();
        assert_eq!(spec.sp_index().height(), 1);
        assert_eq!(spec.sp_index().num_base_units(), 25);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        assert!(HierarchySpec::generate(HierarchyConfig {
            grid_side: 0,
            ..HierarchyConfig::default()
        })
        .is_err());
        assert!(HierarchySpec::generate(HierarchyConfig {
            grid_side: 1,
            levels: 4,
            ..HierarchyConfig::default()
        })
        .is_err());
        assert!(HierarchySpec::generate(HierarchyConfig {
            grid_side: 5,
            levels: 0,
            ..HierarchyConfig::default()
        })
        .is_err());
    }

    #[test]
    fn grid_coordinate_round_trip() {
        let spec = HierarchySpec::generate(HierarchyConfig {
            grid_side: 10,
            levels: 2,
            ..HierarchyConfig::default()
        })
        .unwrap();
        for ordinal in [0u32, 5, 42, 99] {
            let (x, y) = spec.grid_coordinates(ordinal);
            assert_eq!(spec.ordinal_of(x as i64, y as i64), ordinal);
        }
        // Clamping keeps out-of-grid coordinates inside.
        assert_eq!(spec.ordinal_of(-5, 3), spec.ordinal_of(0, 3));
        assert_eq!(spec.ordinal_of(100, 100), spec.ordinal_of(9, 9));
    }
}
