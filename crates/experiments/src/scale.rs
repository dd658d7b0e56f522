//! Experiment scales.
//!
//! The paper evaluates on 100 M synthetic entities and a 30 M-device WiFi dataset
//! on a 30-core EC2 instance; this reproduction runs the same experiment code at
//! a configurable laptop scale.  Three presets are provided: `smoke` (seconds —
//! used by unit tests), `small` (tens of seconds — the default for the binary)
//! and `paper_shape` (minutes — larger sweeps matching the paper's parameter
//! grids more closely).

use mobility::{real_like_config, HierarchyConfig, SynConfig};
use serde::Serialize;

/// A named experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Scale {
    /// Human-readable name of the scale.
    pub name: &'static str,
    /// Number of entities in the SYN dataset.
    pub syn_entities: usize,
    /// Number of entities in the REAL-like dataset.
    pub real_entities: usize,
    /// Days of simulated activity.
    pub days: u32,
    /// Grid side of the SYN world (base units = side²).
    pub grid_side: u32,
    /// Number of query entities averaged per measurement.
    pub queries: usize,
    /// Hash-function counts swept where the experiment varies `nh`.
    pub hash_function_sweep: &'static [u32],
    /// Default number of hash functions for experiments that fix `nh`.
    pub default_hash_functions: u32,
    /// Result sizes swept where the experiment varies `k`.
    pub k_sweep: &'static [usize],
    /// Base RNG seed.
    pub seed: u64,
}

impl Scale {
    /// A seconds-long scale used by unit tests and CI smoke runs.
    pub fn smoke() -> Self {
        Scale {
            name: "smoke",
            syn_entities: 120,
            real_entities: 100,
            days: 2,
            grid_side: 12,
            queries: 3,
            hash_function_sweep: &[8, 32],
            default_hash_functions: 32,
            k_sweep: &[1, 5],
            seed: 7,
        }
    }

    /// The default scale of the `experiments` binary (tens of seconds per figure).
    pub fn small() -> Self {
        Scale {
            name: "small",
            syn_entities: 2_000,
            real_entities: 1_500,
            days: 7,
            grid_side: 40,
            queries: 10,
            hash_function_sweep: &[32, 64, 128, 256, 512],
            default_hash_functions: 256,
            k_sweep: &[1, 10, 20, 30, 40, 50, 60, 70, 80, 90],
            seed: 42,
        }
    }

    /// A larger scale whose parameter grids follow the paper's more closely
    /// (minutes per figure).
    fn paper_shape() -> Self {
        Scale {
            name: "paper-shape",
            syn_entities: 20_000,
            real_entities: 10_000,
            days: 14,
            grid_side: 64,
            queries: 20,
            hash_function_sweep: &[200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000],
            default_hash_functions: 1000,
            k_sweep: &[1, 10, 20, 30, 40, 50, 60, 70, 80, 90],
            seed: 42,
        }
    }

    /// Parses a scale by name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "smoke" => Some(Self::smoke()),
            "small" => Some(Self::small()),
            "paper-shape" | "paper" => Some(Self::paper_shape()),
            _ => None,
        }
    }

    /// The SYN dataset configuration at this scale.
    pub(crate) fn syn_config(&self) -> SynConfig {
        SynConfig {
            num_entities: self.syn_entities,
            days: self.days,
            hierarchy: HierarchyConfig { grid_side: self.grid_side, ..HierarchyConfig::default() },
            seed: self.seed,
            ..SynConfig::default()
        }
    }

    /// The REAL-like dataset configuration at this scale.
    pub(crate) fn real_config(&self) -> SynConfig {
        let mut config = real_like_config(self.real_entities, self.seed ^ 0x5A5A);
        config.days = self.days;
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_size() {
        assert!(Scale::smoke().syn_entities < Scale::small().syn_entities);
        assert!(Scale::small().syn_entities < Scale::paper_shape().syn_entities);
    }

    #[test]
    fn by_name_round_trips() {
        for name in ["smoke", "small", "paper-shape"] {
            assert_eq!(Scale::by_name(name).unwrap().name, name);
        }
        assert_eq!(Scale::by_name("paper").unwrap().name, "paper-shape");
        assert!(Scale::by_name("huge").is_none());
    }

    #[test]
    fn configs_inherit_scale_parameters() {
        let s = Scale::smoke();
        assert_eq!(s.syn_config().num_entities, 120);
        assert_eq!(s.syn_config().days, 2);
        assert_eq!(s.real_config().num_entities, 100);
        assert_eq!(s.real_config().hierarchy.levels, 4);
    }
}
