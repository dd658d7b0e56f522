//! The individual mobility (IM) model of Section 6.1.
//!
//! Each entity alternates between *staying* at a base spatial unit for a
//! power-law-distributed duration (Equation 6.1) and *jumping*.  A jump either
//! explores a new unit — with probability `ρ S^{-γ}` where `S` is the number of
//! distinct units visited so far (Equation 6.2), landing at a power-law-distributed
//! displacement from the current position (Equation 6.3) — or returns to a
//! previously visited unit with probability proportional to its visit-frequency
//! rank (Equation 6.4).  The emergent statistics `S(t) ∼ t^µ` and
//! `⟨Δx²(t)⟩ ∼ t^ν` (Equations 6.5–6.6) are *consequences* of the first four laws
//! and are checked by this module's tests rather than being parameters.

use crate::hierarchy::HierarchySpec;
use crate::power::{BoundedPowerLaw, ZipfSampler};
use rand::Rng;
use serde::{Deserialize, Serialize};
use trace_model::{DigitalTrace, EntityId, Period, PresenceInstance};

/// How a returning jump chooses its destination.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ReturnModel {
    /// Preferential return: the probability of returning to a unit is
    /// proportional to the number of previous visits (the mechanism of the
    /// original Song et al. model; the `f_y ∼ y^{-ζ}` law emerges).
    Preferential,
    /// Rank-based return: the visit-frequency rank is drawn from a Zipf
    /// distribution with the configured exponent ζ, matching Equation 6.4
    /// directly.  This is the default because it exposes ζ as an explicit knob
    /// for the Figure 7.4(e) sensitivity sweep.
    ZipfRank,
}

/// Parameters of the IM model (Section 6.1 notation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImConfig {
    /// Pause-duration exponent β ∈ (0, 1].
    pub beta: f64,
    /// Exploration probability scale ρ ∈ (0, 1].
    pub rho: f64,
    /// Exploration decay exponent γ ≥ 0.
    pub gamma: f64,
    /// Jump-displacement exponent α ∈ (0, 2].
    pub alpha: f64,
    /// Visit-frequency exponent ζ ≥ 0.
    pub zeta: f64,
    /// Return-destination model.
    pub return_model: ReturnModel,
    /// Minimum pause duration in ticks (e.g. minutes).
    pub min_pause_ticks: u64,
    /// Maximum pause duration in ticks.
    pub max_pause_ticks: u64,
    /// Mean gap between leaving one unit and arriving at the next, in ticks
    /// (travel time, uniformly drawn from `0..=2×mean`).
    pub mean_travel_ticks: u64,
}

impl Default for ImConfig {
    fn default() -> Self {
        // The paper's default "normal mobility pattern": α=0.6, β=0.8, γ=0.2,
        // ζ=1.2, ρ=0.6 (Section 7.1).  Ticks are minutes.
        ImConfig {
            beta: 0.8,
            rho: 0.6,
            gamma: 0.2,
            alpha: 0.6,
            zeta: 1.2,
            return_model: ReturnModel::ZipfRank,
            min_pause_ticks: 15,
            max_pause_ticks: 60 * 24,
            mean_travel_ticks: 20,
        }
    }
}

impl ImConfig {
    /// Validates the parameter ranges of Section 6.1.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.beta > 0.0 && self.beta <= 1.0) {
            return Err(format!("beta must be in (0, 1], got {}", self.beta));
        }
        if !(self.rho > 0.0 && self.rho <= 1.0) {
            return Err(format!("rho must be in (0, 1], got {}", self.rho));
        }
        if self.gamma < 0.0 {
            return Err(format!("gamma must be >= 0, got {}", self.gamma));
        }
        if !(self.alpha > 0.0 && self.alpha <= 2.0) {
            return Err(format!("alpha must be in (0, 2], got {}", self.alpha));
        }
        if self.zeta < 0.0 {
            return Err(format!("zeta must be >= 0, got {}", self.zeta));
        }
        if self.min_pause_ticks == 0 || self.max_pause_ticks <= self.min_pause_ticks {
            return Err("pause bounds must satisfy 0 < min < max".into());
        }
        Ok(())
    }
}

/// State of one simulated entity.
#[derive(Debug, Clone)]
struct EntityState {
    /// Current base-unit ordinal.
    position: u32,
    /// Visited ordinals with their visit counts, most-visited first is *not*
    /// maintained eagerly; we sort ranks lazily when a return jump happens.
    visits: Vec<(u32, u32)>,
    total_visits: u64,
}

impl EntityState {
    fn new(start: u32) -> Self {
        EntityState { position: start, visits: vec![(start, 1)], total_visits: 1 }
    }

    fn distinct_visited(&self) -> usize {
        self.visits.len()
    }

    fn record_visit(&mut self, ordinal: u32) {
        self.total_visits += 1;
        if let Some(entry) = self.visits.iter_mut().find(|(o, _)| *o == ordinal) {
            entry.1 += 1;
        } else {
            self.visits.push((ordinal, 1));
        }
        self.position = ordinal;
    }
}

/// Simulates digital traces under the hierarchical IM model.
#[derive(Debug)]
pub(crate) struct ImSimulator<'h> {
    hierarchy: &'h HierarchySpec,
    config: ImConfig,
    pause: BoundedPowerLaw,
    displacement: BoundedPowerLaw,
}

impl<'h> ImSimulator<'h> {
    /// Creates a simulator over a generated hierarchy.
    ///
    /// # Panics
    /// Panics when the configuration is invalid (see [`ImConfig::validate`]).
    pub(crate) fn new(hierarchy: &'h HierarchySpec, config: ImConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid IM configuration: {msg}");
        }
        let pause = BoundedPowerLaw::new(
            config.beta,
            config.min_pause_ticks as f64,
            config.max_pause_ticks as f64,
        );
        let max_jump = (hierarchy.config().grid_side as f64).max(2.0);
        let displacement = BoundedPowerLaw::new(config.alpha, 1.0, max_jump);
        ImSimulator { hierarchy, config, pause, displacement }
    }

    /// Simulates one entity for `total_ticks` ticks starting from `start_ordinal`,
    /// producing its digital trace.
    pub(crate) fn simulate_entity<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        entity: EntityId,
        start_ordinal: u32,
        total_ticks: u64,
    ) -> DigitalTrace {
        let sp = self.hierarchy.sp_index();
        let mut state = EntityState::new(start_ordinal);
        let mut trace = DigitalTrace::new();
        // Random phase so entities do not all start a pause at tick 0.
        let mut now = rng.gen_range(0..self.config.min_pause_ticks.max(2));
        while now < total_ticks {
            let pause = (self.pause.sample(rng) as u64).max(1);
            let end = (now + pause).min(total_ticks);
            let unit = sp.base_units()[state.position as usize];
            trace.push(PresenceInstance::new(
                entity,
                unit,
                Period::new(now, end).expect("end >= start"),
            ));
            let travel = if self.config.mean_travel_ticks == 0 {
                0
            } else {
                rng.gen_range(0..=2 * self.config.mean_travel_ticks)
            };
            now = end + travel;
            let next = self.next_position(rng, &state);
            state.record_visit(next);
        }
        trace
    }

    /// Chooses the next base-unit ordinal according to the explore/return rules.
    fn next_position<R: Rng + ?Sized>(&self, rng: &mut R, state: &EntityState) -> u32 {
        let s = state.distinct_visited() as f64;
        let p_new = (self.config.rho * s.powf(-self.config.gamma)).clamp(0.0, 1.0);
        if rng.gen_bool(p_new) {
            self.explore(rng, state.position)
        } else {
            self.return_jump(rng, state)
        }
    }

    /// Equation 6.3: a jump in a uniformly random direction with power-law length.
    fn explore<R: Rng + ?Sized>(&self, rng: &mut R, from: u32) -> u32 {
        let (x, y) = self.hierarchy.grid_coordinates(from);
        let distance = self.displacement.sample(rng);
        let angle = rng.gen_range(0.0..std::f64::consts::TAU);
        let dx = (distance * angle.cos()).round() as i64;
        let dy = (distance * angle.sin()).round() as i64;
        self.hierarchy.ordinal_of(x as i64 + dx, y as i64 + dy)
    }

    /// Equations 6.2/6.4: return to a previously visited unit.
    fn return_jump<R: Rng + ?Sized>(&self, rng: &mut R, state: &EntityState) -> u32 {
        match self.config.return_model {
            ReturnModel::Preferential => {
                let total = state.total_visits;
                let mut threshold = rng.gen_range(0..total);
                for &(ordinal, count) in &state.visits {
                    if (count as u64) > threshold {
                        return ordinal;
                    }
                    threshold -= count as u64;
                }
                state.position
            }
            ReturnModel::ZipfRank => {
                // Rank units by visit count (descending) and draw the rank from a
                // Zipf(ζ) distribution.
                let mut ranked: Vec<(u32, u32)> = state.visits.clone();
                ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                let zipf = ZipfSampler::new(ranked.len(), self.config.zeta);
                let rank = zipf.sample(rng);
                ranked[rank - 1].0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyConfig;
    use rand::{rngs::StdRng, SeedableRng};
    use trace_model::TraceSet;

    fn spec() -> HierarchySpec {
        HierarchySpec::generate(HierarchyConfig {
            grid_side: 30,
            levels: 3,
            ..HierarchyConfig::default()
        })
        .unwrap()
    }

    const WEEK_MINUTES: u64 = 7 * 24 * 60;

    #[test]
    fn default_config_is_valid() {
        assert!(ImConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let base = ImConfig::default();
        assert!(ImConfig { beta: 0.0, ..base }.validate().is_err());
        assert!(ImConfig { beta: 1.5, ..base }.validate().is_err());
        assert!(ImConfig { rho: 0.0, ..base }.validate().is_err());
        assert!(ImConfig { gamma: -1.0, ..base }.validate().is_err());
        assert!(ImConfig { alpha: 2.5, ..base }.validate().is_err());
        assert!(ImConfig { zeta: -0.1, ..base }.validate().is_err());
        assert!(ImConfig { min_pause_ticks: 0, ..base }.validate().is_err());
        assert!(ImConfig { max_pause_ticks: 10, min_pause_ticks: 20, ..base }.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid IM configuration")]
    fn simulator_panics_on_invalid_config() {
        let spec = spec();
        let _ = ImSimulator::new(&spec, ImConfig { beta: 0.0, ..ImConfig::default() });
    }

    #[test]
    fn simulated_trace_covers_the_requested_window() {
        let spec = spec();
        let sim = ImSimulator::new(&spec, ImConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let trace = sim.simulate_entity(&mut rng, EntityId(1), 10, WEEK_MINUTES);
        assert!(!trace.is_empty());
        for pi in trace.instances() {
            assert!(pi.period.end <= WEEK_MINUTES);
            assert!(pi.period.length() >= 1);
        }
        // Instances are chronological and non-overlapping.
        for w in trace.instances().windows(2) {
            assert!(w[0].period.end <= w[1].period.start);
        }
    }

    #[test]
    fn pause_durations_are_heavy_tailed() {
        let spec = spec();
        let sim = ImSimulator::new(&spec, ImConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let trace = sim.simulate_entity(&mut rng, EntityId(1), 0, 60 * 24 * 60);
        let durations: Vec<u64> = trace.instances().iter().map(|pi| pi.period.length()).collect();
        let short = durations.iter().filter(|&&d| d < 120).count() as f64;
        let frac_short = short / durations.len() as f64;
        assert!(frac_short > 0.5, "most stays should be short: {frac_short}");
    }

    #[test]
    fn exploration_slows_down_over_time() {
        // Equation 6.5: S(t) grows sub-linearly; check that the second half of the
        // simulation discovers fewer new units than the first half.
        let spec = spec();
        let sim = ImSimulator::new(&spec, ImConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let total = 60 * 24 * 60u64;
        let trace = sim.simulate_entity(&mut rng, EntityId(1), 5, total);
        let mut seen = std::collections::BTreeSet::new();
        let mut first_half_new = 0;
        let mut second_half_new = 0;
        for pi in trace.instances() {
            if seen.insert(pi.unit) {
                if pi.period.start < total / 2 {
                    first_half_new += 1;
                } else {
                    second_half_new += 1;
                }
            }
        }
        assert!(first_half_new > 0);
        assert!(
            second_half_new <= first_half_new,
            "exploration should decelerate: {first_half_new} then {second_half_new}"
        );
    }

    #[test]
    fn visit_frequency_is_skewed_toward_top_locations() {
        let spec = spec();
        let sim = ImSimulator::new(&spec, ImConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let trace = sim.simulate_entity(&mut rng, EntityId(1), 7, 90 * 24 * 60);
        let mut counts: std::collections::BTreeMap<u32, usize> = Default::default();
        for pi in trace.instances() {
            *counts.entry(pi.unit).or_default() += 1;
        }
        let mut freq: Vec<usize> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        assert!(freq.len() >= 3, "entity should visit several units");
        let top2: usize = freq.iter().take(2).sum();
        let total: usize = freq.iter().sum();
        assert!(
            top2 as f64 / total as f64 > 0.3,
            "the top locations should dominate the visits ({top2}/{total})"
        );
    }

    #[test]
    fn preferential_and_zipf_return_models_both_work() {
        let spec = spec();
        for model in [ReturnModel::Preferential, ReturnModel::ZipfRank] {
            let sim =
                ImSimulator::new(&spec, ImConfig { return_model: model, ..ImConfig::default() });
            let mut rng = StdRng::seed_from_u64(5);
            let trace = sim.simulate_entity(&mut rng, EntityId(9), 0, WEEK_MINUTES);
            assert!(!trace.is_empty());
        }
    }

    #[test]
    fn larger_alpha_increases_locality() {
        // α controls jump displacement decay: larger α → shorter jumps → fewer
        // distinct locations far apart. Compare the mean squared displacement from
        // the start position.
        let spec = spec();
        let msd = |alpha: f64, seed: u64| -> f64 {
            let sim = ImSimulator::new(&spec, ImConfig { alpha, ..ImConfig::default() });
            let mut rng = StdRng::seed_from_u64(seed);
            let mut total = 0.0;
            let mut count = 0.0;
            for e in 0..20u64 {
                let start = 465u32; // centre of the 30x30 grid
                let trace = sim.simulate_entity(&mut rng, EntityId(e), start, WEEK_MINUTES);
                let (sx, sy) = spec.grid_coordinates(start);
                for pi in trace.instances() {
                    let ordinal = spec.sp_index().base_ordinal(pi.unit).unwrap();
                    let (x, y) = spec.grid_coordinates(ordinal);
                    let dx = x as f64 - sx as f64;
                    let dy = y as f64 - sy as f64;
                    total += dx * dx + dy * dy;
                    count += 1.0;
                }
            }
            total / count
        };
        let spread_out = msd(0.3, 7);
        let local = msd(1.8, 7);
        assert!(
            local < spread_out,
            "larger alpha must reduce displacement (got {local} >= {spread_out})"
        );
    }

    #[test]
    fn traces_are_usable_as_a_trace_set() {
        let spec = spec();
        let sim = ImSimulator::new(&spec, ImConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        let mut ts = TraceSet::new(60);
        for e in 0..5u64 {
            let start = rng.gen_range(0..spec.sp_index().num_base_units() as u32);
            let trace = sim.simulate_entity(&mut rng, EntityId(e), start, WEEK_MINUTES);
            ts.insert_trace(EntityId(e), trace);
        }
        assert_eq!(ts.num_entities(), 5);
        let seqs = ts.cell_sequences(spec.sp_index()).unwrap();
        for seq in seqs.values() {
            assert_eq!(seq.num_levels(), 3);
            assert!(!seq.base().is_empty());
        }
    }
}
