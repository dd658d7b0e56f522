//! # experiments
//!
//! The experiment harness of the reproduction: one runner per table/figure of the
//! paper's Chapter 7, each producing a [`report::Table`] with the same rows and
//! series the paper plots.  The binary `experiments` exposes them as subcommands
//! (`experiments fig7-3`, `experiments all`, ...); the Criterion benches reuse the
//! same functions at reduced scale.
//!
//! Conventions:
//!
//! * **PE** is reported as the *fraction of entities pruned* (higher is better),
//!   matching the prose of the paper; Definition 5's fraction-checked is also
//!   printed where relevant.
//! * All experiments are deterministic given the scale's seed.
//! * The paper's full scale (100 M entities) is substituted by a configurable
//!   laptop scale (see `DESIGN.md`); the *shape* of every curve is what the
//!   harness reproduces, not absolute wall-clock numbers.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod common;
pub mod figs;
pub mod report;
pub mod scale;

pub use report::Table;
pub use scale::Scale;

/// Runs every experiment at the given scale, returning all tables in figure order.
pub fn run_all(scale: &Scale) -> Vec<Table> {
    vec![
        figs::fig7_1::run(scale),
        figs::fig7_2::run(scale),
        figs::fig7_3::run(scale),
        figs::fig7_4::run(scale),
        figs::fig7_5::run(scale),
        figs::fig7_6::run(scale),
        figs::fig7_7::run(scale),
        figs::fig7_8::run(scale),
        figs::fig7_9::run(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_all_produces_nine_tables_at_smoke_scale() {
        let tables = run_all(&Scale::smoke());
        assert_eq!(tables.len(), 9);
        for table in &tables {
            assert!(!table.rows().is_empty(), "{} has no rows", table.title());
            assert!(!table.columns().is_empty());
            // Every row has the same arity as the header.
            for row in table.rows() {
                assert_eq!(row.len(), table.columns().len(), "{}", table.title());
            }
        }
    }
}
