//! # mobility
//!
//! The hierarchical individual-mobility (IM) model of Chapter 6 of *Top-k Queries
//! over Digital Traces*, used for three purposes:
//!
//! 1. **Synthetic data generation** — the SYN dataset of the experiments is
//!    produced by simulating entities under the IM model of Song et al. extended
//!    with a spatial hierarchy ([`im`], [`hierarchy`], [`datasets`]);
//! 2. **The REAL-dataset substitute** — the thesis evaluates on a proprietary
//!    WiFi-handshake dataset from a telecommunications provider; [`datasets`]
//!    provides a generator parameterised to match the reported marginal shapes
//!    (4-level hierarchy, heavy-tailed visitation, skewed association degrees);
//! 3. **The analytical pruning-effectiveness model** — Equations 6.12–6.15, which
//!    predict the fraction of MinSigTree leaves a query can discard
//!    ([`analysis`]).
//!
//! All generators are fully deterministic given a seed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod datasets;
pub mod hierarchy;
pub mod im;
pub mod power;

pub use analysis::AnalyticalPeModel;
pub use datasets::{real_like_config, SynConfig, SynDataset};
pub use hierarchy::{HierarchyConfig, HierarchySpec};
pub use im::{ImConfig, ReturnModel};
pub use power::{BoundedPowerLaw, ZipfSampler};
