//! Communication performance models (paper §2.1).
//!
//! The figures in the paper report measured time on Lassen. Reproducing them
//! without that machine requires a cost model over the *exact* message lists
//! each protocol produces. This crate implements the model family the paper
//! builds on:
//!
//! * [`PostalModel`] — the classic postal model `α + βn` \[Bar-Noy & Kipnis\];
//! * [`MaxRateModel`] — adds per-node injection-bandwidth limits
//!   \[Gropp, Olson, Samfass, EuroMPI '16\];
//! * [`LocalityModel`] — per-locality-class parameters (intra-socket,
//!   inter-socket, inter-node modeled separately) plus queue-search costs for
//!   many-message irregular patterns \[Bienz, Gropp, Olson, EuroMPI '18\].
//!
//! [`phase`] evaluates a whole communication phase (all ranks' message
//! lists) to a single modeled duration.

pub mod models;
pub mod params;
pub mod phase;

pub use models::{CostModel, LocalityModel, MaxRateModel, PostalModel};
pub use params::ClassParams;
pub use phase::{Msg, PhaseCost, PhaseEval};

#[cfg(test)]
mod proptests;
