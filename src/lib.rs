//! Reproduction of *"Optimizing Irregular Communication with Neighborhood
//! Collectives and Locality-Aware Parallelism"* (Collom, Li, Bienz —
//! EuroMPI '23, arXiv:2306.01876).
//!
//! This umbrella crate re-exports the workspace libraries:
//!
//! * [`mpi_advance`] — the paper's contribution: persistent neighborhood
//!   collectives with locality-aware aggregation and duplicate removal;
//! * [`mpisim`] — the in-process MPI runtime the collectives execute on;
//! * [`locality`] / [`perfmodel`] — machine model and communication cost
//!   models;
//! * [`sparse`] / [`amg`] — the sparse linear algebra and BoomerAMG
//!   substrate generating the evaluation workloads;
//! * [`service`] — the solve service: a multi-tenant job scheduler
//!   overlapping tenants' solves on one warm world pool.
//!
//! See `examples/quickstart.rs` for a five-minute tour and DESIGN.md for
//! the full system inventory.

pub use amg;
pub use locality;
pub use mpi_advance;
pub use mpisim;
pub use perfmodel;
pub use service;
pub use sparse;

// The paper's single-call contract, surfaced at the crate root.
pub use mpi_advance::{Backend, NeighborBatch, NeighborRequest, Protocol};
