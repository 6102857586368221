//! `mpi-advance` — persistent neighborhood collectives with locality-aware
//! aggregation (the paper's contribution).
//!
//! The library mirrors the role of the MPI Advance repository: it sits *on
//! top of* an MPI layer (here the `mpisim` runtime) and provides optimized
//! implementations of the persistent `MPI_Neighbor_alltoallv`, one
//! [`Protocol`] per distinct plan:
//!
//! * [`Protocol::PartialNeighbor`] — three-step locality-aware aggregation:
//!   intra-region redistribution, one message per region pair, final
//!   intra-region redistribution (paper §3.2, Algorithms 4–6);
//! * [`Protocol::FullNeighbor`] — aggregation plus removal of duplicate
//!   values between region pairs, enabled by the per-value-indices API
//!   extension (paper §3.3);
//! * [`Protocol::StandardHypre`] — the baseline: persistent point-to-point
//!   as Hypre 2.28 implements it (no topology communicator).
//!
//! The paper's "Unoptimized Neighbor" (§3.1, Algorithms 1–3) wraps Standard
//! Hypre's messages in a persistent neighborhood collective. It runs the
//! same plan, so it is no protocol here: it is a figure label for Standard
//! Hypre's plan costed with `wrapped = true` ([`analytic::iteration_time`]).
//!
//! The one builder is the **batch/session API**, [`NeighborBatch`]: it
//! takes a [`locality::Topology`] and N `(CommPattern, Backend)` entries —
//! e.g. every AMG level's halo pattern — and plans, tags, and stages all
//! of them as one session. One fused routing sweep derives all ranks × all
//! entries; `init_all` registers every entry's channels in a single pass
//! over the runtime's registry and returns the entries as
//! [`NeighborRequest`]s with `start`/`wait`/`start_wait` semantics. A
//! one-entry batch is the paper's single persistent
//! `MPI_Neighbor_alltoallv_init` ([`neighbor`]). Each entry's
//! backend is an explicit [`Protocol`], [`Backend::Partitioned`] (§5's
//! combination), or [`Backend::Auto`] — model-driven selection performed
//! at init time, as §5 prescribes.
//!
//! Under the hood, [`routing`] derives each rank's staging copy maps once
//! (for [`Backend::Partitioned`], split at the partition bounds); the one
//! executor (`exec`) drives the ℓ→s→g→r lifecycle on `mpisim` persistent
//! channels; [`tagspace`] leases each live collective a
//! private tag namespace. [`analytic`] evaluates modeled cost and message
//! statistics at paper scale (2048 ranks).

pub mod agg;
pub mod analytic;
pub mod batch;
pub mod collective;
mod exec;
pub mod neighbor;
pub mod pattern;
pub mod routing;
pub mod stats;
pub mod tagspace;
pub mod tune;

pub use agg::{AssignStrategy, Plan, PlanMsg, SlotArena, SlotRef};
pub use analytic::{init_time, iteration_time, IterationCost};
pub use batch::{BatchRequest, EntryId, NeighborBatch, ResolvedBatch};
pub use collective::{choose_protocol, Protocol};
pub use neighbor::{Backend, NeighborRequest};
pub use pattern::CommPattern;
pub use routing::RankRouting;
pub use stats::PlanStats;
pub use tune::topology_signature;
pub use tuner::TunePolicy;

#[cfg(test)]
mod proptests;
