//! `mpisim` — an in-process simulated MPI runtime.
//!
//! The paper's library "sits on top of MPI" and needs little of it:
//! point-to-point messages, persistent requests
//! (`MPI_Send_init`/`MPI_Recv_init`/`MPI_Start`/`MPI_Wait`), communicator
//! split/dup, and three mailbox collectives (`comm_split` runs on
//! allgather; tests and the benchmark use barrier and allreduce). This
//! crate implements those semantics — and no more — over OS threads so
//! that every protocol in the `mpi-advance` crate performs *real* data
//! movement and can be validated for correctness.
//!
//! Each rank is a thread running the same SPMD closure with a [`RankCtx`]
//! handle. Message matching follows MPI rules: envelopes carry
//! `(communicator context, source, tag)` and are non-overtaking per
//! (source, destination, tag, communicator). Message elements are MPI's
//! basic datatypes: the twelve primitive integer and float types
//! ([`Elem`], a sealed trait), which every fabric moves as their bytes plus
//! a one-byte kind, so a program valid on one fabric is valid on all.
//!
//! # Worlds
//!
//! What a world runs on is one value, a [`WorldConfig`]: a [`Fabric`]
//! (thread, shm or sock — every program is byte-identical on all three)
//! and an optional [`FaultPlan`]; `run` makes a one-shot world of it and
//! `pool` a warm [`WorldPool`]. [`World::run`] / [`World::pool`] are the
//! configuration the environment names, and [`World::spawn`] runs the
//! ranks as separate OS processes instead ([`RemoteWorld`]).
//!
//! # Virtual time
//!
//! When launched with [`World::run_modeled`], every rank carries a virtual
//! clock driven by a [`perfmodel::CostModel`]: a send stamps the envelope
//! with `departure + msg_time(class, bytes)`; the matching receive advances
//! the receiver's clock to at least that arrival time, plus queue-search
//! overhead. This turns the thread-backed execution into a conservative
//! distributed simulation whose per-rank clocks reflect the modeled cost of
//! the communication actually performed.
//!
//! # Example
//!
//! ```
//! use mpisim::World;
//!
//! let results = World::run(4, |ctx| {
//!     let comm = ctx.comm_world();
//!     let right = (ctx.rank() + 1) % ctx.size();
//!     let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
//!     ctx.send(&comm, right, 7, &[ctx.rank() as u64]);
//!     let got: Vec<u64> = ctx.recv(&comm, left, 7);
//!     got[0]
//! });
//! assert_eq!(results, vec![3, 0, 1, 2]);
//! ```

// every `unsafe` states the contract it relies on (`make lint` holds it)
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod collectives;
pub mod comm;
pub mod ctx;
pub mod elem;
mod env;
pub mod persistent;
pub mod runtime;
pub mod stall;
pub mod state;
pub mod transport;

pub use comm::Comm;
pub use ctx::RankCtx;
pub use elem::Elem;
pub use persistent::{RecvChan, SendChan};
pub use runtime::{panic_message, EpochError, Fabric, World, WorldConfig, WorldPool};
pub use stall::{LinkStatus, ParkCounts, PeerStatus, RankWait, RegistryGauge, StallReport};
pub use state::{ChanId, ChanRegistrar};
pub use transport::fault::FaultPlan;
pub use transport::remote::RemoteWorld;
