//! Online protocol autotuning (DESIGN.md §11).
//!
//! The analytic selection in `core::collective::select` picks a protocol
//! from `perfmodel`'s cost estimates at init time; a mispredicted
//! parameter picks the wrong protocol forever. This crate holds the
//! pieces that replace trust with measurement:
//!
//! * [`TunePolicy`] — how many probe iterations to spend, how close to
//!   the model's best a candidate must rank to be probed at all, and
//!   where (if anywhere) the persistent profile cache lives. Built by
//!   the caller; the environment contributes only the cache directory
//!   (`MPISIM_PROFILE_DIR`), under the same abort-naming-the-token
//!   contract as the `MPISIM_STALL_MS` family.
//! * [`ProbeSchedule`] — the round-robin measurement plan: which
//!   candidate runs on which iteration, the recorded samples, and the
//!   median-based winner once every probe is in.
//! * [`ProfileCache`] — a versioned JSON-lines store mapping
//!   `(pattern signature, topology signature, size bucket, fabric)` to
//!   the measured winner, written with atomic renames and merged (not
//!   clobbered) across concurrent writers. Unreadable or corrupt state
//!   degrades to "no cached answer", never an abort.
//! * `refit` — a process-global accumulator of measured iteration
//!   timings feeding `perfmodel`'s least-squares parameter fit, with a
//!   fitted-vs-default delta report.
//!
//! The crate is deliberately below `core` in the dependency order: it
//! knows nothing about plans, routings, or requests. `core`'s
//! `Backend::Tuned` owns the wiring.

mod env;
mod profile;
mod refit;
mod schedule;

pub use env::TunePolicy;
pub use profile::{size_bucket, ProfileCache, ProfileEntry, ProfileKey, PROFILE_VERSION};
pub use refit::{
    clear_observations, fitted_params, observation_count, record_observation, refit_report,
};
pub use schedule::ProbeSchedule;
