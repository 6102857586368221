//! What one persistent neighborhood collective is: the [`Backend`] that
//! executes it and the [`NeighborRequest`] a rank drives it through.
//!
//! The paper presents its optimizations as a *drop-in API*: one persistent
//! `MPI_Neighbor_alltoallv_init`-style call behind which the
//! Standard/Partial/Full locality-aware protocols — and §5's partitioned
//! and dynamically-selected variants — are interchangeable. In this
//! reproduction that call is a one-entry [`crate::NeighborBatch`]:
//!
//! ```
//! use locality::Topology;
//! use mpi_advance::{Backend, CommPattern, NeighborBatch, Protocol};
//! use mpisim::World;
//!
//! let pattern = CommPattern::example_2_1();
//! let topo = Topology::block_nodes(8, 4);
//! let coll = NeighborBatch::new(&topo)
//!     .entry(&pattern, Backend::Protocol(Protocol::FullNeighbor));
//! let ok = World::run(8, |ctx| {
//!     let comm = ctx.comm_world();
//!     let mut req = coll.init_all(ctx, &comm).into_requests().remove(0);
//!     let input: Vec<f64> = req.input_index().iter().map(|&i| i as f64).collect();
//!     let mut output = vec![0.0; req.output_index().len()];
//!     req.start_wait(ctx, &input, &mut output);
//!     req.output_index().iter().zip(&output).all(|(&i, &v)| v == i as f64)
//! });
//! assert!(ok.into_iter().all(|b| b));
//! ```
//!
//! Every rank shares the same builder (deterministic planning makes the
//! SPMD agreement trivial) and gets back a [`NeighborRequest`] trait object
//! whose `start`/`wait`/`start_wait` drive the collective without exposing
//! which protocol runs underneath. A workload that keeps **several**
//! collectives live at once (every AMG level, plus residual/restriction
//! exchanges) adds one entry per pattern to the same batch, which plans,
//! tags, and stages all of them as one session: its `start_all` runs the
//! entries that share a backend as one collective over the union of their
//! patterns. Each entry's request, driven on its own, runs that entry's
//! own collective — exactly a one-entry batch's.

use crate::collective::Protocol;
use mpisim::{ChanId, RankCtx};

/// Which execution strategy backs the collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The given protocol with plain persistent inter-region messages.
    Protocol(Protocol),
    /// §5's combination as this simulator runs it: the given (aggregating)
    /// protocol with every inter-region message split at its partition
    /// bounds — one message per contributing staging rank, each on its own
    /// sub-tag, shipped with the rest after the staging step. That is what
    /// MPI 4.0 partitioned requests put on the wire, without their early
    /// injection; the overlap injection would buy is what
    /// [`crate::analytic::iteration_time_partitioned`] models.
    Partitioned(Protocol),
    /// Model-driven selection at init time (§5): evaluate every protocol's
    /// plan under the cost model and run the cheapest.
    #[default]
    Auto,
    /// Measured selection (DESIGN.md §11): probe the model's shortlist of
    /// candidates for the first `probe_iters` iterations, timing each on
    /// the actual fabric, then hot-swap to the measured winner — same
    /// request object, byte-identical delivery throughout. A persistent
    /// profile cache ([`tuner::ProfileCache`], `MPISIM_PROFILE_DIR`) lets
    /// warmed processes skip the probe phase entirely. The budgets are a
    /// [`tuner::TunePolicy`] (its defaults, or the `tune_policy` setter).
    Tuned,
}

/// A started-or-startable persistent neighborhood collective of one rank —
/// the object `MPI_Neighbor_alltoallv_init` would return.
///
/// The lifecycle is **completion-driven**: `start` posts the iteration,
/// [`NeighborRequest::test`] makes non-blocking progress (draining and
/// scattering whatever payloads have been delivered, in arrival order),
/// and `wait` is a `test` loop that parks on the request's pending channel
/// **set** between rounds. A request blocks only in `wait` — so a rank may
/// hold many live requests and start them in any order, receives complete in
/// delivery order, and a caller (e.g. [`crate::BatchRequest::wait_any`])
/// can retire whichever of many live collectives finishes first instead
/// of serializing on init order.
///
/// `Send` so a rank's requests can move with its work (e.g. be returned
/// from one pool epoch and driven in a later one); like real persistent
/// requests they hold tag space and matched channels until dropped.
pub trait NeighborRequest: Send {
    /// Global indices whose values the caller provides to `start`, in order.
    fn input_index(&self) -> &[usize];

    /// Global indices `wait` produces, in order.
    fn output_index(&self) -> &[usize];

    /// `MPI_Start`: begin one iteration with the current `input` values.
    /// Posts sends and opens receives; never blocks.
    fn start(&mut self, ctx: &mut RankCtx, input: &[f64]);

    /// `MPI_Test`: non-blocking progress on the current iteration. Drains
    /// every payload that has arrived, scatters its ghost values into
    /// `output` (aligned with [`NeighborRequest::output_index`]), advances
    /// any internal step (e.g. firing final-redistribution forwards once
    /// their inputs are in), and returns whether the iteration has fully
    /// completed. Once complete — or on an inactive request — it is a
    /// no-op returning `true`.
    fn test(&mut self, ctx: &mut RankCtx, output: &mut [f64]) -> bool;

    /// Append a [`ChanId`] for every receive the current iteration still
    /// waits on — the set to park on ([`RankCtx::wait_any`]) between
    /// [`NeighborRequest::test`] calls. Empty iff the iteration needs no
    /// further arrivals (one more `test` then completes it).
    fn pending_chans(&self, out: &mut Vec<ChanId>);

    /// The buffer [`NeighborRequest::wait`] collects its park set in, owned
    /// by the request so that a steady-state iteration allocates nothing.
    fn chan_scratch(&mut self) -> &mut Vec<ChanId>;

    /// `MPI_Wait`: complete the iteration, delivering ghost values into
    /// `output` (aligned with [`NeighborRequest::output_index`]). The
    /// default drives [`NeighborRequest::test`] to completion, parking on
    /// the pending channel set between rounds.
    fn wait(&mut self, ctx: &mut RankCtx, output: &mut [f64]) {
        while !self.test(ctx, output) {
            let mut chans = std::mem::take(self.chan_scratch());
            chans.clear();
            self.pending_chans(&mut chans);
            // empty set = no arrival needed: the next test advances a
            // phase (or completes) on its own, so don't park
            if !chans.is_empty() {
                ctx.wait_any(&chans);
            }
            *self.chan_scratch() = chans;
        }
    }

    /// One full iteration: `start` immediately followed by `wait`.
    fn start_wait(&mut self, ctx: &mut RankCtx, input: &[f64], output: &mut [f64]) {
        self.start(ctx, input);
        self.wait(ctx, output);
    }

    /// The protocol whose plan this request executes (the selection result
    /// under [`Backend::Auto`]; under [`Backend::Tuned`], the candidate
    /// the *current* iteration runs — the measured winner once probing
    /// ends).
    fn protocol(&self) -> Protocol;

    /// Whether the request is still measuring candidates — `true` only
    /// for a [`Backend::Tuned`] request before its winner locks in (a
    /// profile-cache hit skips the probe phase, so this reports `false`
    /// from the first iteration).
    fn is_probing(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::NeighborBatch;
    use crate::pattern::CommPattern;
    use locality::Topology;
    use mpisim::{Comm, World};
    use perfmodel::LocalityModel;

    /// This rank's request of a one-entry batch.
    fn init_one(batch: &NeighborBatch, ctx: &RankCtx, comm: &Comm) -> Box<dyn NeighborRequest> {
        batch.init_all(ctx, comm).into_requests().remove(0)
    }

    fn deliver_all(pattern: &CommPattern, topo: &Topology, backend: Backend) {
        let coll = NeighborBatch::new(topo).entry(pattern, backend);
        let ok = World::run(pattern.n_ranks, |ctx| {
            let comm = ctx.comm_world();
            let mut req = init_one(&coll, ctx, &comm);
            let mut ok = true;
            for it in 0..2u64 {
                let input: Vec<f64> = req
                    .input_index()
                    .iter()
                    .map(|&i| (i as f64) + it as f64 * 0.5)
                    .collect();
                let mut output = vec![f64::NAN; req.output_index().len()];
                req.start_wait(ctx, &input, &mut output);
                ok &= req
                    .output_index()
                    .iter()
                    .zip(&output)
                    .all(|(&i, &v)| v == (i as f64) + it as f64 * 0.5);
            }
            ok
        });
        assert!(ok.into_iter().all(|b| b), "{backend:?} failed to deliver");
    }

    #[test]
    fn every_backend_delivers_example_2_1() {
        let pattern = CommPattern::example_2_1();
        let topo = Topology::block_nodes(8, 4);
        for p in Protocol::ALL {
            deliver_all(&pattern, &topo, Backend::Protocol(p));
        }
        for p in [Protocol::PartialNeighbor, Protocol::FullNeighbor] {
            deliver_all(&pattern, &topo, Backend::Partitioned(p));
        }
        deliver_all(&pattern, &topo, Backend::Auto);
    }

    #[test]
    fn auto_resolves_to_the_model_minimum() {
        let topo = Topology::block_nodes(16, 4);
        let pattern = CommPattern::all_to_all_regions(&topo);
        let model = LocalityModel::lassen();
        let coll = NeighborBatch::new(&topo)
            .entry(&pattern, Backend::Auto)
            .cost_model(&model);
        let (selected, _) = coll.plans()[0];
        let (expected, _) = crate::collective::choose_protocol(&pattern, &topo, &model);
        assert_eq!(selected, expected);
    }

    #[test]
    fn auto_request_reports_its_protocol() {
        let pattern = CommPattern::example_2_1();
        let topo = Topology::block_nodes(8, 4);
        let coll = NeighborBatch::new(&topo).entry(&pattern, Backend::Auto);
        let (expected, _) = coll.plans()[0];
        let protos = World::run(8, |ctx| {
            let comm = ctx.comm_world();
            init_one(&coll, ctx, &comm).protocol()
        });
        assert!(protos.into_iter().all(|p| p == expected));
    }

    #[test]
    fn default_tag_bases_do_not_collide() {
        // two one-entry batches, each leasing its own tag span,
        // interleaved on the same communicator, must not cross-deliver
        let pattern = CommPattern::example_2_1();
        let topo = Topology::block_nodes(8, 4);
        let coll_a =
            NeighborBatch::new(&topo).entry(&pattern, Backend::Protocol(Protocol::StandardHypre));
        let coll_b =
            NeighborBatch::new(&topo).entry(&pattern, Backend::Protocol(Protocol::FullNeighbor));
        let ok = World::run(8, |ctx| {
            let comm = ctx.comm_world();
            let mut a = init_one(&coll_a, ctx, &comm);
            let mut b = init_one(&coll_b, ctx, &comm);
            let input_a: Vec<f64> = a.input_index().iter().map(|&i| i as f64).collect();
            let input_b: Vec<f64> = b.input_index().iter().map(|&i| 1000.0 + i as f64).collect();
            let mut out_a = vec![0.0; a.output_index().len()];
            let mut out_b = vec![0.0; b.output_index().len()];
            a.start(ctx, &input_a);
            b.start(ctx, &input_b);
            b.wait(ctx, &mut out_b);
            a.wait(ctx, &mut out_a);
            let ok_a = a
                .output_index()
                .iter()
                .zip(&out_a)
                .all(|(&i, &v)| v == i as f64);
            let ok_b = b
                .output_index()
                .iter()
                .zip(&out_b)
                .all(|(&i, &v)| v == 1000.0 + i as f64);
            ok_a && ok_b
        });
        assert!(ok.into_iter().all(|b| b));
    }

    #[test]
    #[should_panic(expected = "aggregating protocol")]
    fn partitioned_rejects_standard_protocols() {
        let pattern = CommPattern::example_2_1();
        let topo = Topology::block_nodes(8, 4);
        NeighborBatch::new(&topo)
            .entry(&pattern, Backend::Partitioned(Protocol::StandardHypre))
            .plans();
    }
}
