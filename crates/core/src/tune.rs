//! `Backend::Tuned`: measured protocol selection (DESIGN.md §11).
//!
//! [`Backend::Auto`] trusts the cost model; a mis-calibrated parameter
//! picks the wrong protocol forever. The tuned executor replaces trust
//! with measurement: for the first `probe_iters` iterations it
//! round-robins the model's shortlist of candidates
//! ([`crate::collective::select::candidates_within`]), timing each
//! iteration's Start→Wait on the actual fabric; at the first iteration
//! past the probe budget every rank agrees on the measured winner and
//! the request hot-swaps to it — same `NeighborRequest` object, no API
//! change, byte-identical delivery throughout (every candidate moves the
//! same values, only the wire schedule differs).
//!
//! **Agreement.** Ranks must lock in the *same* winner or their channel
//! traffic diverges. Local medians go through an allreduce-max over a
//! dedicated control tag span (`max` per candidate: a candidate is as
//! slow as its slowest rank — the pessimistic consensus the collective's
//! completion semantics imply), then every rank picks the argmin, ties
//! toward the model's preferred order. The reduction is a hand-rolled
//! dissemination exchange rather than `mpisim`'s built-in collectives:
//! those sequence tags through the `Comm`'s own counter, and the tuned
//! request — which outlives its init-time `Comm` clone — must not couple
//! its tag stream to whatever collectives the application runs.
//!
//! **Ordering contract.** The decision runs inside `start()` — the one
//! `start` in this crate that can block, and the one file `make lint`
//! lets call a blocking `mpisim` primitive — so tuned
//! requests inherit MPI's collective-order rule: every rank starts the
//! same tuned request's iterations in the same order relative to other
//! tuned requests on the communicator ([`crate::BatchRequest::start_all`]
//! satisfies this; so does any SPMD iteration loop). Deadlock-freedom at
//! the decision point follows from the sends being buffered deposits: a
//! rank can only reach iteration K once every peer's K-1 traffic is
//! deposited, so every rank reaches `start(K)` and the reduction runs.
//!
//! **Timing.** Wall-clock (`Instant`) on real fabrics; the deterministic
//! virtual clock ([`mpisim::RankCtx::clock`]) in modeled worlds, so CI
//! can pin convergence tests without flaking on scheduler noise.

use crate::collective::Protocol;
use crate::exec::NeighborExec;
use crate::neighbor::NeighborRequest;
use locality::Topology;
use mpisim::{ChanId, Comm, RankCtx};
use std::time::Instant;
use tuner::{ProbeSchedule, ProfileCache, ProfileEntry, ProfileKey};

/// Stable hash of the topology shape (rank → region layout): two runs
/// share profile-cache entries exactly when their region structure
/// matches. Same splitmix64 mixer as
/// [`crate::CommPattern::pattern_signature`]; here the fold is
/// order-dependent because rank identity is part of the shape.
pub fn topology_signature(topo: &Topology) -> u64 {
    fn mix(mut x: u64) -> u64 {
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }
    let mut acc =
        mix(0x2545f4914f6cdd1d ^ (topo.n_ranks() as u64) ^ ((topo.n_regions() as u64) << 32));
    for r in 0..topo.n_ranks() {
        acc = mix(acc ^ mix(((r as u64) << 32) | topo.region_of(r) as u64));
    }
    acc
}

/// Opt-in fitted selection model: the tuner's pooled probe observations
/// ([`tuner::fitted_params`]) packaged as a [`perfmodel::PostalModel`]
/// ready for [`crate::batch::NeighborBatch::cost_model`] with
/// [`crate::Backend::Auto`]. `None` until enough observations accumulate
/// to fit. The default model is **never** silently replaced — a caller
/// that wants measured parameters constructs this model and passes it
/// explicitly:
///
/// ```ignore
/// let fitted = mpi_advance::fitted_auto_model();
/// let batch = NeighborBatch::new(&topo)
///     .entry(&pattern, Backend::Auto)
///     .cost_model(fitted.as_ref().expect("observations recorded"));
/// ```
pub fn fitted_auto_model() -> Option<perfmodel::PostalModel> {
    tuner::fitted_params().map(|f| perfmodel::PostalModel::new(f.alpha, f.beta))
}

/// A monotonic timestamp on whichever clock the world runs on.
enum Stamp {
    Wall(Instant),
    Virtual(f64),
}

impl Stamp {
    fn now(ctx: &RankCtx) -> Self {
        if ctx.is_modeled() {
            Stamp::Virtual(ctx.clock())
        } else {
            Stamp::Wall(Instant::now())
        }
    }

    fn elapsed(&self, ctx: &RankCtx) -> f64 {
        match self {
            Stamp::Wall(t0) => t0.elapsed().as_secs_f64(),
            Stamp::Virtual(t0) => (ctx.clock() - t0).max(0.0),
        }
    }
}

/// One protocol under measurement: its live executor (dropped if it
/// loses) and the plan statistics its timings feed to the model refit.
pub(crate) struct TunedCandidate {
    pub(crate) inner: Option<NeighborExec>,
    pub(crate) protocol: Protocol,
    /// Max-over-ranks messages per iteration (local + inter-region).
    pub(crate) msgs: f64,
    /// Max-over-ranks inter-region bytes per iteration.
    pub(crate) bytes: f64,
}

/// Where the decision gets published once it is made (rank 0 only).
pub(crate) struct PublishSpec {
    pub(crate) cache: ProfileCache,
    pub(crate) key: ProfileKey,
}

/// The measured-selection request behind [`crate::Backend::Tuned`]. See
/// the [module docs](self) for the probe/decide/hot-swap lifecycle.
pub(crate) struct TunedNeighbor {
    /// The active candidate is always live, and every live executor holds
    /// the batch's tag lease — which covers the control span too.
    candidates: Vec<TunedCandidate>,
    schedule: ProbeSchedule,
    /// Completed probe iterations (equal on every rank: one per
    /// start→wait cycle, and ranks drive those in SPMD lockstep).
    iter: usize,
    active: usize,
    decided: bool,
    /// The probe being timed: `(candidate, start stamp)`, taken when the
    /// iteration's `test` completes.
    probe: Option<(usize, Stamp)>,
    /// Base of the control tag span the decision reduction runs over.
    ctl_base: u64,
    comm: Comm,
    publish: Option<PublishSpec>,
}

impl TunedNeighbor {
    pub(crate) fn new(
        candidates: Vec<TunedCandidate>,
        probe_iters: usize,
        ctl_base: u64,
        comm: Comm,
        publish: Option<PublishSpec>,
    ) -> Self {
        assert!(!candidates.is_empty(), "a tuned request needs candidates");
        debug_assert!(
            candidates.iter().all(|c| {
                let first = candidates[0].inner.as_ref().unwrap();
                let inner = c.inner.as_ref().unwrap();
                inner.input_index() == first.input_index()
                    && inner.output_index() == first.output_index()
            }),
            "candidates over one pattern expose one index order"
        );
        let schedule = ProbeSchedule::new(candidates.len(), probe_iters);
        Self {
            candidates,
            schedule,
            iter: 0,
            active: 0,
            decided: false,
            probe: None,
            ctl_base,
            comm,
            publish,
        }
    }

    fn active_req(&self) -> &NeighborExec {
        self.candidates[self.active]
            .inner
            .as_ref()
            .expect("active candidate is live")
    }

    fn active_req_mut(&mut self) -> &mut NeighborExec {
        self.candidates[self.active]
            .inner
            .as_mut()
            .expect("active candidate is live")
    }

    /// Lock in the measured winner: agree on per-candidate medians,
    /// hot-swap to the argmin, drop the losers (their channels idle but
    /// their memory goes), and publish the result from rank 0.
    fn decide(&mut self, ctx: &mut RankCtx) {
        let mut medians = self.schedule.medians();
        allreduce_max(ctx, &self.comm, self.ctl_base, &mut medians);
        let winner = ProbeSchedule::argmin(&medians);
        self.active = winner;
        self.decided = true;
        for (i, c) in self.candidates.iter_mut().enumerate() {
            if i != winner {
                c.inner = None;
            }
        }
        if self.comm.rank() == 0 {
            if let Some(p) = &self.publish {
                let entry = ProfileEntry {
                    key: p.key.clone(),
                    winner: self.candidates[winner].protocol.name().to_string(),
                    probes: self.schedule.min_samples() as u64,
                    medians: self
                        .candidates
                        .iter()
                        .zip(&medians)
                        .map(|(c, &m)| (c.protocol.name().to_string(), m))
                        .collect(),
                };
                // best-effort by design: a read-only cache directory must
                // cost a repeat probe elsewhere, never abort a solve
                let _ = p.cache.publish(&entry);
            }
        }
    }
}

impl NeighborRequest for TunedNeighbor {
    fn input_index(&self) -> &[usize] {
        self.active_req().input_index()
    }

    fn output_index(&self) -> &[usize] {
        self.active_req().output_index()
    }

    fn start(&mut self, ctx: &mut RankCtx, input: &[f64]) {
        if !self.decided {
            match self.schedule.candidate_for(self.iter) {
                Some(c) => {
                    self.active = c;
                    self.probe = Some((c, Stamp::now(ctx)));
                }
                None => self.decide(ctx),
            }
        }
        self.active_req_mut().start(ctx, input);
    }

    fn test(&mut self, ctx: &mut RankCtx, output: &mut [f64]) -> bool {
        let done = self.active_req_mut().test(ctx, output);
        if done {
            if let Some((c, t0)) = self.probe.take() {
                // first completing test of a probed iteration: close the timing
                let secs = t0.elapsed(ctx);
                self.schedule.record(c, secs);
                let cand = &self.candidates[c];
                tuner::record_observation(cand.msgs, cand.bytes, secs);
                self.iter += 1;
            }
        }
        done
    }

    fn pending_chans(&self, out: &mut Vec<ChanId>) {
        self.active_req().pending_chans(out);
    }

    fn chan_scratch(&mut self) -> &mut Vec<ChanId> {
        self.active_req_mut().chan_scratch()
    }

    fn protocol(&self) -> Protocol {
        self.candidates[self.active].protocol
    }

    fn is_partitioned(&self) -> bool {
        false
    }

    fn is_probing(&self) -> bool {
        !self.decided
    }
}

/// Element-wise allreduce-max over `vals`, dissemination-style: round
/// `r` sends to `(me + 2^r) % n` on tag `ctl_base + r`. `max` is
/// idempotent and commutative, so after ⌈log₂ n⌉ rounds every rank
/// holds the global maxima — duplicate contributions along the
/// dissemination paths are harmless.
fn allreduce_max(ctx: &mut RankCtx, comm: &Comm, ctl_base: u64, vals: &mut [f64]) {
    let n = comm.size();
    let me = comm.rank();
    let mut dist = 1usize;
    let mut round = 0u64;
    while dist < n {
        let dst = (me + dist) % n;
        let src = (me + n - dist) % n;
        ctx.send(comm, dst, ctl_base + round, vals);
        let incoming: Vec<f64> = ctx.recv(comm, src, ctl_base + round);
        assert_eq!(incoming.len(), vals.len(), "ctl span crosstalk");
        for (v, inc) in vals.iter_mut().zip(incoming) {
            *v = v.max(inc);
        }
        dist <<= 1;
        round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::World;

    #[test]
    fn topology_signature_is_stable_and_shape_sensitive() {
        let a = Topology::block_nodes(8, 4);
        assert_eq!(topology_signature(&a), topology_signature(&a));
        assert_eq!(
            topology_signature(&a),
            topology_signature(&Topology::block_nodes(8, 4)),
            "equal shapes, equal signatures"
        );
        assert_ne!(
            topology_signature(&a),
            topology_signature(&Topology::block_nodes(8, 2)),
            "region size is part of the shape"
        );
        assert_ne!(
            topology_signature(&a),
            topology_signature(&Topology::block_nodes(16, 4)),
            "rank count is part of the shape"
        );
    }

    #[test]
    fn allreduce_max_agrees_on_every_rank() {
        for n in [1usize, 2, 3, 5, 8] {
            let results = World::run(n, move |ctx| {
                let comm = ctx.comm_world();
                let me = ctx.rank() as f64;
                // vals[0]: rank id (max = n-1); vals[1]: inverted (max = n)
                let mut vals = [me, (n as f64) - me];
                allreduce_max(ctx, &comm, 1 << 20, &mut vals);
                vals
            });
            for v in results {
                assert_eq!(v, [(n - 1) as f64, n as f64], "n={n}");
            }
        }
    }
}
