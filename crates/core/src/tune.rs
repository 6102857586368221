//! `Backend::Tuned`: measured protocol selection (DESIGN.md §11).
//!
//! [`crate::Backend::Auto`] trusts the cost model; a mis-calibrated parameter
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
//! traffic diverges. Local medians go through a max-reduction to every
//! rank (`max` per candidate: a candidate is as slow as its slowest rank
//! — the pessimistic consensus the collective's completion semantics
//! imply), then every rank picks the argmin, ties toward the model's
//! preferred order. The reduction is persistent, as `MPI_Allreduce_init` is: a
//! dissemination exchange whose ⌈log₂ n⌉ rounds are channels registered
//! with the candidates' — round `r` sends to rank `(me + 2ʳ) mod n` and
//! receives from `(me − 2ʳ) mod n` on tag `ctl_base + r`, on the entry's
//! own control span, so its traffic never couples to whatever collectives
//! the application runs. `max` is idempotent and commutative, so the
//! duplicate contributions along the dissemination paths are harmless.
//!
//! **Rounds.** The decision iteration's `start` stashes its input and
//! posts round 0; each `test` takes whatever rounds have landed and posts
//! the next, and the one that takes the last swaps to the winner, drops
//! the losers, publishes from rank 0 and starts the winner with the
//! stashed input — all inside the decision iteration, so a tuned request,
//! like every other, blocks only in `wait` and may be started in any
//! order relative to other requests.
//!
//! **Timing.** Wall-clock (`Instant`) on real fabrics; the deterministic
//! virtual clock ([`mpisim::RankCtx::clock`]) in modeled worlds, so CI
//! can pin convergence tests without flaking on scheduler noise.

use crate::collective::Protocol;
use crate::exec::NeighborExec;
use crate::neighbor::NeighborRequest;
use locality::Topology;
use mpisim::{ChanId, ChanRegistrar, Comm, RankCtx, RecvChan, SendChan};
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

/// The decision's max-reduction as a persistent request: its rounds (see
/// the module docs), the round awaited, and the maxima so far.
struct MaxReduction {
    rounds: Vec<(SendChan<f64>, RecvChan<f64>)>,
    round: usize,
    maxima: Vec<f64>,
}

impl MaxReduction {
    /// Register the rounds of a reduction of `len` values over `comm`.
    fn register(reg: &mut ChanRegistrar, comm: &Comm, ctl_base: u64, len: usize) -> Self {
        let (n, me) = (comm.size(), comm.rank());
        let rounds = (0..)
            .map(|r| 1usize << r)
            .take_while(|&dist| dist < n)
            .zip(ctl_base..)
            .map(|(dist, tag)| {
                (
                    reg.send_chan_init(comm, (me + dist) % n, tag, len),
                    reg.recv_chan_init(comm, (me + n - dist) % n, tag, len),
                )
            })
            .collect();
        Self {
            rounds,
            round: 0,
            maxima: Vec::new(),
        }
    }

    /// Begin the reduction of this rank's `vals`.
    fn start(&mut self, ctx: &mut RankCtx, vals: Vec<f64>) {
        self.maxima = vals;
        self.round = 0;
        self.post(ctx);
    }

    fn post(&mut self, ctx: &mut RankCtx) {
        if let Some((tx, rx)) = self.rounds.get_mut(self.round) {
            tx.start_with(ctx, |buf| buf.extend_from_slice(&self.maxima));
            rx.start();
        }
    }

    /// Take every round that has landed; `true` once the last has, and
    /// [`MaxReduction::maxima`] holds the maxima over every rank.
    fn test(&mut self, ctx: &mut RankCtx) -> bool {
        while let Some((_, rx)) = self.rounds.get_mut(self.round) {
            let Some(incoming) = rx.try_take(ctx) else {
                return false;
            };
            for (m, inc) in self.maxima.iter_mut().zip(&incoming) {
                *m = m.max(*inc);
            }
            rx.recycle(incoming);
            self.round += 1;
            self.post(ctx);
        }
        true
    }

    /// The receive the reduction waits on, if any.
    fn pending_chans(&self, out: &mut Vec<ChanId>) {
        out.extend(self.rounds.get(self.round).map(|(_, rx)| rx.chan_id()));
    }
}

/// Where a tuned request is in its lifecycle.
enum Phase {
    Probing,
    /// The decision iteration, between its `start` and the `test` that
    /// takes the reduction's last round, with the iteration's input, which
    /// the winner starts with.
    Deciding(Vec<f64>),
    Decided,
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
    phase: Phase,
    /// The probe being timed: `(candidate, start stamp)`, taken when the
    /// iteration's `test` completes.
    probe: Option<(usize, Stamp)>,
    /// Agrees on the per-candidate medians at the decision iteration.
    reduction: MaxReduction,
    /// Where the decision gets published once it is made (rank 0 only).
    publish: Option<(ProfileCache, ProfileKey)>,
}

impl TunedNeighbor {
    /// A tuned request over `candidates`, registering its decision rounds
    /// on `comm`'s control span at `ctl_base` through `reg`.
    pub(crate) fn new(
        candidates: Vec<TunedCandidate>,
        probe_iters: usize,
        reg: &mut ChanRegistrar,
        comm: &Comm,
        ctl_base: u64,
        publish: Option<(ProfileCache, ProfileKey)>,
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
            reduction: MaxReduction::register(reg, comm, ctl_base, candidates.len()),
            candidates,
            schedule,
            iter: 0,
            active: 0,
            phase: Phase::Probing,
            probe: None,
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

    /// Advance the decision as far as its rounds have landed, making the
    /// swap (module docs) once the last has; `false` until then. The
    /// losers' channels idle, but their memory goes.
    fn decide(&mut self, ctx: &mut RankCtx) -> bool {
        if !matches!(self.phase, Phase::Deciding(_)) {
            return true;
        }
        if !self.reduction.test(ctx) {
            return false;
        }
        let Phase::Deciding(input) = std::mem::replace(&mut self.phase, Phase::Decided) else {
            unreachable!("deciding above");
        };
        let medians = &self.reduction.maxima;
        let winner = ProbeSchedule::argmin(medians);
        self.active = winner;
        for (i, c) in self.candidates.iter_mut().enumerate() {
            if i != winner {
                c.inner = None;
            }
        }
        if let Some((cache, key)) = &self.publish {
            let entry = ProfileEntry {
                key: key.clone(),
                winner: self.candidates[winner].protocol.name().to_string(),
                probes: self.schedule.min_samples() as u64,
                medians: self
                    .candidates
                    .iter()
                    .zip(medians)
                    .map(|(c, &m)| (c.protocol.name().to_string(), m))
                    .collect(),
            };
            // best-effort by design: a read-only cache directory must
            // cost a repeat probe elsewhere, never abort a solve
            let _ = cache.publish(&entry);
        }
        self.active_req_mut().start(ctx, &input);
        true
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
        if let Phase::Probing = self.phase {
            match self.schedule.candidate_for(self.iter) {
                Some(c) => {
                    self.active = c;
                    self.probe = Some((c, Stamp::now(ctx)));
                }
                None => {
                    self.reduction.start(ctx, self.schedule.medians());
                    self.phase = Phase::Deciding(input.to_vec());
                    return;
                }
            }
        }
        self.active_req_mut().start(ctx, input);
    }

    fn test(&mut self, ctx: &mut RankCtx, output: &mut [f64]) -> bool {
        if !self.decide(ctx) {
            return false;
        }
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
        match self.phase {
            Phase::Deciding(_) => self.reduction.pending_chans(out),
            _ => self.active_req().pending_chans(out),
        }
    }

    fn chan_scratch(&mut self) -> &mut Vec<ChanId> {
        self.active_req_mut().chan_scratch()
    }

    fn protocol(&self) -> Protocol {
        self.candidates[self.active].protocol
    }

    fn is_probing(&self) -> bool {
        !matches!(self.phase, Phase::Decided)
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

    /// The decision's reduction at n ∈ {1, 2, 3, 5, 8}, started and then
    /// only tested, parking between tests on what it waits for: every
    /// rank reads the same maxima, and so the same winner.
    #[test]
    fn the_decision_reduction_agrees_on_every_rank() {
        for n in [1usize, 2, 3, 5, 8] {
            let results = World::run(n, move |ctx| {
                let comm = ctx.comm_world();
                let mut reduction =
                    MaxReduction::register(&mut ctx.chan_registrar(), &comm, 1 << 20, 3);
                ctx.barrier(&comm);
                // [rank id (max n − 1), inverted (max n), 0 but on rank 2]:
                // rank 0's own values pick candidate 0, the world's 2
                let me = ctx.rank() as f64;
                let low = if ctx.rank() == 2 { 0.5 } else { 0.0 };
                reduction.start(ctx, vec![me, n as f64 - me, low]);
                let mut chans = Vec::new();
                while !reduction.test(ctx) {
                    chans.clear();
                    reduction.pending_chans(&mut chans);
                    ctx.wait_any(&chans);
                }
                let maxima = reduction.maxima;
                let winner = ProbeSchedule::argmin(&maxima);
                (maxima, winner)
            });
            let low = if n > 2 { 0.5 } else { 0.0 };
            let winner = if n > 1 { 2 } else { 0 };
            for got in results {
                assert_eq!(got, (vec![(n - 1) as f64, n as f64, low], winner), "n={n}");
            }
        }
    }
}
