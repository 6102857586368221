//! `NeighborBatch`: plan, tag, and stage many collectives as one.
//!
//! The paper's workload is never a single collective: an AMG solve keeps
//! one persistent `Neighbor_alltoallv` live *per level*, plus residual and
//! restriction exchanges — many simultaneously live patterns on one
//! communicator. Driving each through its own [`crate::NeighborAlltoallv`]
//! builder pays a full planning-and-routing pass per pattern and leans on
//! a global tag allocator to keep them apart. `NeighborBatch` is the
//! session that owns the whole set:
//!
//! ```
//! use locality::Topology;
//! use mpi_advance::{Backend, CommPattern, NeighborBatch, Protocol};
//! use mpisim::World;
//!
//! let fine = CommPattern::example_2_1();
//! let coarse = CommPattern::example_2_1();
//! let topo = Topology::block_nodes(8, 4);
//! let batch = NeighborBatch::new(&topo)
//!     .entry(&fine, Backend::Protocol(Protocol::FullNeighbor))
//!     .entry(&coarse, Backend::Auto);
//! let ok = World::run(8, |ctx| {
//!     let comm = ctx.comm_world();
//!     let mut session = batch.init_all(ctx, &comm);
//!     let inputs: Vec<Vec<f64>> = session
//!         .requests()
//!         .iter()
//!         .map(|r| r.input_index().iter().map(|&i| i as f64).collect())
//!         .collect();
//!     let mut outputs: Vec<Vec<f64>> = session
//!         .requests()
//!         .iter()
//!         .map(|r| vec![0.0; r.output_index().len()])
//!         .collect();
//!     // post every entry, then retire them as their traffic lands
//!     session.start_all(ctx, &inputs);
//!     let mut ok = true;
//!     while session.in_flight() > 0 {
//!         let e = session.wait_any(ctx, &mut outputs);
//!         ok &= session
//!             .entry(e)
//!             .output_index()
//!             .iter()
//!             .zip(&outputs[e])
//!             .all(|(&i, &v)| v == i as f64);
//!     }
//!     ok
//! });
//! assert!(ok.into_iter().all(|b| b));
//! ```
//!
//! What the session fuses, relative to N independent builders:
//!
//! * **Planning** — every entry's backend resolves up front, in one place,
//!   sharing one default cost model.
//! * **Tags** — one [`crate::tagspace::TagLease`] of N spans is carved
//!   into per-entry namespaces; nothing touches a global counter per
//!   entry, and exhaustion of the (re-usable) tag space is a loud panic.
//! * **Routing** — one [`RankRouting::build_all_batch`] sweep derives all
//!   ranks × all entries' routings together.
//! * **Registration** — [`NeighborBatch::init_all`] opens the world's
//!   channel registry once ([`mpisim::ChanRegistrar`]) and registers every
//!   entry's channels in a single pass, instead of one lock round trip per
//!   message.
//!
//! Each rank gets back a [`BatchRequest`] session: its entries as
//! [`crate::NeighborRequest`] trait objects, in batch order — the same
//! objects the single-collective builder returns
//! ([`crate::NeighborAlltoallv`] is a one-entry batch internally),
//! byte-identical on the wire to N independent inits — plus the
//! completion-driven verbs ([`BatchRequest::start_all`],
//! [`BatchRequest::test_any`], [`BatchRequest::wait_any`],
//! [`BatchRequest::wait_all`]) that drive the whole set as one session and
//! retire entries in **delivery order**.

use crate::agg::AssignStrategy;
use crate::collective::select::{candidates_within, choose_with, CANDIDATES};
use crate::collective::Protocol;
use crate::exec::NeighborExec;
use crate::neighbor::{Backend, NeighborRequest};
use crate::pattern::CommPattern;
use crate::routing::{BatchEntryPlan, RankRouting};
use crate::stats::{PlanStats, VALUE_BYTES};
use crate::tagspace::{TagLease, TagSpace, SPAN};
use crate::tune::{topology_signature, TunedCandidate, TunedNeighbor};
use crate::Plan;
use locality::Topology;
use mpisim::{ChanId, ChanRegistrar, Comm, RankCtx};
use perfmodel::{CostModel, LocalityModel};
use std::sync::{Arc, Mutex, OnceLock};
use tuner::{size_bucket, ProfileCache, ProfileKey, TunePolicy};

struct EntrySpec<'a> {
    pattern: &'a CommPattern,
    backend: Backend,
    strategy: AssignStrategy,
}

/// The resolved half of a [`NeighborBatch`]: plans, carved tags, and every
/// rank's routing, computed once and shared by all ranks' `init_all`. It
/// owns everything `init_all` reads and borrows nothing of the builder, so
/// it can outlive the patterns and topology it was resolved from
/// ([`NeighborBatch::into_resolved`]) — the solve service keeps one per
/// job shape across epochs.
///
/// A [`Backend::Tuned`] entry **expands**: one routing (and tag span)
/// per shortlisted candidate, all laid out in the same fused sweep, so
/// the probe phase hot-swaps between fully-initialized executors. The
/// `routings` are therefore in *expanded* order;
/// `ExpandedEntry` maps each batch entry to its slots. `plans` and
/// `tag_bases` stay per-entry (a tuned entry reports its model-best
/// candidate until measurement says otherwise).
pub struct ResolvedBatch {
    plans: Vec<(Protocol, Plan)>,
    tag_bases: Vec<u64>,
    /// `routings[rank][slot]`: each rank's routing per expanded slot.
    routings: Vec<Vec<RankRouting>>,
    /// Held by the batch AND cloned into every request it initializes:
    /// the span frees (and its base becomes re-usable) only when the
    /// batch and all of its live requests are gone.
    lease: Option<Arc<TagLease>>,
    expanded: Vec<ExpandedEntry>,
}

/// One entry's slice of the expanded candidate order.
struct ExpandedEntry {
    /// First expanded slot (single-candidate entries own exactly this
    /// one; tuned entries own `candidates.len()` consecutive slots).
    start: usize,
    tuned: Option<TunedResolution>,
}

/// The resolution-time half of one tuned entry's machinery.
struct TunedResolution {
    /// `(protocol, max msgs/iter, max inter-region bytes/iter)` per
    /// candidate, model-ranked cheapest first — probe order and
    /// tie-break order.
    candidates: Vec<(Protocol, f64, f64)>,
    /// Tag-span base of the decision reduction's rounds.
    ctl_base: u64,
    policy: TunePolicy,
    pattern_sig: u64,
    topo_sig: u64,
    size_bucket: u32,
    /// One profile-cache consult per process **per fabric** (measured
    /// winners are fabric-specific, and one batch may be reused across
    /// fabrics): every in-process rank reads the same memoized answer,
    /// so all ranks register the same channels. (Cross-process worlds
    /// must share `MPISIM_PROFILE_DIR` state *or* all miss — a mixed
    /// consult would diverge registrations; see DESIGN.md §11.)
    consult: Mutex<Vec<(String, Option<usize>)>>,
}

/// A session of persistent neighborhood collectives planned, tagged, and
/// staged together. See the [module docs](self) for the full contract;
/// construction mirrors [`crate::NeighborAlltoallv`] (SPMD-agreed inputs,
/// deterministic resolution, every rank shares the builder).
pub struct NeighborBatch<'a> {
    topo: &'a Topology,
    entries: Vec<EntrySpec<'a>>,
    model: Option<&'a dyn CostModel>,
    tune_policy: Option<TunePolicy>,
    pinned_tag_base: Option<u64>,
    resolved: OnceLock<ResolvedBatch>,
}

impl<'a> NeighborBatch<'a> {
    /// An empty session over `topo`. Add collectives with
    /// [`NeighborBatch::entry`].
    pub fn new(topo: &'a Topology) -> Self {
        Self {
            topo,
            entries: Vec::new(),
            model: None,
            tune_policy: None,
            pinned_tag_base: None,
            resolved: OnceLock::new(),
        }
    }

    /// Append one collective (e.g. one AMG level's halo pattern) with the
    /// default leader-assignment strategy.
    pub fn entry(self, pattern: &'a CommPattern, backend: Backend) -> Self {
        self.entry_with(pattern, backend, AssignStrategy::LoadBalanced)
    }

    /// Append one collective with an explicit leader-assignment strategy.
    pub fn entry_with(
        mut self,
        pattern: &'a CommPattern,
        backend: Backend,
        strategy: AssignStrategy,
    ) -> Self {
        assert_eq!(
            pattern.n_ranks,
            self.topo.n_ranks(),
            "pattern/topology rank count mismatch"
        );
        self.entries.push(EntrySpec {
            pattern,
            backend,
            strategy,
        });
        self.resolved = OnceLock::new();
        self
    }

    /// Cost model driving every [`Backend::Auto`] entry (default: the
    /// Lassen-calibrated locality model).
    pub fn cost_model(mut self, model: &'a dyn CostModel) -> Self {
        self.model = Some(model);
        self.resolved = OnceLock::new();
        self
    }

    /// Tuning policy for every [`Backend::Tuned`] entry (default:
    /// [`TunePolicy::from_env`] — the default budgets, with the profile
    /// cache where `MPISIM_PROFILE_DIR` says). A cache directory of one's
    /// own, or another probe budget, is set here.
    pub fn tune_policy(mut self, policy: TunePolicy) -> Self {
        self.tune_policy = Some(policy);
        self.resolved = OnceLock::new();
        self
    }

    /// Pin the batch's tag namespace explicitly instead of leasing one:
    /// entry `i` uses `base + i · SPAN`. The pinned range is registered
    /// with the process-wide [`TagSpace`], so leases taken afterwards
    /// never overlap it; collisions against other pins, hand-registered
    /// tags, or leases already live stay the caller's contract.
    pub fn tag_base(mut self, base: u64) -> Self {
        self.pinned_tag_base = Some(base);
        self.resolved = OnceLock::new();
        self
    }

    /// Number of collectives in the session.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every entry's resolved `(protocol, plan)`, in batch order — the
    /// planning half of init, exposed for statistics and tests.
    /// Deterministic and computed once per batch. A [`Backend::Tuned`]
    /// entry reports its model-best candidate here; the measured winner
    /// is a runtime property (ask the live request's `protocol()`).
    pub fn plans(&self) -> &[(Protocol, Plan)] {
        &self.resolved().plans
    }

    /// The tag base carved for each entry, in batch order.
    pub fn tag_bases(&self) -> &[u64] {
        &self.resolved().tag_bases
    }

    /// [`ResolvedBatch::init_all`] on this batch's resolution (resolved on
    /// first use).
    pub fn init_all(&self, ctx: &RankCtx, comm: &Comm) -> BatchRequest {
        self.resolved().init_all(ctx, comm)
    }

    /// Resolve the batch, if it is not yet, and keep only the resolution:
    /// a value that no longer borrows the patterns or the topology.
    pub fn into_resolved(mut self) -> ResolvedBatch {
        self.resolved.take().unwrap_or_else(|| self.resolve())
    }
}

impl ResolvedBatch {
    /// `MPI_Neighbor_alltoallv_init` × N, as one operation: open the
    /// channel registry once and register every entry's requests in a
    /// single pass. Returns the
    /// rank's [`BatchRequest`] session — every entry's request in batch
    /// order, plus the completion-driven verbs (`start_all`, `test_any`,
    /// `wait_any`, `wait_all`) that drive them as one set.
    pub fn init_all(&self, ctx: &RankCtx, comm: &Comm) -> BatchRequest {
        for (_, plan) in &self.plans {
            assert_eq!(plan.n_ranks, comm.size(), "plan/communicator size mismatch");
        }
        let mut requests: Vec<Box<dyn NeighborRequest>> = if self.plans.is_empty() {
            Vec::new()
        } else {
            // clone this rank's routings (the bulk of the per-init
            // allocation work) BEFORE taking the registry lock: only
            // channel resolution itself runs inside the world-wide
            // critical section. Expanded order; each slot inits at most
            // once per init_all (a cached tuned winner leaves its losing
            // candidates' slots untouched).
            let mut routings: Vec<Option<RankRouting>> = self.routings[comm.rank()]
                .iter()
                .cloned()
                .map(Some)
                .collect();
            let mut reg = ctx.chan_registrar();
            let mut init_slot = |reg: &mut ChanRegistrar, slot: usize, protocol: Protocol| {
                NeighborExec::register(
                    routings[slot].take().expect("expanded slot inits once"),
                    reg,
                    comm,
                    protocol,
                    self.lease.clone(),
                )
            };
            self.expanded
                .iter()
                .enumerate()
                .map(|(i, ex)| -> Box<dyn NeighborRequest> {
                    let Some(tr) = &ex.tuned else {
                        return Box::new(init_slot(&mut reg, ex.start, self.plans[i].0));
                    };
                    let fabric = ctx.fabric();
                    // the profile cache and this entry's key on this
                    // fabric, if a cache directory is configured
                    let cache = tr.policy.profile_dir.as_ref().map(|dir| {
                        let key = ProfileKey {
                            pattern_sig: tr.pattern_sig,
                            topo_sig: tr.topo_sig,
                            size_bucket: tr.size_bucket,
                            fabric: fabric.to_string(),
                        };
                        (ProfileCache::new(dir), key)
                    });
                    // one cache consult per process per fabric, memoized:
                    // every rank — and every later epoch on a pooled world
                    // — sees the same answer, so channel registration never
                    // diverges mid-process
                    let winner = {
                        let mut consults = tr.consult.lock().expect("consult lock unpoisoned");
                        match consults.iter().find(|(f, _)| f == fabric) {
                            Some(&(_, w)) => w,
                            None => {
                                // unreadable/corrupt/missing cache, or a
                                // winner outside today's shortlist
                                // (admission factor changed) → probe
                                let w = cache.as_ref().and_then(|(cache, key)| {
                                    cache.lookup(key).and_then(|e| {
                                        tr.candidates
                                            .iter()
                                            .position(|(p, _, _)| p.name() == e.winner)
                                    })
                                });
                                consults.push((fabric.to_string(), w));
                                w
                            }
                        }
                    };
                    match winner {
                        // warm start: the cache already knows the winner —
                        // register only its channels and skip the probe
                        // phase entirely
                        Some(w) => Box::new(init_slot(&mut reg, ex.start + w, tr.candidates[w].0)),
                        // no usable cached winner → full probe
                        None => {
                            let candidates: Vec<TunedCandidate> = tr
                                .candidates
                                .iter()
                                .enumerate()
                                .map(|(c, &(protocol, msgs, bytes))| TunedCandidate {
                                    inner: Some(init_slot(&mut reg, ex.start + c, protocol)),
                                    protocol,
                                    msgs,
                                    bytes,
                                })
                                .collect();
                            Box::new(TunedNeighbor::new(
                                candidates,
                                tr.policy.probe_iters,
                                &mut reg,
                                comm,
                                tr.ctl_base,
                                cache.filter(|_| comm.rank() == 0),
                            ))
                        }
                    }
                })
                .collect()
        };
        let n = requests.len();
        // every queue and scratch at its largest size from the start, so
        // the steady state never grows one late: each entry's own scratch
        // holds the largest set its `wait` parks on
        let n_pending: usize = requests
            .iter_mut()
            .map(|r| r.chan_scratch().capacity())
            .sum();
        BatchRequest {
            chan_scratch: Vec::with_capacity(n_pending),
            requests,
            in_flight: vec![false; n],
            ready: std::collections::VecDeque::with_capacity(n),
        }
    }
}

impl NeighborBatch<'_> {
    fn resolved(&self) -> &ResolvedBatch {
        self.resolved.get_or_init(|| self.resolve())
    }

    fn resolve(&self) -> ResolvedBatch {
        let default_model;
        let model: &dyn CostModel = match self.model {
            Some(m) => m,
            None => {
                default_model = LocalityModel::lassen();
                &default_model
            }
        };
        // the policy is only materialized when a tuned entry exists, so
        // batches without one never read the environment
        let policy: Option<TunePolicy> = self
            .entries
            .iter()
            .any(|e| matches!(e.backend, Backend::Tuned))
            .then(|| {
                self.tune_policy
                    .clone()
                    .unwrap_or_else(TunePolicy::from_env)
            });

        // each entry's candidate list: exactly one plan for explicit /
        // Partitioned / Auto backends, the model's shortlist for Tuned
        // (a one-candidate shortlist needs no measurement and collapses
        // back to a plain entry)
        let per_entry: Vec<(Vec<(Protocol, Plan)>, bool)> = self
            .entries
            .iter()
            .map(|e| match e.backend {
                Backend::Protocol(p) => (
                    vec![(p, p.plan_with(e.pattern, self.topo, e.strategy))],
                    false,
                ),
                Backend::Partitioned(p) => {
                    let plan = p.plan_with(e.pattern, self.topo, e.strategy);
                    assert!(
                        plan.aggregated,
                        "Backend::Partitioned needs an aggregating protocol, got {p}"
                    );
                    (vec![(p, plan)], false)
                }
                Backend::Auto => {
                    let (p, plan, _) =
                        choose_with(&CANDIDATES, e.pattern, self.topo, model, e.strategy);
                    (vec![(p, plan)], false)
                }
                Backend::Tuned => {
                    let pol = policy.as_ref().expect("policy exists for tuned entries");
                    let cands: Vec<(Protocol, Plan)> = candidates_within(
                        &CANDIDATES,
                        e.pattern,
                        self.topo,
                        model,
                        e.strategy,
                        pol.factor,
                    )
                    .into_iter()
                    .map(|(p, plan, _)| (p, plan))
                    .collect();
                    let tuned = cands.len() > 1;
                    (cands, tuned)
                }
            })
            .collect();

        // one lease (or registered pin): a private namespace per expanded
        // candidate, plus one control span per tuned entry for the
        // decision reduction
        let expanded_total: usize = per_entry.iter().map(|(c, _)| c.len()).sum();
        let tuned_count = per_entry.iter().filter(|(_, t)| *t).count();
        let total_spans = (expanded_total + tuned_count) as u64;
        let (span_bases, lease): (Vec<u64>, Option<Arc<TagLease>>) = match self.pinned_tag_base {
            _ if total_spans == 0 => (Vec::new(), None),
            Some(base) => (
                (0..total_spans).map(|i| base + i * SPAN).collect(),
                Some(Arc::new(TagSpace::global().pin(base, total_spans))),
            ),
            None => {
                let lease = TagSpace::global().lease_for(
                    total_spans,
                    &format!("NeighborBatch[{} entries]", self.entries.len()),
                );
                (
                    (0..total_spans as usize)
                        .map(|i| lease.entry_base(i))
                        .collect(),
                    Some(Arc::new(lease)),
                )
            }
        };

        // one fused sweep derives all ranks × all expanded candidates'
        // routings
        let mut entry_plans: Vec<BatchEntryPlan> = Vec::with_capacity(expanded_total);
        // per expanded slot: is its routing split at the partition bounds
        let mut split: Vec<bool> = Vec::with_capacity(expanded_total);
        let mut expanded: Vec<ExpandedEntry> = Vec::with_capacity(self.entries.len());
        let mut next = 0usize;
        let mut next_ctl = expanded_total; // ctl spans follow the expanded spans
        for (e, (cands, is_tuned)) in self.entries.iter().zip(&per_entry) {
            let start = next;
            for (_, plan) in cands {
                entry_plans.push(BatchEntryPlan {
                    pattern: e.pattern,
                    plan,
                    tag_base: span_bases[next],
                    shared_arena: true,
                });
                split.push(matches!(e.backend, Backend::Partitioned(_)));
                next += 1;
            }
            let tuned = is_tuned.then(|| {
                let mean_bytes = ((e.pattern.total_slots() * VALUE_BYTES) as u64)
                    .checked_div(e.pattern.total_msgs() as u64)
                    .unwrap_or(0);
                let ctl_base = span_bases[next_ctl];
                next_ctl += 1;
                TunedResolution {
                    candidates: cands
                        .iter()
                        .map(|(p, plan)| {
                            let st = PlanStats::of(plan);
                            (
                                *p,
                                (st.max_local_msgs + st.max_global_msgs) as f64,
                                st.max_global_bytes as f64,
                            )
                        })
                        .collect(),
                    ctl_base,
                    policy: policy.clone().expect("policy exists for tuned entries"),
                    pattern_sig: e.pattern.pattern_signature(),
                    topo_sig: topology_signature(self.topo),
                    size_bucket: size_bucket(mean_bytes),
                    consult: Mutex::new(Vec::new()),
                }
            });
            expanded.push(ExpandedEntry { start, tuned });
        }
        let mut routings = RankRouting::build_all_batch(&entry_plans);
        drop(entry_plans); // release the borrows on per_entry's plans

        // Backend::Partitioned is this split of its routing and nothing
        // else: it runs on the one wire every entry runs on
        if split.contains(&true) {
            for per_rank in &mut routings {
                *per_rank = std::mem::take(per_rank)
                    .into_iter()
                    .zip(&split)
                    .map(|(r, &s)| if s { r.split_at_partitions() } else { r })
                    .collect();
            }
        }

        let tag_bases: Vec<u64> = expanded.iter().map(|ex| span_bases[ex.start]).collect();
        let plans: Vec<(Protocol, Plan)> = per_entry
            .into_iter()
            .map(|(mut cands, _)| cands.swap_remove(0))
            .collect();

        ResolvedBatch {
            plans,
            tag_bases,
            routings,
            lease,
            expanded,
        }
    }
}

/// Index of one collective within its batch, in entry order.
pub type EntryId = usize;

/// One rank's **live session** over an initialized [`NeighborBatch`]: the
/// entries' [`NeighborRequest`]s in batch order, plus the
/// completion-driven verbs that drive them as one set.
///
/// The session model is `MPI_Startall` / `MPI_Testany` / `MPI_Waitany` /
/// `MPI_Waitall` lifted to whole collectives: [`BatchRequest::start_all`]
/// posts every entry's iteration, and [`BatchRequest::wait_any`] retires
/// **whichever entry's traffic lands first** — it parks on the union of
/// all in-flight entries' pending channels, drains arrivals via each
/// entry's `test`, and returns the first entry that completes. An AMG
/// V-cycle smooths each level the moment its halo exchange finishes
/// instead of serializing on whichever level is slowest.
pub struct BatchRequest {
    requests: Vec<Box<dyn NeighborRequest>>,
    /// Entries with a started, not-yet-completed iteration.
    in_flight: Vec<bool>,
    /// Completed-but-unreported entries: each `test_any` round sweeps
    /// EVERY in-flight entry (so all drainable traffic drains and all
    /// fireable forwards fire before control returns to the caller's
    /// compute), then reports completions one at a time from this queue.
    ready: std::collections::VecDeque<EntryId>,
    /// Scratch for the union pending-channel set `wait_any` parks on.
    chan_scratch: Vec<ChanId>,
}

impl BatchRequest {
    /// Number of entries in the session.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Number of entries with a started iteration not yet retired by the
    /// caller (through [`BatchRequest::test_any`] /
    /// [`BatchRequest::wait_any`]) — the `while session.in_flight() > 0`
    /// retire-loop condition. Includes entries whose traffic has already
    /// completed but whose id has not been reported yet.
    pub fn in_flight(&self) -> usize {
        self.in_flight.iter().filter(|&&f| f).count() + self.ready.len()
    }

    /// The entries' requests, in batch order.
    pub fn requests(&self) -> &[Box<dyn NeighborRequest>] {
        &self.requests
    }

    /// Mutable access to the entries — for driving one entry individually
    /// through its own `start`/`test`/`wait`. Iterations driven that way
    /// bypass the session's in-flight tracking: mix the two styles per
    /// *iteration*, not per entry mid-iteration.
    pub fn requests_mut(&mut self) -> &mut [Box<dyn NeighborRequest>] {
        &mut self.requests
    }

    /// Dissolve the session into its requests (batch order).
    pub fn into_requests(self) -> Vec<Box<dyn NeighborRequest>> {
        self.requests
    }

    /// One entry's request.
    pub fn entry(&self, e: EntryId) -> &dyn NeighborRequest {
        &*self.requests[e]
    }

    /// `MPI_Start` for one entry: begin its iteration with `input` (aligned
    /// with its `input_index()`) and track it as in flight.
    pub fn start(&mut self, ctx: &mut RankCtx, e: EntryId, input: &[f64]) {
        assert!(
            !self.in_flight[e] && !self.ready.contains(&e),
            "entry {e} started again before its iteration was retired"
        );
        self.requests[e].start(ctx, input);
        self.in_flight[e] = true;
    }

    /// `MPI_Startall`: begin one iteration of **every** entry.
    /// `inputs[e]` is entry `e`'s input (aligned with its `input_index()`).
    /// Never blocks — no entry's `start` waits for traffic, so the entries
    /// are all posted before any is completed.
    pub fn start_all(&mut self, ctx: &mut RankCtx, inputs: &[Vec<f64>]) {
        assert_eq!(
            inputs.len(),
            self.requests.len(),
            "one input per batch entry"
        );
        for (e, input) in inputs.iter().enumerate() {
            self.start(ctx, e, input);
        }
    }

    /// `MPI_Testany`: non-blocking progress across every in-flight entry.
    /// Sweeps **all** of them — draining whatever payloads have arrived
    /// and firing any forwards whose inputs just completed, so the whole
    /// session makes maximal progress before control returns to the
    /// caller's compute — then retires one completed entry (its ghost
    /// values are in `outputs[e]`) and returns its id. Entries that
    /// completed in the same sweep are reported by subsequent calls, in
    /// completion order. `None` means no entry is complete *yet*; entries
    /// never started are never returned.
    pub fn test_any(&mut self, ctx: &mut RankCtx, outputs: &mut [Vec<f64>]) -> Option<EntryId> {
        assert_eq!(
            outputs.len(),
            self.requests.len(),
            "one output per batch entry"
        );
        for (e, req) in self.requests.iter_mut().enumerate() {
            if self.in_flight[e] && req.test(ctx, &mut outputs[e]) {
                self.in_flight[e] = false;
                self.ready.push_back(e);
            }
        }
        self.ready.pop_front()
    }

    /// Append every in-flight entry's pending channels to `out`: the
    /// union wake set [`BatchRequest::wait_any`] parks on, exposed so an
    /// external driver (the solve service's scheduler) can park once
    /// across several sessions and wake the right one.
    pub fn pending_chans(&self, out: &mut Vec<ChanId>) {
        for (e, req) in self.requests.iter().enumerate() {
            if self.in_flight[e] {
                req.pending_chans(out);
            }
        }
    }

    /// `MPI_Waitany`: block until **some** in-flight entry completes and
    /// return its id (its ghost values are in `outputs[e]`). Completion is
    /// in **delivery order**: between [`BatchRequest::test_any`] rounds the
    /// call parks on the union of all in-flight entries' pending channels,
    /// so whichever entry's traffic lands first retires first — the
    /// overlap loop `while let Some(e) = ... { compute on e }` never idles
    /// on a slow entry while a fast one is already complete.
    ///
    /// Panics if nothing is in flight (there is nothing to wait for).
    pub fn wait_any(&mut self, ctx: &mut RankCtx, outputs: &mut [Vec<f64>]) -> EntryId {
        assert!(self.in_flight() > 0, "wait_any with no entry in flight");
        loop {
            if let Some(e) = self.test_any(ctx, outputs) {
                return e;
            }
            let mut chans = std::mem::take(&mut self.chan_scratch);
            chans.clear();
            self.pending_chans(&mut chans);
            ctx.wait_any(&chans);
            self.chan_scratch = chans;
        }
    }

    /// `MPI_Waitall`: retire every in-flight entry (a `wait_any` loop, so
    /// entries still complete in delivery order).
    pub fn wait_all(&mut self, ctx: &mut RankCtx, outputs: &mut [Vec<f64>]) {
        while self.in_flight() > 0 {
            self.wait_any(ctx, outputs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tagspace;
    use mpisim::World;

    fn patterns() -> (CommPattern, CommPattern, Topology) {
        let a = CommPattern::example_2_1();
        let b = CommPattern::new(
            8,
            vec![
                vec![(1, vec![0]), (5, vec![0, 1])],
                vec![(4, vec![10]), (6, vec![11])],
                vec![(7, vec![20, 21])],
                vec![],
                vec![(0, vec![40]), (1, vec![40]), (2, vec![41])],
                vec![(6, vec![50])],
                vec![(3, vec![60]), (0, vec![61])],
                vec![],
            ],
        );
        (a, b, Topology::block_nodes(8, 4))
    }

    /// Drive every entry of `batch` for two interleaved iterations through
    /// the session verbs (`start_all`, then a `wait_any` retire loop) and
    /// check all ghost values deliver, every entry exactly once.
    fn deliver_all(batch: &NeighborBatch, n_ranks: usize) {
        let ok = World::run(n_ranks, |ctx| {
            let comm = ctx.comm_world();
            let mut session = batch.init_all(ctx, &comm);
            let mut ok = true;
            for it in 0..2u64 {
                // start every entry before waiting on any: live-together,
                // the shape the session exists for
                let inputs: Vec<Vec<f64>> = session
                    .requests()
                    .iter()
                    .map(|r| {
                        r.input_index()
                            .iter()
                            .map(|&i| (i as f64) + it as f64 * 0.5)
                            .collect()
                    })
                    .collect();
                let mut outputs: Vec<Vec<f64>> = session
                    .requests()
                    .iter()
                    .map(|r| vec![f64::NAN; r.output_index().len()])
                    .collect();
                session.start_all(ctx, &inputs);
                let mut retired = vec![false; session.len()];
                while session.in_flight() > 0 {
                    let e = session.wait_any(ctx, &mut outputs);
                    ok &= !std::mem::replace(&mut retired[e], true);
                    ok &= session
                        .entry(e)
                        .output_index()
                        .iter()
                        .zip(&outputs[e])
                        .all(|(&i, &v)| v == (i as f64) + it as f64 * 0.5);
                }
                ok &= retired.iter().all(|&r| r);
            }
            ok
        });
        assert!(ok.into_iter().all(|b| b), "a batch entry failed to deliver");
    }

    #[test]
    fn mixed_backend_batch_delivers() {
        let (a, b, topo) = patterns();
        let mixed = NeighborBatch::new(&topo)
            .entry(&a, Backend::Protocol(Protocol::StandardNeighbor))
            .entry(&b, Backend::Partitioned(Protocol::FullNeighbor))
            .entry(&a, Backend::Auto)
            .entry(&b, Backend::Protocol(Protocol::PartialNeighbor));
        assert_eq!(mixed.len(), 4);
        // several entries over the same region pairs, live together
        let same_pattern = NeighborBatch::new(&topo)
            .entry(&a, Backend::Protocol(Protocol::FullNeighbor))
            .entry(&a, Backend::Protocol(Protocol::FullNeighbor))
            .entry(&a, Backend::Protocol(Protocol::PartialNeighbor));
        for batch in [&mixed, &same_pattern] {
            deliver_all(batch, 8);
        }
    }

    #[test]
    fn entries_get_disjoint_tag_spans() {
        let (a, b, topo) = patterns();
        let batch = NeighborBatch::new(&topo)
            .entry(&a, Backend::Auto)
            .entry(&b, Backend::Auto)
            .entry(&a, Backend::Auto);
        let bases = batch.tag_bases();
        assert_eq!(bases.len(), 3);
        for w in bases.windows(2) {
            assert_eq!(w[1] - w[0], tagspace::SPAN, "contiguous per-entry spans");
        }
    }

    #[test]
    fn a_permissive_tuned_entry_expands_to_one_slot_per_distinct_plan() {
        // the two standard protocols share one plan: admitting everything
        // must lay out (and later probe) that traffic once, not twice
        let (a, b, topo) = patterns();
        let batch = NeighborBatch::new(&topo)
            .entry(&a, Backend::Tuned)
            .entry(&b, Backend::Auto)
            .entry(&b, Backend::Tuned)
            .tune_policy(TunePolicy::default().with_factor(1.0e12));
        let resolved = batch.resolved();
        let starts: Vec<usize> = resolved.expanded.iter().map(|e| e.start).collect();
        assert_eq!(starts, [0, 3, 4]);
        for e in [&resolved.expanded[0], &resolved.expanded[2]] {
            let probed = &e.tuned.as_ref().unwrap().candidates;
            assert_eq!(probed.len(), 3);
            assert!(probed.iter().all(|c| c.0 != Protocol::StandardNeighbor));
        }
        assert!(resolved.routings.iter().all(|r| r.len() == 7));
    }

    #[test]
    fn live_requests_pin_their_tag_span() {
        // requests outlive their builder: the tag span must stay leased —
        // and never be handed to a new collective — until the requests
        // drop too, or a successor batch would attach to the live
        // requests' channels and cross-deliver
        let (a, _, topo) = patterns();
        let batch_a =
            NeighborBatch::new(&topo).entry(&a, Backend::Protocol(Protocol::StandardNeighbor));
        let base_a = batch_a.tag_bases()[0];
        let reqs = World::run(8, |ctx| {
            let comm = ctx.comm_world();
            batch_a.init_all(ctx, &comm).into_requests()
        });
        drop(batch_a);
        // builder gone, requests live: the base must NOT be re-leased
        let batch_b = NeighborBatch::new(&topo).entry(&a, Backend::Auto);
        assert_ne!(
            batch_b.tag_bases()[0],
            base_a,
            "tag span re-leased while its requests are still live"
        );
        drop(reqs);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let topo = Topology::block_nodes(4, 2);
        let batch = NeighborBatch::new(&topo);
        let counts = World::run(4, |ctx| {
            let comm = ctx.comm_world();
            batch.init_all(ctx, &comm).len()
        });
        assert!(counts.into_iter().all(|c| c == 0));
    }

    #[test]
    #[should_panic(expected = "pattern/topology rank count mismatch")]
    fn rank_count_mismatch_rejected_at_entry() {
        let pattern = CommPattern::example_2_1();
        let topo = Topology::block_nodes(4, 2);
        let _ = NeighborBatch::new(&topo).entry(&pattern, Backend::Auto);
    }

    #[test]
    fn plan_communicator_size_mismatch_fails_loudly_on_both_backends() {
        // a batch planned for 8 ranks initialized on a 4-rank pool
        let (a, _, topo) = patterns();
        let pool = World::pool(4);
        for backend in [
            Backend::Protocol(Protocol::FullNeighbor),
            Backend::Partitioned(Protocol::FullNeighbor),
        ] {
            let batch = NeighborBatch::new(&topo).entry(&a, backend);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(|ctx| {
                    let comm = ctx.comm_world();
                    batch.init_all(ctx, &comm).len()
                })
            }))
            .expect_err("mismatched init must panic");
            let msg = payload.downcast_ref::<String>().expect("assert message");
            assert!(
                msg.contains("plan/communicator size mismatch"),
                "{backend:?}: {msg}"
            );
        }
    }

    #[test]
    fn batch_on_a_pooled_world_reinitializes_warm() {
        let (a, b, topo) = patterns();
        let batch = NeighborBatch::new(&topo)
            .entry(&a, Backend::Protocol(Protocol::FullNeighbor))
            .entry(&b, Backend::Partitioned(Protocol::PartialNeighbor));
        let pool = World::pool(8);
        for _ in 0..3 {
            let ok = pool.run(|ctx| {
                let comm = ctx.comm_world();
                let mut session = batch.init_all(ctx, &comm);
                session.requests_mut().iter_mut().all(|r| {
                    let input: Vec<f64> = r.input_index().iter().map(|&i| i as f64).collect();
                    let mut output = vec![f64::NAN; r.output_index().len()];
                    r.start_wait(ctx, &input, &mut output);
                    r.output_index()
                        .iter()
                        .zip(&output)
                        .all(|(&i, &v)| v == i as f64)
                })
            });
            assert!(ok.into_iter().all(|b| b));
        }
    }

    #[test]
    fn test_any_reports_progress_without_blocking() {
        // with no traffic sent for entry 0's iteration... all entries'
        // sends fire in start, so instead: pin non-blocking semantics by
        // calling test_any before/after start_all and between completions
        let (a, b, topo) = patterns();
        let batch = NeighborBatch::new(&topo)
            .entry(&a, Backend::Protocol(Protocol::FullNeighbor))
            .entry(&b, Backend::Protocol(Protocol::StandardNeighbor));
        let ok = World::run(8, |ctx| {
            let comm = ctx.comm_world();
            let mut session = batch.init_all(ctx, &comm);
            let mut outputs: Vec<Vec<f64>> = session
                .requests()
                .iter()
                .map(|r| vec![f64::NAN; r.output_index().len()])
                .collect();
            // nothing in flight: test_any must be None, not a panic
            assert_eq!(session.test_any(ctx, &mut outputs), None);
            let inputs: Vec<Vec<f64>> = session
                .requests()
                .iter()
                .map(|r| r.input_index().iter().map(|&i| i as f64).collect())
                .collect();
            session.start_all(ctx, &inputs);
            assert_eq!(session.in_flight(), 2);
            // drive to completion on test_any alone (no parking): both
            // entries must retire exactly once
            let mut retired = [false, false];
            while session.in_flight() > 0 {
                if let Some(e) = session.test_any(ctx, &mut outputs) {
                    assert!(!std::mem::replace(&mut retired[e], true));
                } else {
                    std::thread::yield_now();
                }
            }
            let mut ok = retired.iter().all(|&r| r);
            for (e, out) in outputs.iter().enumerate() {
                ok &= session
                    .entry(e)
                    .output_index()
                    .iter()
                    .zip(out)
                    .all(|(&i, &v)| v == i as f64);
            }
            ok
        });
        assert!(ok.into_iter().all(|b| b));
    }

    #[test]
    #[should_panic(expected = "wait_any with no entry in flight")]
    fn wait_any_without_started_entries_panics() {
        let (a, _, topo) = patterns();
        let batch = NeighborBatch::new(&topo).entry(&a, Backend::Auto);
        World::run(8, |ctx| {
            let comm = ctx.comm_world();
            let mut session = batch.init_all(ctx, &comm);
            let mut outputs = vec![vec![0.0; session.entry(0).output_index().len()]];
            session.wait_any(ctx, &mut outputs);
        });
    }
}
