//! `NeighborBatch`: plan, tag, and stage many collectives as one.
//!
//! `NeighborBatch` is the one builder of persistent neighborhood
//! collectives: a one-entry batch is `MPI_Neighbor_alltoallv_init` (see
//! [`crate::neighbor`]). The paper's workload is never a single collective,
//! though: an AMG solve keeps one persistent `Neighbor_alltoallv` live *per
//! level*, plus residual and restriction exchanges — many simultaneously
//! live patterns on one communicator. One batch per pattern would pay a
//! full planning-and-routing pass and a tag lease per pattern; one batch of
//! all of them is the session that owns the whole set:
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
//! What the session fuses, relative to N one-entry batches:
//!
//! * **Planning** — every entry's backend resolves up front, in one place,
//!   sharing one default cost model.
//! * **The wire** — entries that share a backend ([`Backend::Tuned`]
//!   aside) form a *union*: one collective over the union of their
//!   patterns, each entry's indices shifted past the largest index of the
//!   entries before it. It is planned once ([`Backend::Auto`] chooses on
//!   the union, [`Backend::Partitioned`] splits the union's routing), so a
//!   rank pair exchanges one message per step for the whole group instead
//!   of one per entry. On every rank each entry's values are one
//!   contiguous range of the union's `input_index`/`output_index`.
//! * **Tags** — one [`crate::tagspace::TagLease`] is carved into
//!   per-entry namespaces, plus one per union; nothing touches a global
//!   counter per entry, and exhaustion of the (re-usable) tag space is a
//!   loud panic.
//! * **Routing** — one [`RankRouting::build_all_batch`] sweep derives all
//!   ranks' routings of every wire `init_all` registers.
//! * **Registration** — [`NeighborBatch::init_all`] opens the world's
//!   channel registry once ([`mpisim::ChanRegistrar`]) and registers every
//!   wire's channels in a single pass: a union's, and the own wire of
//!   every entry outside a union.
//!
//! Each rank gets back a [`BatchRequest`] session: its entries as
//! [`crate::NeighborRequest`] trait objects, in batch order — delivering
//! byte for byte what N one-entry batches deliver — plus the
//! completion-driven verbs ([`BatchRequest::start_all`],
//! [`BatchRequest::test_any`], [`BatchRequest::wait_any`],
//! [`BatchRequest::wait_all`]) that drive the whole set as one session.
//! `start_all` runs each union as one collective: it is collective over
//! the batch, so in any one iteration every rank starts the session either
//! with `start_all` or entry by entry. A union's entries retire together,
//! in entry order, once the union completes; everything else retires in
//! **delivery order**. An entry started on its own
//! ([`BatchRequest::start`], or its request driven directly) runs its own
//! independent collective, exactly a one-entry batch's; a union member's
//! routing and channels are built at its first such start, so a session
//! that only ever calls `start_all` never pays for them.

use crate::collective::select::{candidates_within, choose_with};
use crate::collective::Protocol;
use crate::exec::NeighborExec;
use crate::neighbor::{Backend, NeighborRequest};
use crate::pattern::CommPattern;
use crate::routing::{BatchEntryPlan, RankRouting};
use crate::stats::VALUE_BYTES;
use crate::tagspace::{TagLease, TagSpace};
use crate::tune::{topology_signature, TunedCandidate, TunedNeighbor};
use crate::Plan;
use locality::Topology;
use mpisim::{ChanId, ChanRegistrar, Comm, RankCtx};
use perfmodel::{CostModel, LocalityModel};
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};
use tuner::{size_bucket, ProfileCache, ProfileKey, TunePolicy};

struct EntrySpec<'a> {
    pattern: &'a CommPattern,
    backend: Backend,
}

/// The resolved half of a [`NeighborBatch`]: carved tags and every rank's
/// routing, planned once and shared by all ranks' `init_all`. It
/// owns everything `init_all` reads and borrows nothing of the builder, so
/// it can outlive the patterns and topology it was resolved from
/// ([`NeighborBatch::into_resolved`]) — the solve service keeps one per
/// job shape across epochs.
///
/// `routings` holds one routing per *slot*, a wire `init_all` registers:
/// an entry outside any union owns one slot; a [`Backend::Tuned`] entry
/// **expands** to one slot (and tag span) per shortlisted candidate, all
/// laid out in the same fused sweep, so the probe phase hot-swaps between
/// fully-initialized executors; each union owns one slot after those.
/// `tag_bases` stays per-entry: a union member keeps a span for its own
/// collective.
pub struct ResolvedBatch {
    n_ranks: usize,
    tag_bases: Vec<u64>,
    /// `routings[rank][slot]`: each rank's routing per slot, shared with
    /// every request initialized on it.
    routings: Vec<Vec<Arc<RankRouting>>>,
    /// Held by the batch AND cloned into every request it initializes:
    /// the span frees (and its base becomes re-usable) only when the
    /// batch and all of its live requests are gone.
    lease: Option<Arc<TagLease>>,
    wires: Vec<EntryWire>,
    unions: Vec<UnionWire>,
}

/// What one entry runs on.
enum EntryWire {
    /// Its own collective, on one slot registered at init.
    Slot(usize, Protocol),
    /// A tuned entry: one slot per candidate, consecutive from `start`.
    Tuned {
        start: usize,
        tuned: TunedResolution,
    },
    /// A member of union `union`; its own collective is built on its
    /// first start on its own.
    Member { union: usize, own: Arc<OwnWire> },
}

/// The resolution-time half of one union.
struct UnionWire {
    /// The union's slot.
    slot: usize,
    /// The protocol its plan runs (under `Auto`, chosen on the union).
    protocol: Protocol,
    /// The member entries, in entry order.
    members: Vec<EntryId>,
    /// Member `k`'s values are the union's indices in
    /// `shifts[k]..shifts[k + 1]`.
    shifts: Vec<usize>,
}

/// A union member's own collective, planned and routed on first use:
/// every rank that starts the entry on its own shares one sweep of its
/// plan.
struct OwnWire {
    pattern: CommPattern,
    topo: Arc<Topology>,
    protocol: Protocol,
    tag_base: u64,
    /// Whether its routing is split at the partition bounds.
    split: bool,
    /// Every rank's `(input_index, output_index)`, known before the
    /// routing is: the member's run of the union's.
    index: Vec<(Vec<usize>, Vec<usize>)>,
    routings: OnceLock<Vec<Arc<RankRouting>>>,
}

impl OwnWire {
    /// `rank`'s routing, from the one sweep the first caller runs.
    fn routing(&self, rank: usize) -> Arc<RankRouting> {
        let all = self.routings.get_or_init(|| {
            let plan = self.protocol.plan(&self.pattern, &self.topo);
            RankRouting::build_all(&self.pattern, &plan, self.tag_base)
                .into_iter()
                .map(|r| {
                    Arc::new(if self.split {
                        r.split_at_partitions()
                    } else {
                        r
                    })
                })
                .collect()
        });
        Arc::clone(&all[rank])
    }
}

/// The resolution-time half of one tuned entry's machinery.
struct TunedResolution {
    /// The candidates, model-ranked cheapest first — probe order and
    /// tie-break order.
    candidates: Vec<Protocol>,
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
/// staged together. See the [module docs](self) for the full contract:
/// SPMD-agreed inputs, deterministic resolution, every rank shares the
/// builder.
///
/// Defaults: the Lassen locality model drives [`Backend::Auto`], and a
/// non-empty batch leases its tag namespace from the process-wide
/// [`TagSpace`], so that concurrently live collectives never share tag
/// space (the lease frees — and its base is re-used — once the batch and
/// every request it initialized drop). Ranks agree on the base because
/// they share the builder (or, in a real multi-process setting, construct
/// builders in the same SPMD order — the same determinism planning
/// already relies on).
pub struct NeighborBatch<'a> {
    topo: &'a Topology,
    entries: Vec<EntrySpec<'a>>,
    model: Option<&'a dyn CostModel>,
    tune_policy: Option<TunePolicy>,
    resolved: OnceLock<ResolvedBatch>,
    plans: OnceLock<Vec<(Protocol, Plan)>>,
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
            resolved: OnceLock::new(),
            plans: OnceLock::new(),
        }
    }

    /// Append one collective (e.g. one AMG level's halo pattern).
    pub fn entry(mut self, pattern: &'a CommPattern, backend: Backend) -> Self {
        assert_eq!(
            pattern.n_ranks,
            self.topo.n_ranks(),
            "pattern/topology rank count mismatch"
        );
        self.entries.push(EntrySpec { pattern, backend });
        self.resolved = OnceLock::new();
        self.plans = OnceLock::new();
        self
    }

    /// Cost model driving every [`Backend::Auto`] entry (default: the
    /// Lassen-calibrated locality model).
    pub fn cost_model(mut self, model: &'a dyn CostModel) -> Self {
        self.model = Some(model);
        self.resolved = OnceLock::new();
        self.plans = OnceLock::new();
        self
    }

    /// Tuning policy for every [`Backend::Tuned`] entry (default:
    /// [`TunePolicy::from_env`] — the default budgets, with the profile
    /// cache where `MPISIM_PROFILE_DIR` says). A cache directory of one's
    /// own, or another probe budget, is set here.
    pub fn tune_policy(mut self, policy: TunePolicy) -> Self {
        self.tune_policy = Some(policy);
        self.resolved = OnceLock::new();
        self.plans = OnceLock::new();
        self
    }

    /// Number of collectives in the session.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every entry's own `(protocol, plan)`, in batch order: what the
    /// entry runs when it is started on its own, exposed for statistics
    /// and tests. Deterministic and computed once per batch. A
    /// [`Backend::Tuned`] entry reports its model-best candidate here; the
    /// measured winner is a runtime property (ask the live request's
    /// `protocol()`). A union member's protocol is its union's — under
    /// [`Backend::Auto`], the choice made on the union — and `start_all`
    /// runs the union's plan.
    pub fn plans(&self) -> &[(Protocol, Plan)] {
        self.plans.get_or_init(|| {
            let resolved = self.resolved();
            (self.entries.iter().zip(&resolved.wires))
                .map(|(spec, wire)| {
                    let p = match wire {
                        EntryWire::Slot(_, p) => *p,
                        EntryWire::Tuned { tuned, .. } => tuned.candidates[0],
                        EntryWire::Member { own, .. } => own.protocol,
                    };
                    (p, p.plan(spec.pattern, self.topo))
                })
                .collect()
        })
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
    /// channel registry once and register, in a single pass, the wire of
    /// every entry outside a union and one wire per union. Returns the
    /// rank's [`BatchRequest`] session — every entry's request in batch
    /// order, plus the completion-driven verbs (`start_all`, `test_any`,
    /// `wait_any`, `wait_all`) that drive them as one set.
    pub fn init_all(&self, ctx: &RankCtx, comm: &Comm) -> BatchRequest {
        if self.wires.is_empty() {
            return BatchRequest::new(Vec::new(), Vec::new(), Vec::new());
        }
        assert_eq!(self.n_ranks, comm.size(), "plan/communicator size mismatch");
        // slot order; a cached tuned winner leaves its losing candidates'
        // slots untouched
        let routings = &self.routings[comm.rank()];
        let mut reg = ctx.chan_registrar();
        let init_slot = |reg: &mut ChanRegistrar, slot: usize, protocol: Protocol| {
            NeighborExec::register(
                Arc::clone(&routings[slot]),
                reg,
                comm,
                protocol,
                self.lease.clone(),
            )
        };
        let requests: Vec<Box<dyn NeighborRequest>> = self
            .wires
            .iter()
            .map(|wire| -> Box<dyn NeighborRequest> {
                let (start, tr) = match wire {
                    EntryWire::Slot(slot, protocol) => {
                        return Box::new(init_slot(&mut reg, *slot, *protocol))
                    }
                    EntryWire::Member { own, .. } => {
                        return Box::new(OwnRequest {
                            wire: Arc::clone(own),
                            comm: comm.clone(),
                            lease: self.lease.clone(),
                            exec: None,
                            idle_scratch: Vec::new(),
                        })
                    }
                    EntryWire::Tuned { start, tuned } => (*start, tuned),
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
                                    tr.candidates.iter().position(|p| p.name() == e.winner)
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
                    Some(w) => Box::new(init_slot(&mut reg, start + w, tr.candidates[w])),
                    // no usable cached winner → full probe
                    None => {
                        let candidates: Vec<TunedCandidate> = tr
                            .candidates
                            .iter()
                            .enumerate()
                            .map(|(c, &protocol)| TunedCandidate {
                                inner: Some(init_slot(&mut reg, start + c, protocol)),
                                protocol,
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
            .collect();
        let unions: Vec<LiveUnion> = self
            .unions
            .iter()
            .map(|u| {
                let routing = &*routings[u.slot];
                // member k's run of a sorted index list: the indices
                // shifted into its range
                let run = |index: &[usize], k: usize| {
                    let at = |shift: usize| index.partition_point(|&i| i < shift);
                    at(u.shifts[k])..at(u.shifts[k + 1])
                };
                let members = (u.members.iter().enumerate())
                    .map(|(k, &entry)| UnionMember {
                        entry,
                        input: run(&routing.input_index, k),
                        output: run(&routing.output_index, k),
                    })
                    .collect();
                LiveUnion {
                    input: vec![0.0; routing.input_index.len()],
                    output: vec![0.0; routing.output_index.len()],
                    exec: init_slot(&mut reg, u.slot, u.protocol),
                    members,
                    live: false,
                }
            })
            .collect();
        let union_of = (self.wires.iter())
            .map(|w| match w {
                EntryWire::Member { union, .. } => Some(*union),
                _ => None,
            })
            .collect();
        BatchRequest::new(requests, unions, union_of)
    }
}

impl NeighborBatch<'_> {
    fn resolved(&self) -> &ResolvedBatch {
        self.resolved.get_or_init(|| self.resolve())
    }

    /// The cost model every `Auto` choice and tuned shortlist reads, built
    /// in `default` when none was set.
    fn model<'m>(&'m self, default: &'m mut Option<LocalityModel>) -> &'m dyn CostModel {
        match self.model {
            Some(m) => m,
            None => default.insert(LocalityModel::lassen()),
        }
    }

    /// Plan one entry's own collective the way it resolves alone.
    fn plan_entry(&self, spec: &EntrySpec, model: &dyn CostModel) -> (Protocol, Plan) {
        match spec.backend {
            Backend::Protocol(p) => (p, p.plan(spec.pattern, self.topo)),
            Backend::Partitioned(p) => {
                let plan = p.plan(spec.pattern, self.topo);
                assert_aggregating(p, &plan);
                (p, plan)
            }
            Backend::Auto | Backend::Tuned => {
                let (p, plan, _) = choose_with(&Protocol::ALL, spec.pattern, self.topo, model);
                (p, plan)
            }
        }
    }

    fn resolve(&self) -> ResolvedBatch {
        let mut default_model = None;
        let model = self.model(&mut default_model);
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

        // the unions: entries that share a backend, two or more of them,
        // Tuned aside (its probe and decision stay per entry)
        let mut groups: Vec<(Backend, Vec<EntryId>)> = Vec::new();
        for (e, spec) in self.entries.iter().enumerate() {
            if spec.backend == Backend::Tuned {
                continue;
            }
            match groups.iter_mut().find(|(b, _)| *b == spec.backend) {
                Some((_, members)) => members.push(e),
                None => groups.push((spec.backend, vec![e])),
            }
        }
        groups.retain(|(_, members)| members.len() > 1);
        let mut union_of: Vec<Option<usize>> = vec![None; self.entries.len()];
        for (u, (_, members)) in groups.iter().enumerate() {
            members.iter().for_each(|&e| union_of[e] = Some(u));
        }

        // each entry's candidate list: exactly one plan for explicit /
        // Partitioned / Auto backends, the model's shortlist for Tuned
        // (a one-candidate shortlist needs no measurement and collapses
        // back to a plain entry); none for a union member, whose own
        // collective is planned at its first start on its own
        let per_entry: Vec<(Vec<(Protocol, Plan)>, bool)> = (self.entries.iter())
            .zip(&union_of)
            .map(|(spec, union)| match (spec.backend, union) {
                (_, Some(_)) => (Vec::new(), false),
                (Backend::Tuned, None) => {
                    let pol = policy.as_ref().expect("policy exists for tuned entries");
                    let cands: Vec<(Protocol, Plan)> = candidates_within(
                        &Protocol::ALL,
                        spec.pattern,
                        self.topo,
                        model,
                        pol.factor,
                    )
                    .into_iter()
                    .map(|(p, plan, _)| (p, plan))
                    .collect();
                    let tuned = cands.len() > 1;
                    (cands, tuned)
                }
                (_, None) => (vec![self.plan_entry(spec, model)], false),
            })
            .collect();
        // each union planned once over its shifted patterns
        let union_plans: Vec<(CommPattern, Vec<usize>, Protocol, Plan)> = groups
            .iter()
            .map(|(backend, members)| {
                let patterns: Vec<&CommPattern> =
                    members.iter().map(|&e| self.entries[e].pattern).collect();
                let (pattern, shifts) = CommPattern::shifted_union(&patterns);
                let spec = EntrySpec {
                    pattern: &pattern,
                    backend: *backend,
                };
                let (protocol, plan) = self.plan_entry(&spec, model);
                (pattern, shifts, protocol, plan)
            })
            .collect();

        // one lease: a private namespace per expanded candidate (a union
        // member's own collective included), one control span per tuned
        // entry for the decision reduction, one span per union
        let expanded_total: usize = per_entry.iter().map(|(c, _)| c.len().max(1)).sum();
        let tuned_count = per_entry.iter().filter(|(_, t)| *t).count();
        let total_spans = (expanded_total + tuned_count + groups.len()) as u64;
        let (span_bases, lease): (Vec<u64>, Option<Arc<TagLease>>) = if total_spans == 0 {
            (Vec::new(), None)
        } else {
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
        };

        // one fused sweep derives all ranks' routings of every slot: the
        // entries' own wires that init registers, then the unions
        let mut slot_plans: Vec<BatchEntryPlan> = Vec::with_capacity(expanded_total);
        // per slot: is its routing split at the partition bounds
        let mut split: Vec<bool> = Vec::with_capacity(expanded_total);
        let mut wires: Vec<EntryWire> = Vec::with_capacity(self.entries.len());
        let mut tag_bases: Vec<u64> = Vec::with_capacity(self.entries.len());
        let mut next_span = 0usize;
        let mut next_ctl = expanded_total; // ctl spans follow the expanded spans
        let topo = Arc::new(self.topo.clone());
        for (e, (spec, (cands, is_tuned))) in self.entries.iter().zip(&per_entry).enumerate() {
            let partitioned = matches!(spec.backend, Backend::Partitioned(_));
            tag_bases.push(span_bases[next_span]);
            if let Some(union) = union_of[e] {
                let own = OwnWire {
                    pattern: spec.pattern.clone(),
                    topo: Arc::clone(&topo),
                    // alone too: Auto's choice is the union's
                    protocol: union_plans[union].2,
                    tag_base: span_bases[next_span],
                    split: partitioned,
                    index: Vec::new(), // read off the union's routing below
                    routings: OnceLock::new(),
                };
                next_span += 1;
                wires.push(EntryWire::Member {
                    union,
                    own: Arc::new(own),
                });
                continue;
            }
            let start = slot_plans.len();
            for (_, plan) in cands {
                slot_plans.push(BatchEntryPlan {
                    pattern: spec.pattern,
                    plan,
                    tag_base: span_bases[next_span],
                    shared_arena: true,
                });
                split.push(partitioned);
                next_span += 1;
            }
            if !is_tuned {
                wires.push(EntryWire::Slot(start, cands[0].0));
                continue;
            }
            let mean_bytes = ((spec.pattern.total_slots() * VALUE_BYTES) as u64)
                .checked_div(spec.pattern.total_msgs() as u64)
                .unwrap_or(0);
            let ctl_base = span_bases[next_ctl];
            next_ctl += 1;
            let tuned = TunedResolution {
                candidates: cands.iter().map(|(p, _)| *p).collect(),
                ctl_base,
                policy: policy.clone().expect("policy exists for tuned entries"),
                pattern_sig: spec.pattern.pattern_signature(),
                topo_sig: topology_signature(self.topo),
                size_bucket: size_bucket(mean_bytes),
                consult: Mutex::new(Vec::new()),
            };
            wires.push(EntryWire::Tuned { start, tuned });
        }
        let mut unions: Vec<UnionWire> = Vec::with_capacity(groups.len());
        for ((backend, members), (pattern, shifts, protocol, plan)) in
            groups.into_iter().zip(&union_plans)
        {
            unions.push(UnionWire {
                slot: slot_plans.len(),
                protocol: *protocol,
                members,
                shifts: shifts.clone(),
            });
            slot_plans.push(BatchEntryPlan {
                pattern,
                plan,
                tag_base: span_bases[next_ctl],
                shared_arena: true,
            });
            split.push(matches!(backend, Backend::Partitioned(_)));
            next_ctl += 1;
        }
        // Backend::Partitioned is the split of its routing and nothing
        // else: it runs on the one wire every entry runs on
        let routings: Vec<Vec<Arc<RankRouting>>> = RankRouting::build_all_batch(&slot_plans)
            .into_iter()
            .map(|per_rank| {
                let slots = per_rank.into_iter().zip(&split);
                slots
                    .map(|(r, &s)| Arc::new(if s { r.split_at_partitions() } else { r }))
                    .collect()
            })
            .collect();

        // a member's indices on each rank are its run of the union's,
        // shifted back
        for u in &unions {
            for (k, &e) in u.members.iter().enumerate() {
                let EntryWire::Member { own, .. } = &mut wires[e] else {
                    unreachable!("a union's entries are its members")
                };
                let (lo, hi) = (u.shifts[k], u.shifts[k + 1]);
                let run = |index: &[usize]| -> Vec<usize> {
                    let at = |shift: usize| index.partition_point(|&i| i < shift);
                    index[at(lo)..at(hi)].iter().map(|&i| i - lo).collect()
                };
                let own = Arc::get_mut(own).expect("a wire not yet shared");
                own.index = (routings.iter())
                    .map(|per_rank| {
                        let r = &per_rank[u.slot];
                        (run(&r.input_index), run(&r.output_index))
                    })
                    .collect();
            }
        }

        ResolvedBatch {
            n_ranks: self.topo.n_ranks(),
            tag_bases,
            routings,
            lease,
            wires,
            unions,
        }
    }
}

/// `Backend::Partitioned` splits what an aggregating plan ships.
fn assert_aggregating(p: Protocol, plan: &Plan) {
    assert!(
        plan.aggregated,
        "Backend::Partitioned needs an aggregating protocol, got {p}"
    );
}

/// A union member's request, for starts on its own: the entry's own
/// collective — a one-entry batch's — registered at its first start, so
/// a session driven only by `start_all` never registers it.
struct OwnRequest {
    wire: Arc<OwnWire>,
    comm: Comm,
    /// Held from init, like every request's: the entry's span stays
    /// leased while it may still register on it.
    lease: Option<Arc<TagLease>>,
    exec: Option<NeighborExec>,
    /// The park scratch before the first start (empty: `wait` parks only
    /// on a started iteration).
    idle_scratch: Vec<ChanId>,
}

impl NeighborRequest for OwnRequest {
    fn input_index(&self) -> &[usize] {
        &self.wire.index[self.comm.rank()].0
    }

    fn output_index(&self) -> &[usize] {
        &self.wire.index[self.comm.rank()].1
    }

    fn start(&mut self, ctx: &mut RankCtx, input: &[f64]) {
        let Self {
            wire,
            comm,
            lease,
            exec,
            ..
        } = self;
        exec.get_or_insert_with(|| {
            let routing = wire.routing(comm.rank());
            let reg = &mut ctx.chan_registrar();
            NeighborExec::register(routing, reg, comm, wire.protocol, lease.clone())
        })
        .start(ctx, input);
    }

    fn test(&mut self, ctx: &mut RankCtx, output: &mut [f64]) -> bool {
        // never started: inactive, as on an inactive persistent request
        self.exec.as_mut().is_none_or(|x| x.test(ctx, output))
    }

    fn pending_chans(&self, out: &mut Vec<ChanId>) {
        if let Some(x) = &self.exec {
            x.pending_chans(out);
        }
    }

    fn chan_scratch(&mut self) -> &mut Vec<ChanId> {
        match &mut self.exec {
            Some(x) => x.chan_scratch(),
            None => &mut self.idle_scratch,
        }
    }

    fn protocol(&self) -> Protocol {
        self.wire.protocol
    }
}

/// Index of one collective within its batch, in entry order.
pub type EntryId = usize;

/// One rank's live union: the one collective `start_all` runs for its
/// members, with the buffers their values pass through.
struct LiveUnion {
    exec: NeighborExec,
    /// In entry order.
    members: Vec<UnionMember>,
    /// The union's input and output, aligned with its routing's indices:
    /// each member's values are one range of them.
    input: Vec<f64>,
    output: Vec<f64>,
    /// Started by `start_all` and not yet complete.
    live: bool,
}

struct UnionMember {
    entry: EntryId,
    input: Range<usize>,
    output: Range<usize>,
}

/// One rank's **live session** over an initialized [`NeighborBatch`]: the
/// entries' [`NeighborRequest`]s in batch order, plus the
/// completion-driven verbs that drive them as one set.
///
/// The session model is `MPI_Startall` / `MPI_Testany` / `MPI_Waitany` /
/// `MPI_Waitall` lifted to whole collectives: [`BatchRequest::start_all`]
/// posts every entry's iteration — one collective per union, one per
/// entry outside a union — and [`BatchRequest::wait_any`] retires
/// **whichever collective's traffic lands first** — it parks on the union
/// of all in-flight collectives' pending channels, drains arrivals via
/// each one's `test`, and returns the first entry that completes (a
/// union's members one after another, in entry order). An AMG V-cycle
/// smooths each level the moment its halo exchange finishes instead of
/// serializing on whichever level is slowest.
pub struct BatchRequest {
    requests: Vec<Box<dyn NeighborRequest>>,
    unions: Vec<LiveUnion>,
    /// Per entry: the union it is a member of.
    union_of: Vec<Option<usize>>,
    /// Entries with a started, not-yet-completed iteration.
    in_flight: Vec<bool>,
    /// Completed-but-unreported entries: each `test_any` round sweeps
    /// EVERY in-flight collective (so all drainable traffic drains and all
    /// fireable forwards fire before control returns to the caller's
    /// compute), then reports completions one at a time from this queue.
    ready: std::collections::VecDeque<EntryId>,
    /// Scratch for the union pending-channel set `wait_any` parks on.
    chan_scratch: Vec<ChanId>,
}

impl BatchRequest {
    fn new(
        mut requests: Vec<Box<dyn NeighborRequest>>,
        mut unions: Vec<LiveUnion>,
        union_of: Vec<Option<usize>>,
    ) -> Self {
        let n = requests.len();
        // every queue and scratch at its largest size from the start, so
        // the steady state never grows one late: each collective's own
        // scratch holds the largest set its `wait` parks on
        let n_pending: usize = (requests.iter_mut().map(|r| r.chan_scratch().capacity()))
            .chain(unions.iter_mut().map(|u| u.exec.chan_scratch().capacity()))
            .sum();
        Self {
            chan_scratch: Vec::with_capacity(n_pending),
            requests,
            unions,
            union_of,
            in_flight: vec![false; n],
            ready: std::collections::VecDeque::with_capacity(n),
        }
    }

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
    /// through its own `start`/`test`/`wait`, which runs the entry's own
    /// collective. Iterations driven that way bypass the session's
    /// in-flight tracking: mix the two styles per *iteration*, not per
    /// entry mid-iteration.
    pub fn requests_mut(&mut self) -> &mut [Box<dyn NeighborRequest>] {
        &mut self.requests
    }

    /// Dissolve the session into its requests (batch order), each of
    /// which runs its entry's own collective.
    pub fn into_requests(self) -> Vec<Box<dyn NeighborRequest>> {
        self.requests
    }

    /// One entry's request.
    pub fn entry(&self, e: EntryId) -> &dyn NeighborRequest {
        &*self.requests[e]
    }

    /// The union entry `e`'s iteration runs on, if `start_all` started it.
    fn running_union(&self, e: EntryId) -> Option<usize> {
        self.union_of[e].filter(|&u| self.unions[u].live)
    }

    fn assert_idle(&self, e: EntryId) {
        assert!(
            !self.in_flight[e] && !self.ready.contains(&e),
            "entry {e} started again before its iteration was retired"
        );
    }

    /// `MPI_Start` for one entry: begin its iteration with `input` (aligned
    /// with its `input_index()`) on the entry's own collective, and track
    /// it as in flight. Every rank starts the iteration's entries the same
    /// way: each with `start`, or all with [`BatchRequest::start_all`].
    pub fn start(&mut self, ctx: &mut RankCtx, e: EntryId, input: &[f64]) {
        self.assert_idle(e);
        self.requests[e].start(ctx, input);
        self.in_flight[e] = true;
    }

    /// `MPI_Startall`: begin one iteration of **every** entry.
    /// `inputs[e]` is entry `e`'s input (aligned with its `input_index()`).
    /// A union runs as one collective, its members' inputs copied into
    /// its input buffer; every other entry starts its own. Collective over
    /// the batch: in an iteration one rank starts with `start_all`, every
    /// rank does. Never blocks — no collective's `start` waits for
    /// traffic, so all are posted before any is completed.
    pub fn start_all(&mut self, ctx: &mut RankCtx, inputs: &[Vec<f64>]) {
        assert_eq!(
            inputs.len(),
            self.requests.len(),
            "one input per batch entry"
        );
        for (e, input) in inputs.iter().enumerate() {
            self.assert_idle(e);
            match self.union_of[e] {
                Some(u) => {
                    let union = &mut self.unions[u];
                    let m = union.members.iter().find(|m| m.entry == e);
                    let range = m.expect("a member of its union").input.clone();
                    assert_eq!(input.len(), range.len(), "input length mismatch");
                    union.input[range].copy_from_slice(input);
                }
                None => self.requests[e].start(ctx, input),
            }
            self.in_flight[e] = true;
        }
        for union in &mut self.unions {
            union.exec.start(ctx, &union.input);
            union.live = true;
        }
    }

    /// `MPI_Testany`: non-blocking progress across every in-flight
    /// collective. Sweeps **all** of them — draining whatever payloads
    /// have arrived and firing any forwards whose inputs just completed,
    /// so the whole session makes maximal progress before control returns
    /// to the caller's compute — then retires one completed entry (its
    /// ghost values are in `outputs[e]`) and returns its id. Entries that
    /// completed in the same sweep are reported by subsequent calls, in
    /// completion order; a union's members complete together, copied out
    /// of its output in entry order. `None` means no entry is complete
    /// *yet*; entries never started are never returned.
    pub fn test_any(&mut self, ctx: &mut RankCtx, outputs: &mut [Vec<f64>]) -> Option<EntryId> {
        assert_eq!(
            outputs.len(),
            self.requests.len(),
            "one output per batch entry"
        );
        for e in 0..self.requests.len() {
            if !self.in_flight[e] {
                continue;
            }
            let Some(u) = self.running_union(e) else {
                if self.requests[e].test(ctx, &mut outputs[e]) {
                    self.in_flight[e] = false;
                    self.ready.push_back(e);
                }
                continue;
            };
            // a union is tested once per sweep, at its first member
            let union = &mut self.unions[u];
            if union.members[0].entry != e || !union.exec.test(ctx, &mut union.output) {
                continue;
            }
            union.live = false;
            for m in &union.members {
                outputs[m.entry].copy_from_slice(&union.output[m.output.clone()]);
                self.in_flight[m.entry] = false;
                self.ready.push_back(m.entry);
            }
        }
        self.ready.pop_front()
    }

    /// Append every in-flight collective's pending channels to `out`: the
    /// union wake set [`BatchRequest::wait_any`] parks on, exposed so an
    /// external driver (the solve service's scheduler) can park once
    /// across several sessions and wake the right one.
    pub fn pending_chans(&self, out: &mut Vec<ChanId>) {
        for (e, req) in self.requests.iter().enumerate() {
            if !self.in_flight[e] {
                continue;
            }
            match self.running_union(e) {
                Some(u) if self.unions[u].members[0].entry == e => {
                    self.unions[u].exec.pending_chans(out)
                }
                Some(_) => {}
                None => req.pending_chans(out),
            }
        }
    }

    /// `MPI_Waitany`: block until **some** in-flight entry completes and
    /// return its id (its ghost values are in `outputs[e]`). Completion is
    /// in **delivery order**: between [`BatchRequest::test_any`] rounds the
    /// call parks on the union of all in-flight collectives' pending
    /// channels, so whichever collective's traffic lands first retires
    /// first — the overlap loop `while let Some(e) = ... { compute on e }`
    /// never idles on a slow entry while a fast one is already complete.
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
            .entry(&a, Backend::Protocol(Protocol::StandardHypre))
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
    fn a_union_retires_its_members_together_in_entry_order() {
        // entries 0 and 2 share a backend: one union, which completes as
        // one; entry 1 runs its own collective
        let (a, b, topo) = patterns();
        let batch = NeighborBatch::new(&topo)
            .entry(&a, Backend::Protocol(Protocol::FullNeighbor))
            .entry(&b, Backend::Protocol(Protocol::StandardHypre))
            .entry(&b, Backend::Protocol(Protocol::FullNeighbor));
        assert_eq!(batch.resolved().unions[0].members, [0, 2]);
        let orders = World::run(8, |ctx| {
            let comm = ctx.comm_world();
            let mut session = batch.init_all(ctx, &comm);
            let inputs: Vec<Vec<f64>> = (session.requests().iter())
                .map(|r| r.input_index().iter().map(|&i| i as f64).collect())
                .collect();
            let mut outputs: Vec<Vec<f64>> = (session.requests().iter())
                .map(|r| vec![f64::NAN; r.output_index().len()])
                .collect();
            session.start_all(ctx, &inputs);
            let mut order = Vec::new();
            while session.in_flight() > 0 {
                order.push(session.wait_any(ctx, &mut outputs));
            }
            order
        });
        for order in orders {
            let at = order.iter().position(|&e| e == 0).expect("entry 0 retires");
            assert_eq!(order.get(at + 1), Some(&2), "{order:?}");
        }
        deliver_all(&batch, 8);
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
        // admitting everything lays out (and later probes) every protocol
        let (a, b, topo) = patterns();
        let batch = NeighborBatch::new(&topo)
            .entry(&a, Backend::Tuned)
            .entry(&b, Backend::Auto)
            .entry(&b, Backend::Tuned)
            .tune_policy(TunePolicy::default().with_factor(1.0e12));
        let resolved = batch.resolved();
        let starts: Vec<usize> = (resolved.wires.iter())
            .map(|w| match w {
                EntryWire::Slot(start, _) | EntryWire::Tuned { start, .. } => *start,
                EntryWire::Member { .. } => unreachable!("no two entries share a backend"),
            })
            .collect();
        assert_eq!(starts, [0, 3, 4]);
        for w in [&resolved.wires[0], &resolved.wires[2]] {
            let EntryWire::Tuned { tuned, .. } = w else {
                panic!("a tuned entry expands")
            };
            assert_eq!(tuned.candidates.len(), 3);
            assert!(Protocol::ALL.iter().all(|p| tuned.candidates.contains(p)));
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
            NeighborBatch::new(&topo).entry(&a, Backend::Protocol(Protocol::StandardHypre));
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
            .entry(&b, Backend::Protocol(Protocol::StandardHypre));
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
