//! The per-rank drive loop: lanes, admission, overlap, and the
//! failure-isolation protocol (DESIGN.md §12).
//!
//! A **lane** is one persistent session that the jobs of one shape take
//! turns on: one [`Comm::dup_for`] communicator, under a stream id minted
//! for it alone, and one `init_all` of the shape's resolved batch.
//! [`deal_lanes`] deals the jobs of each shape round-robin onto
//! `min(window, jobs of that shape)` lanes, and job k of a shape runs as
//! the next iterations of its lane's session — setup paid once per lane,
//! amortized over the jobs that take turns on it, as the paper amortizes
//! it over one solver's `MPI_Start`s.
//!
//! A lane outlives its epoch: each rank keeps its lanes and the control
//! fabric in a [`Kept`] slot the service owns, and an epoch deals a shape
//! the lanes it left warm before minting new ones ([`deal_lanes`]). The
//! submitting thread decides what is kept, so every rank keeps the same.
//! What it stops keeping — the lanes of a shape that dropped off the warm
//! set, a lane a job failed on — every rank frees in a pool run of its
//! own before the next epoch ([`Kept::evict`]), so an epoch finds kept
//! exactly the lanes it deals warm and the idle lanes of warm shapes.
//!
//! The control fabric — one cancel-token channel per peer and direction on
//! a communicator of its own; a token names its epoch, job and failing
//! rank, so the channel count (and the park set it joins) stays O(ranks),
//! not O(jobs × ranks) — is open on every rank before any epoch starts:
//! whenever the service holds none, it opens one in a pool run of its own
//! ([`Kept::open_control`]).
//!
//! Epoch prologue (every rank, before anything is driven): open every lane
//! dealt cold — duplicate the world communicator under its stream id and
//! `init_all` the shape's resolved batch on it; lanes of one shape share
//! the resolution, the context id keeps their channels apart — and sort
//! the lanes. Nothing waits for the peers: registration is create-or-attach
//! on every fabric, so what a fast rank deposits into a lane a slow rank
//! has not opened yet is there when it does. Nothing is freed before the
//! epoch's pool run ends, so every member has registered before any member
//! frees — [`RankCtx::comm_free`]'s contract — at that boundary.
//!
//! Then the loop, on the dealt lanes only: admit queued jobs into the
//! window in job order —
//! waiting while a job's lane is still busy with its predecessor on this
//! rank — poll runnable tasks (each a [`Task`] polled under
//! `catch_unwind`), drain cancel tokens, and park once on the union of
//! every running task's pending channels plus the per-peer cancel
//! channels. A job that is over on this rank — done, failed or cancelled
//! — drops its task and hands its lane to the next job there and then.
//! Nothing is freed on the way out; what the world kept for an evicted
//! lane goes back when its last rank has freed it.
//!
//! Reuse is safe because every channel is FIFO: a rank starts a lane's
//! next job only after finishing the previous one there, and a finished
//! job has consumed exactly what its peers sent it, so what a lane's
//! channels hold next is the next job's traffic and nothing else — job
//! boundaries on a lane are iteration boundaries of one session. An epoch
//! boundary is one more: a lane is kept only if every job on it finished
//! on every rank.
//!
//! Failure protocol: a tenant panic on this rank resolves its task to
//! `Err` — the scheduler absorbs the transport death flag and broadcasts
//! the job's cancel token to every peer. A peer parked in `wait_any`
//! aborts with a peer-death panic instead: the scheduler catches it,
//! absorbs the flag, and re-parks — the cancel token (the control
//! channels are always in the park set) then attributes the failure to
//! exactly one job. Only when
//! nothing attributes the abort — a wait-deadline stall, or peer-death
//! panics repeating with no token ever arriving — does the rank fail its
//! still-running jobs wholesale, naming each one in the deadline dump.
//! A failure of any kind **closes the job's lane** on every rank: on the
//! failing rank at once, on a peer when the token arrives — even for a
//! job that already completed there, since its peers left the lane
//! mid-job and what is queued on it belongs to no one. On a closed lane
//! the running job stops and later jobs are not admitted; both resolve to
//! [`Cause::Lane`], and `run_pending` runs them again in a follow-up
//! epoch, so every report is still a job's own failure or its solo bytes.
//! A token can also land after its epoch, on a rank that had finished the
//! job before it arrived: the stamp tells it apart, and it is dropped.
//!
//! A rank that leaves the epoch outside any task — a panic in the
//! prologue, in admission, on the control fabric — has no job to name, and
//! its peers may already have absorbed its death and parked for a token.
//! It holds the control fabric from the epoch's start, so on its way out
//! it sends every peer a token that names no job ([`GONE`]); a peer that
//! drains one closes every lane, so the epoch ends on every rank and
//! `run_pending` reports the epoch error.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use mpi_advance::{BatchRequest, ResolvedBatch};
use mpisim::{panic_message, ChanId, Comm, RankCtx, RecvChan, SendChan};

use crate::{JobLogic, QueuedJob, RankState};

/// Peer-death park aborts absorbed without an attributing cancel token
/// before the rank gives up and fails its running jobs. Each absorb
/// marks the death as handled *for this rank* (the world flag stays up
/// for peers still blocked on the dead tenant's traffic) and re-parks;
/// a healthy peer's scheduler sends the token within one scheduling
/// round, and one that leaves the epoch sends [`GONE`], so this bound is
/// a last resort.
const MAX_ABSORB_RETRIES: usize = 64;

/// One lane of an epoch's deal.
#[derive(Clone, Copy)]
pub(crate) struct LaneDeal {
    /// The shape whose jobs take turns on it.
    pub(crate) shape: usize,
    /// The stream id its communicator is duplicated for.
    pub(crate) stream: u64,
    /// Kept from an earlier epoch on every rank: nothing registers for it.
    pub(crate) warm: bool,
}

/// Deal an epoch's jobs onto lanes: the jobs of each shape (`shape_of`,
/// shapes numbered from 0) round-robin onto `min(window, jobs of that
/// shape)` lanes, with job k of a shape on that shape's lane `k mod
/// width`. A shape's lanes take its warm lanes' stream ids (`warm[shape]`,
/// in order) first and `mint` fresh ones beyond those; a warm lane past
/// the width is not dealt (it stays kept, idle).
/// Returns each job's lane and the lanes, numbered in order of first use.
pub(crate) fn deal_lanes(
    shape_of: &[usize],
    window: usize,
    warm: &[&[u64]],
    mut mint: impl FnMut() -> u64,
) -> (Vec<usize>, Vec<LaneDeal>) {
    let mut count = vec![0usize; warm.len()];
    for &s in shape_of {
        count[s] += 1;
    }
    let mut lanes: Vec<Vec<usize>> = vec![Vec::new(); warm.len()];
    let mut dealt = vec![0usize; warm.len()];
    let mut deal: Vec<LaneDeal> = Vec::new();
    let lane_of = shape_of
        .iter()
        .map(|&s| {
            let width = window.min(count[s]);
            let k = dealt[s];
            dealt[s] += 1;
            if k < width {
                lanes[s].push(deal.len());
                let (stream, warm) = match warm[s].get(k) {
                    Some(&stream) => (stream, true),
                    None => (mint(), false),
                };
                deal.push(LaneDeal {
                    shape: s,
                    stream,
                    warm,
                });
            }
            lanes[s][k % width]
        })
        .collect();
    (lane_of, deal)
}

/// One persistent session the jobs dealt to it take turns on.
struct Lane {
    stream: u64,
    comm: Comm,
    /// `None` once the lane is closed: a job on it failed on some rank,
    /// and nothing runs on it again.
    session: Option<BatchRequest>,
    /// Each entry's input of the iteration being started, aligned with its
    /// `input_index`: the vector the job's `input` returned, held until the
    /// next iteration's replaces it.
    inputs: Vec<Vec<f64>>,
    /// Where each entry's ghost values land, aligned with its
    /// `output_index`: built with the session, reused by every job that
    /// takes the lane, and poisoned with NaN each time one does.
    outputs: Vec<Vec<f64>>,
    /// The job running on it on this rank.
    busy: Option<usize>,
}

impl Lane {
    fn new(stream: u64, comm: Comm, session: BatchRequest) -> Self {
        let outputs: Vec<Vec<f64>> = (0..session.len())
            .map(|e| vec![f64::NAN; session.entry(e).output_index().len()])
            .collect();
        Self {
            stream,
            comm,
            inputs: vec![Vec::new(); session.len()],
            session: Some(session),
            outputs,
            busy: None,
        }
    }

    /// Job `j` takes the lane. Its outputs still hold the last job's ghost
    /// values; every entry rewrites its slots before `absorb` reads them,
    /// and the NaN makes a slot that was not rewritten loud.
    fn take(&mut self, j: usize) {
        self.busy = Some(j);
        self.outputs.iter_mut().for_each(|o| o.fill(f64::NAN));
    }
}

/// One job on this rank: `iters` iterations of `start_all` /
/// retire-entries-as-they-land on its lane's session, folding each
/// entry's ghost values into the rank state. Each iteration is one
/// collective over the session: every rank starts it with `start_all`. Owns its state; its outputs
/// are its lane's, which runs one job at a time. Dropped — never polled
/// again — once it resolves, panics, or is cancelled.
struct Task {
    logic: Arc<dyn JobLogic>,
    rank: usize,
    iters: usize,
    /// The lane whose session the job runs on.
    lane: usize,
    /// Built by the first poll, so a panicking constructor fails its job
    /// alone like any other tenant panic.
    state: Option<Box<dyn RankState>>,
    iter: usize,
    /// Entries of the current iteration already absorbed.
    retired: usize,
    /// Every entry of the current iteration has been started.
    started: bool,
    /// Worth polling: fresh, or one of its pending channels delivered
    /// since it last blocked.
    runnable: bool,
}

impl Task {
    fn new(logic: Arc<dyn JobLogic>, lane: usize, rank: usize) -> Self {
        Self {
            iters: logic.iters(),
            logic,
            rank,
            lane,
            state: None,
            iter: 0,
            retired: 0,
            started: false,
            runnable: true,
        }
    }

    /// Advance as far as delivered traffic allows: post the iteration if
    /// it is not in flight, retire (`test_any` → `absorb`) entries until
    /// none is complete, move to the next iteration. `Some(result)` after
    /// the last one; `None` — with `runnable` cleared — when blocked on
    /// traffic that has not landed. Never blocks: `start_all` only posts, so
    /// the rank is back in the drive loop to serve whichever tenant a peer
    /// is waiting on.
    fn poll(&mut self, ctx: &mut RankCtx, lane: &mut Lane) -> Option<Vec<f64>> {
        let Lane {
            session,
            inputs,
            outputs,
            ..
        } = lane;
        let session = session.as_mut().expect("a running job's lane is open");
        let n = session.len();
        let state = self
            .state
            .get_or_insert_with(|| self.logic.rank_state(self.rank));
        while self.iter < self.iters {
            if !self.started {
                // the lane's vector holds what `input` returned, so the
                // gather allocates nothing of its own
                for (e, input) in inputs.iter_mut().enumerate() {
                    *input = state.input(self.iter, e, session.entry(e));
                }
                session.start_all(ctx, inputs);
                self.started = true;
            }
            while self.retired < n {
                let Some(e) = session.test_any(ctx, outputs) else {
                    self.runnable = false;
                    return None;
                };
                state.absorb(self.iter, e, session.entry(e), &outputs[e]);
                self.retired += 1;
            }
            self.iter += 1;
            self.retired = 0;
            self.started = false;
        }
        Some(self.state.take().expect("state built above").finish())
    }
}

/// What a park waits on, kept between epochs so that a warm epoch's
/// parks allocate nothing: the union of channels, and where each running
/// task's run of them ends.
#[derive(Default)]
struct ParkSet {
    union: Vec<ChanId>,
    ends: Vec<usize>,
}

impl ParkSet {
    /// Park the rank until a pending channel of some `running` task (or of
    /// `extra`, the scheduler's control channels) delivers, then mark
    /// runnable **exactly the tasks whose own pending channels hold a
    /// delivered message**. One park for N tenants: the overlap the service
    /// is built on. [`RankCtx::wait_any`]'s generation check closes the
    /// scan-then-park race, so a delivery between a task's last `test_any`
    /// and the park is never lost. Panics — loudly, before blocking forever
    /// — if there is nothing to park on.
    fn park(
        &mut self,
        ctx: &mut RankCtx,
        tasks: &mut [Option<Task>],
        lanes: &[Lane],
        running: &[usize],
        extra: &[ChanId],
    ) {
        let Self { union, ends } = self;
        union.clear();
        ends.clear();
        union.extend_from_slice(extra);
        for &j in running {
            let task = tasks[j].as_ref().expect("running job has a task");
            lanes[task.lane]
                .session
                .as_ref()
                .expect("a running job's lane is open")
                .pending_chans(union);
            ends.push(union.len());
        }
        assert!(
            !union.is_empty(),
            "scheduler stalled: {} running task(s), none runnable and no \
             pending channels to park on",
            running.len()
        );
        ctx.wait_any(union);
        let mut start = extra.len();
        for (&j, &end) in running.iter().zip(ends.iter()) {
            if union[start..end].iter().any(|c| c.ready()) {
                tasks[j].as_mut().expect("running job has a task").runnable = true;
            }
            start = end;
        }
    }
}

/// Why a job failed, as one rank knows it.
pub(crate) enum Cause {
    /// The failure happened (or was first noticed) on this rank: a tenant
    /// panic, or a deadline dump. The text says what and where.
    Here(String),
    /// Rank `from` noticed it and this rank only holds its cancel token.
    Relayed { from: usize },
    /// The job's lane closed under it — a job before it on the lane failed
    /// — before it could finish on this rank. Not a failure of its own:
    /// `run_pending` runs it again.
    Lane,
}

/// What one rank returned for one job.
pub(crate) type Row = Result<Vec<f64>, Cause>;

/// A cancel token is `[epoch stamp, job, failing rank]`.
const TOKEN_LEN: usize = 3;

/// The job a token names when its rank left the epoch outside any task.
const GONE: u64 = u64::MAX;

/// The cancel fabric: one token channel per peer and direction, on a
/// communicator of its own, kept for as long as the service deals it.
struct Control {
    stream: u64,
    comm: Comm,
    /// From every peer, each always started.
    rx: Vec<RecvChan<u64>>,
    /// `rx`'s channels: what every park waits on beyond the tasks'.
    watch: Vec<ChanId>,
    /// To every peer.
    tx: Vec<SendChan<u64>>,
}

impl Control {
    /// Send the token naming `job` ([`GONE`] for none), stamped `stamp`,
    /// to every peer. Deposits never block, so this is safe mid-recovery.
    fn broadcast(&self, ctx: &mut RankCtx, stamp: u64, job: u64) {
        let rank = ctx.rank();
        for chan in &self.tx {
            chan.start_with(ctx, |buf| {
                buf.clear();
                buf.extend([stamp, job, rank as u64]);
            });
        }
    }
}

/// What one rank keeps between epochs: the lanes the warm shapes hold —
/// an epoch's dealt lanes first, in its deal's order — the control
/// fabric, and the park set's buffers. The service owns one per rank and
/// its submitting thread decides what is kept, so every rank keeps — and
/// frees — the same.
#[derive(Default)]
pub(crate) struct Kept {
    lanes: Vec<Lane>,
    ctl: Option<Control>,
    parks: ParkSet,
}

impl Kept {
    /// Open the control fabric under `stream`, every channel tagged `tag`:
    /// both halves of every channel, in one pass over the registry, so a
    /// cancel reaches the channel its peer parks on. The service calls this
    /// in a pool run of its own whenever it holds no control fabric, so
    /// every rank starts every epoch holding it.
    pub(crate) fn open_control(&mut self, ctx: &RankCtx, stream: u64, tag: u64) {
        let comm = ctx.comm_world().dup_for(stream);
        let rank = ctx.rank();
        let peers = || (0..comm.size()).filter(move |&p| p != rank);
        let mut reg = ctx.chan_registrar();
        let mut rx: Vec<RecvChan<u64>> = peers()
            .map(|s| reg.recv_chan_init(&comm, s, tag, TOKEN_LEN))
            .collect();
        let tx = peers()
            .map(|d| reg.send_chan_init(&comm, d, tag, TOKEN_LEN))
            .collect();
        drop(reg);
        rx.iter_mut().for_each(RecvChan::start);
        self.ctl = Some(Control {
            stream,
            comm,
            watch: rx.iter().map(RecvChan::chan_id).collect(),
            rx,
            tx,
        });
    }

    /// Free every kept lane whose stream `keep` rejects, and the control
    /// fabric unless its stream is `ctl` — the one place the service frees
    /// anything, on every rank at once. Its caller runs it in a pool run of
    /// its own, between epochs: every member registered what it will on a
    /// communicator in the runs before, and a stream id is never dealt
    /// twice, so nothing registers on a freed communicator again —
    /// [`RankCtx::comm_free`]'s contract.
    pub(crate) fn evict(&mut self, ctx: &RankCtx, keep: impl Fn(u64) -> bool, ctl: Option<u64>) {
        self.lanes.retain(|lane| {
            let keep = keep(lane.stream);
            if !keep {
                ctx.comm_free(&lane.comm);
            }
            keep
        });
        if let Some(old) = self.ctl.take_if(|c| Some(c.stream) != ctl) {
            ctx.comm_free(&old.comm);
        }
    }
}

/// An epoch as the submitting thread dealt it, the same for every rank.
pub(crate) struct Epoch<'a> {
    /// Every job, with the lane it was dealt.
    pub(crate) jobs: Vec<(&'a QueuedJob, usize)>,
    /// Every lane, with its shape's resolution.
    pub(crate) lanes: Vec<(LaneDeal, &'a ResolvedBatch)>,
    /// Stamped on this epoch's cancel tokens.
    pub(crate) stamp: u64,
    pub(crate) max_concurrent: usize,
}

/// What this rank holds of the epoch: its lanes, the task of every job it
/// is driving, which those are (in admission order), and each job's
/// result once it has one.
struct Drive<'a> {
    lanes: &'a mut [Lane],
    tasks: Vec<Option<Task>>,
    running: Vec<usize>,
    results: Vec<Option<Row>>,
}

impl Drive<'_> {
    /// Job `j` is over on this rank with `res` — unless it already had a
    /// result, which stands: drop its task and hand its lane to the next
    /// job.
    fn retire(&mut self, j: usize, res: Row) {
        if let Some(task) = self.tasks[j].take() {
            self.lanes[task.lane].busy = None;
            self.running.retain(|&x| x != j);
        }
        self.results[j].get_or_insert(res);
    }

    /// Nothing runs on `lane` again: the job running on it here stops, and
    /// admission resolves the ones after it, both to [`Cause::Lane`].
    fn close(&mut self, lane: usize) {
        self.lanes[lane].session = None;
        if let Some(j) = self.lanes[lane].busy {
            self.retire(j, Err(Cause::Lane));
        }
    }
}

/// Drive the epoch `ep` on this rank, on the lanes and control fabric
/// `kept` holds for it; returns each job's local result, indexed like
/// `ep.jobs`. What the epoch used, and the idle lanes, stay in `kept`. A
/// rank that leaves by panicking — outside any task, since a task's panic
/// is its job's — first sends every peer the token that names no job.
pub(crate) fn drive_rank(ctx: &mut RankCtx, kept: &mut Kept, ep: &Epoch<'_>) -> Vec<Row> {
    catch_unwind(AssertUnwindSafe(|| drive(ctx, kept, ep))).unwrap_or_else(|payload| {
        if let Some(ctl) = &kept.ctl {
            // the panic carried out is the one to report, not the token's
            let _ = catch_unwind(AssertUnwindSafe(|| ctl.broadcast(ctx, ep.stamp, GONE)));
        }
        resume_unwind(payload)
    })
}

fn drive(ctx: &mut RankCtx, kept: &mut Kept, ep: &Epoch<'_>) -> Vec<Row> {
    let rank = ctx.rank();
    let jobs = &ep.jobs;
    let n = jobs.len();

    // -- prologue: open the lanes dealt cold --
    let dealt = |stream: u64| ep.lanes.iter().position(|(lane, _)| lane.stream == stream);
    for (lane, batch) in ep.lanes.iter().filter(|(lane, _)| !lane.warm) {
        let comm = ctx.comm_world().dup_for(lane.stream);
        let session = batch.init_all(ctx, &comm);
        kept.lanes.push(Lane::new(lane.stream, comm, session));
    }
    // the dealt lanes first, in the deal's order, which is what a job's
    // lane indexes; the idle ones after them
    kept.lanes
        .sort_by_key(|kl| dealt(kl.stream).unwrap_or(usize::MAX));
    let Kept { lanes, ctl, parks } = kept;
    let ctl = ctl
        .as_mut()
        .expect("every epoch starts holding the control fabric");

    // -- the drive loop --
    let window = n.min(ep.max_concurrent);
    let mut d = Drive {
        lanes: &mut lanes[..ep.lanes.len()],
        tasks: (0..n).map(|_| None).collect(),
        running: Vec::with_capacity(window),
        results: (0..n).map(|_| None).collect(),
    };
    let mut next_admit = 0usize;
    let mut completed: Vec<(usize, Row)> = Vec::with_capacity(window);
    let mut absorb_retries = 0usize;
    // drain cancel tokens only when a park could have been woken by one
    // (or periodically, as a safety valve while tasks stay runnable) —
    // scanning every peer channel on every poll round is pure overhead
    // in the fault-free common case
    let mut drain_due = false;
    let mut rounds = 0usize;

    loop {
        // admit queued jobs into the window in job order, waiting while
        // the next one's lane is still busy here (skipping any cancelled
        // before they ever ran on this rank, and resolving any whose lane
        // has closed)
        while d.running.len() < ep.max_concurrent && next_admit < n {
            let j = next_admit;
            let (q, l) = jobs[j];
            let lane = &mut d.lanes[l];
            match &lane.session {
                None => d.retire(j, Err(Cause::Lane)),
                Some(_) if d.results[j].is_some() => {}
                Some(_) if lane.busy.is_some() => break,
                Some(_) => {
                    lane.take(j);
                    d.tasks[j] = Some(Task::new(Arc::clone(&q.logic), l, rank));
                    d.running.push(j);
                }
            }
            next_admit += 1;
        }
        if d.running.is_empty() {
            // a busy lane has a running job, so admission reached the end
            break;
        }

        // poll every runnable task until it blocks or resolves; a panic
        // inside one (seeded kill= fault or plain bug) resolves that task
        // alone to `Err`
        for &j in &d.running {
            let task = d.tasks[j].as_mut().expect("running job has a task");
            if !task.runnable {
                continue;
            }
            let lane = &mut d.lanes[task.lane];
            match catch_unwind(AssertUnwindSafe(|| task.poll(ctx, lane))) {
                Ok(None) => {}
                Ok(Some(v)) => completed.push((j, Ok(v))),
                Err(payload) => completed.push((j, Err(Cause::Here(panic_message(&*payload))))),
            }
        }
        let mut progressed = !completed.is_empty();
        for (j, res) in completed.drain(..) {
            let failed = res.is_err();
            if failed {
                // A tenant died on THIS rank. The fault path raised the
                // world death flag before panicking; absorb it so peers'
                // and siblings' waits stop aborting, then tell every peer
                // to cancel this one job.
                ctx.absorb_rank_failure();
                ctl.broadcast(ctx, ep.stamp, j as u64);
            }
            d.retire(j, res);
            if failed {
                d.close(jobs[j].1);
            }
        }

        // drain cancel tokens: a peer's scheduler contained some job's
        // failure there. A token may be stale — several ranks may dump the
        // same job — or name a job already completed here; either way its
        // lane is over. A token stamped for another epoch was sent in an
        // earlier one, to a rank that finished the job before it landed:
        // the job it names is not this epoch's. A token naming no job
        // comes from a rank that left the epoch: nothing here can finish.
        rounds += 1;
        if drain_due || rounds.is_multiple_of(64) {
            drain_due = false;
            for rc in &mut ctl.rx {
                while let Some(tok) = rc.try_take(ctx) {
                    rc.start();
                    let (stamp, job, src) = (tok[0], tok[1], tok[2] as usize);
                    if stamp != ep.stamp {
                        continue;
                    }
                    progressed = true;
                    if job == GONE {
                        (0..d.lanes.len()).for_each(|l| d.close(l));
                        continue;
                    }
                    let j = job as usize;
                    d.retire(j, Err(Cause::Relayed { from: src }));
                    d.close(jobs[j].1);
                }
            }
        }
        if progressed {
            absorb_retries = 0;
            continue;
        }

        // every running task is blocked: park on their pending channels +
        // the per-peer cancel channels, catching the two abort paths (peer
        // death, deadline)
        // the park set beyond the tasks' own pending channels is the
        // per-peer cancel channels
        match catch_unwind(AssertUnwindSafe(|| {
            parks.park(ctx, &mut d.tasks, d.lanes, &d.running, &ctl.watch)
        })) {
            Ok(()) => {
                absorb_retries = 0;
                drain_due = true;
            }
            Err(payload) => {
                let msg = panic_message(&*payload);
                let absorbed = ctx.absorb_rank_failure();
                if absorbed.is_some() && absorb_retries < MAX_ABSORB_RETRIES {
                    // a peer's tenant died; its scheduler sends the
                    // cancel token on that job's watched control channel
                    // — re-park and let the token attribute the failure
                    absorb_retries += 1;
                    drain_due = true;
                    continue;
                }
                // deadline stall (or repeated unattributed death): the
                // dump fails every running job on this rank BY NAME, with
                // how far each got (its iteration, and how many of that
                // iteration's entries it had retired)
                let names: Vec<String> = d
                    .running
                    .iter()
                    .map(|&j| {
                        let task = d.tasks[j].as_ref().expect("running job has a task");
                        format!(
                            "{} (iter {}, retired {})",
                            jobs[j].0.name, task.iter, task.retired
                        )
                    })
                    .collect();
                for j in std::mem::take(&mut d.running) {
                    ctl.broadcast(ctx, ep.stamp, j as u64);
                    d.retire(
                        j,
                        Err(Cause::Here(format!(
                            "job {:?} failed while rank {rank} was parked \
                             (jobs running here: {names:?}): {msg}",
                            jobs[j].0.name
                        ))),
                    );
                    d.close(jobs[j].1);
                }
            }
        }
    }

    d.results
        .into_iter()
        .enumerate()
        .map(|(j, r)| {
            r.unwrap_or_else(|| {
                Err(Cause::Here(format!(
                    "job {:?} was never driven",
                    jobs[j].0.name
                )))
            })
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tests::tag_space;
    use crate::{JobSpec, SolveService};
    use locality::Topology;
    use mpi_advance::{Backend, CommPattern, EntryId, NeighborBatch, NeighborRequest, Protocol};
    use mpisim::{Fabric, FaultPlan, World, WorldConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Each rank owns value id `r` and sends it to rank `r + 1` (mod n).
    fn ring_pattern(n: usize) -> CommPattern {
        CommPattern::new(n, (0..n).map(|r| vec![((r + 1) % n, vec![r])]).collect())
    }

    /// A ring exchange per iteration; rank `r` sends `salt + 10⁴·r + iter`
    /// and collects what its left neighbour sent. The job doubles as its
    /// own rank state (`rank`, `got`).
    #[derive(Clone)]
    pub(crate) struct Ring {
        n: usize,
        iters: usize,
        salt: usize,
        /// `input` panics at this iteration (on every rank).
        boom_at: Option<usize>,
        /// Calls to `input` across all ranks.
        inputs: Arc<AtomicUsize>,
        rank: usize,
        got: Vec<f64>,
    }

    impl Ring {
        pub(crate) fn new(n: usize, iters: usize, salt: usize) -> Self {
            Self {
                n,
                iters,
                salt,
                boom_at: None,
                inputs: Arc::new(AtomicUsize::new(0)),
                rank: 0,
                got: Vec::new(),
            }
        }

        fn submit_to(&self, svc: &mut SolveService, name: &str) {
            let spec = JobSpec::new(
                name,
                Topology::block_nodes(self.n, 2),
                Arc::new(self.clone()),
            );
            svc.submit(spec.backend(Backend::Protocol(Protocol::StandardHypre)));
        }

        fn expected(&self, rank: usize) -> Vec<f64> {
            let left = (rank + self.n - 1) % self.n;
            (0..self.iters)
                .map(|i| (self.salt + 10_000 * left + i) as f64)
                .collect()
        }

        pub(crate) fn expected_all(&self) -> Vec<Vec<f64>> {
            (0..self.n).map(|r| self.expected(r)).collect()
        }
    }

    impl JobLogic for Ring {
        fn patterns(&self) -> Vec<CommPattern> {
            vec![ring_pattern(self.n)]
        }
        fn iters(&self) -> usize {
            self.iters
        }
        fn rank_state(&self, rank: usize) -> Box<dyn RankState> {
            Box::new(Ring {
                rank,
                ..self.clone()
            })
        }
    }

    impl RankState for Ring {
        fn input(&mut self, iter: usize, _: EntryId, _: &dyn NeighborRequest) -> Vec<f64> {
            self.inputs.fetch_add(1, Ordering::SeqCst);
            if self.boom_at == Some(iter) {
                panic!("tenant boom");
            }
            vec![(self.salt + 10_000 * self.rank + iter) as f64]
        }
        fn absorb(&mut self, _: usize, _: EntryId, _: &dyn NeighborRequest, output: &[f64]) {
            self.got.push(output[0]);
        }
        fn finish(self: Box<Self>) -> Vec<f64> {
            self.got
        }
    }

    /// The deal: per shape, `min(window, jobs of the shape)` lanes opened
    /// by its first jobs, then round-robin.
    #[test]
    fn jobs_of_one_shape_take_turns_on_min_window_count_lanes() {
        // shapes interleaved in the queue
        let shape_of = [0, 1, 0, 0, 1, 0, 0];
        let cold: [&[u64]; 2] = [&[]; 2];
        let lane_of = |window| deal_lanes(&shape_of, window, &cold, || 0).0;
        assert_eq!(lane_of(1), [0, 1, 0, 0, 1, 0, 0]);
        // shape 0 (five jobs) on three lanes, shape 1 (two) on two
        assert_eq!(lane_of(3), [0, 1, 2, 3, 4, 0, 2]);
        // a window at least the count: one lane per job, today's epoch
        for window in [5, usize::MAX] {
            assert_eq!(lane_of(window), (0..shape_of.len()).collect::<Vec<_>>());
        }
        assert_eq!(deal_lanes(&[], 4, &[], || 0).0, Vec::<usize>::new());
    }

    /// Warm first: a shape's lanes take its warm stream ids in order and
    /// mint the rest, and a warm lane past the shape's width is not dealt.
    #[test]
    fn a_shape_deals_its_warm_lanes_first_and_mints_the_rest() {
        let shape_of = [0, 1, 0, 0, 1];
        let warm: [&[u64]; 2] = [&[7], &[8, 9, 10]];
        let mut next = 100;
        let mint = || {
            next += 1;
            next
        };
        let (lane_of, deal) = deal_lanes(&shape_of, 2, &warm, mint);
        assert_eq!(lane_of, [0, 1, 2, 0, 3]);
        let deal: Vec<(usize, u64, bool)> =
            deal.iter().map(|l| (l.shape, l.stream, l.warm)).collect();
        assert_eq!(
            deal,
            [(0, 7, true), (1, 8, true), (0, 101, false), (1, 9, true)]
        );
    }

    /// A panic inside one task's poll resolves that task alone to `Err`,
    /// the task is never polled again, and a sibling on the same ranks
    /// still runs to completion.
    #[test]
    fn panicking_task_fails_alone_and_is_never_polled_again() {
        let _tags = tag_space();
        const N: usize = 4;
        let bad = Ring {
            boom_at: Some(0),
            ..Ring::new(N, 3, 0)
        };
        let good = Ring::new(N, 3, 500);
        let mut svc = SolveService::new(N);
        bad.submit_to(&mut svc, "bad");
        good.submit_to(&mut svc, "good");
        let reports = svc.run_pending();
        let err = reports[0].outcome.as_ref().unwrap_err();
        assert_eq!(err.ranks, (0..N).collect::<Vec<_>>());
        assert!(err.message.contains("tenant boom"), "{err}");
        let got = reports[1].outcome.as_ref().expect("sibling unaffected");
        assert_eq!(got, &good.expected_all());
        // every rank polls job 0 in its first pass, before any cancel token
        // can be drained: one `input` call per rank, none after the panic
        assert_eq!(bad.inputs.load(Ordering::SeqCst), N);
    }

    /// No lost wakeups under racing deliveries: many back-to-back
    /// iterations of two concurrent tenants terminate with the right
    /// values even when a peer's deposit lands between a task's last
    /// `test_any` and the park (the `wait_any` generation check closes
    /// that race). The deadline turns a lost wakeup into a loud failure
    /// instead of a hung test.
    #[test]
    fn no_lost_wakeup_over_many_racing_iterations() {
        let _tags = tag_space();
        const N: usize = 4;
        let jobs = [Ring::new(N, 200, 0), Ring::new(N, 200, 500)];
        let plan = FaultPlan::seeded(1).deadline_ms(10_000);
        let pool = WorldConfig::new(Fabric::Thread).faults(plan).pool(N);
        let mut svc = SolveService::with_pool(pool);
        for job in &jobs {
            job.submit_to(&mut svc, "ring");
        }
        for (rep, job) in svc.run_pending().iter().zip(&jobs) {
            let got = rep.outcome.as_ref().expect("no wakeup lost");
            assert_eq!(got, &job.expected_all());
        }
    }

    /// Poll task `t` on its lane's session.
    fn poll_on_lane(
        ctx: &mut RankCtx,
        tasks: &mut [Option<Task>],
        lanes: &mut [Lane],
        t: usize,
    ) -> Option<Vec<f64>> {
        let task = tasks[t].as_mut().unwrap();
        task.poll(ctx, &mut lanes[task.lane])
    }

    /// The park re-flags exactly the tasks whose *own* pending channels
    /// delivered: with two tenants blocked on rank 1, each on a lane of its
    /// own, and only tenant B's traffic released, the park returns with B
    /// runnable and A still blocked.
    #[test]
    fn park_reflags_only_tasks_whose_own_channels_delivered() {
        let _tags = tag_space();
        let topo = Topology::block_nodes(2, 1);
        let pat = ring_pattern(2);
        let job = Ring::new(2, 1, 0);
        let batches: Vec<NeighborBatch<'_>> = (0..2)
            .map(|_| {
                NeighborBatch::new(&topo).entry(&pat, Backend::Protocol(Protocol::StandardHypre))
            })
            .collect();
        for b in &batches {
            let _ = b.tag_bases(); // resolve (and lease tags) before the ranks race
        }
        const A: usize = 0;
        const B: usize = 1;
        World::pool(2).run(|ctx| {
            let world = ctx.comm_world();
            let rank = ctx.rank();
            let mut lanes: Vec<Lane> = batches
                .iter()
                .enumerate()
                .map(|(k, b)| {
                    let stream = k as u64 + 1;
                    let comm = world.dup_for(stream);
                    let session = b.init_all(ctx, &comm);
                    Lane::new(stream, comm, session)
                })
                .collect();
            let mut tasks: Vec<Option<Task>> = (0..lanes.len())
                .map(|l| Some(Task::new(Arc::new(job.clone()), l, rank)))
                .collect();
            ctx.barrier(&world);
            if rank == 0 {
                // hold all traffic back until rank 1 has blocked both
                // tenants, then release B's only
                ctx.barrier(&world);
                let got = poll_on_lane(ctx, &mut tasks, &mut lanes, B);
                assert_eq!(got, Some(job.expected(0)));
                ctx.barrier(&world);
                let got = poll_on_lane(ctx, &mut tasks, &mut lanes, A);
                assert_eq!(got, Some(job.expected(0)));
                return;
            }
            assert_eq!(poll_on_lane(ctx, &mut tasks, &mut lanes, A), None);
            assert_eq!(poll_on_lane(ctx, &mut tasks, &mut lanes, B), None);
            ctx.barrier(&world);
            let mut parks = ParkSet::default();
            parks.park(ctx, &mut tasks, &lanes, &[A, B], &[]);
            let runnable = |tasks: &[Option<Task>], t: usize| tasks[t].as_ref().unwrap().runnable;
            assert!(runnable(&tasks, B), "B's channel delivered");
            assert!(!runnable(&tasks, A), "nothing of A's delivered yet");
            ctx.barrier(&world);
            parks.park(ctx, &mut tasks, &lanes, &[A], &[]);
            assert!(runnable(&tasks, A));
            for t in [A, B] {
                let got = poll_on_lane(ctx, &mut tasks, &mut lanes, t);
                assert_eq!(got, Some(job.expected(1)));
            }
        });
    }
}
