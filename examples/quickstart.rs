//! Quickstart: the paper's Example 2.1, end to end.
//!
//! Builds the 8-process, two-region communication pattern of Figure 2,
//! plans it with every protocol, prints the message statistics that
//! Figures 3–5 illustrate, and then *executes* each protocol on the
//! simulated MPI runtime to show identical results.
//!
//! One entry point appears below: [`NeighborBatch`]. A one-entry batch is
//! the paper's single persistent `MPI_Neighbor_alltoallv_init`. Real
//! workloads add more entries: an application like AMG keeps one
//! persistent collective live *per level*, and the batch plans, tags, and
//! stages all of them as one session (one routing sweep, one tag lease,
//! one registration pass).
//!
//! Run with: `cargo run --release --example quickstart`

use locality::Topology;
use mpi_advance::{Backend, CommPattern, NeighborBatch, PlanStats, Protocol};
use mpisim::World;
use perfmodel::LocalityModel;

fn main() {
    // Figure 2: two regions of four processes; region 0 owns 8 values that
    // processes in region 1 need.
    let pattern = CommPattern::example_2_1();
    let topo = Topology::block_nodes(8, 4);
    let model = LocalityModel::lassen();

    println!(
        "Example 2.1: {} demands, {} point-to-point messages\n",
        pattern.total_slots(),
        pattern.total_msgs()
    );

    println!(
        "{:<30} {:>8} {:>8} {:>10} {:>12}",
        "protocol", "global", "local", "g-values", "modeled s"
    );
    for protocol in Protocol::ALL {
        let plan = protocol.plan(&pattern, &topo);
        let stats = PlanStats::of(&plan);
        let t = mpi_advance::analytic::iteration_time(&plan, &topo, &model, protocol.is_wrapped());
        println!(
            "{:<30} {:>8} {:>8} {:>10} {:>12.2e}",
            protocol.label(),
            stats.total_global_msgs,
            stats.total_local_msgs,
            plan.global_values(),
            t.total,
        );
    }
    println!();
    println!("Figure 3: standard sends 15 inter-region messages.");
    println!("Figure 4: aggregation needs only 1 inter-region message (17 values).");
    println!("Figure 5: duplicate removal shrinks it to 8 values.\n");

    // Execute each protocol for real on 8 simulated ranks, each as a
    // one-entry batch: the persistent Neighbor_alltoallv_init.
    for protocol in Protocol::ALL {
        let coll = NeighborBatch::new(&topo).entry(&pattern, Backend::Protocol(protocol));
        let ok = World::run(8, |ctx| {
            let comm = ctx.comm_world();
            let mut nb = coll.init_all(ctx, &comm).into_requests().remove(0);
            // each rank contributes value 100 + index for the indices it owns
            let input: Vec<f64> = nb.input_index().iter().map(|&i| 100.0 + i as f64).collect();
            let mut output = vec![0.0; nb.output_index().len()];
            nb.start_wait(ctx, &input, &mut output);
            nb.output_index()
                .iter()
                .zip(&output)
                .all(|(&i, &v)| v == 100.0 + i as f64)
        });
        assert!(ok.iter().all(|&b| b));
        println!(
            "executed {:<30} -> every ghost value delivered correctly",
            protocol.label()
        );
    }

    // ... or let the model pick: Backend::Auto selects at init time (§5).
    let auto = NeighborBatch::new(&topo)
        .entry(&pattern, Backend::Auto)
        .cost_model(&model);
    let (winner, _) = auto.plans()[0];
    println!("\nBackend::Auto selects: {}", winner.label());

    // Real workloads keep many collectives live at once (one per AMG
    // level): one NeighborBatch is the session that owns all of them —
    // mixed backends included — and init_all registers the whole set in
    // one pass, returning a BatchRequest. Its completion-driven verbs
    // drive the set as one: start_all posts every entry's iteration, and
    // wait_any retires whichever entry's traffic lands first — so the
    // compute for a fast entry never waits behind a slow one.
    let second = CommPattern::example_2_1();
    let batch = NeighborBatch::new(&topo)
        .entry(&pattern, Backend::Protocol(Protocol::FullNeighbor))
        .entry(&second, Backend::Auto);
    let ok = World::run(8, |ctx| {
        let comm = ctx.comm_world();
        let mut session = batch.init_all(ctx, &comm);
        let inputs: Vec<Vec<f64>> = session
            .requests()
            .iter()
            .map(|req| {
                req.input_index()
                    .iter()
                    .map(|&i| 100.0 + i as f64)
                    .collect()
            })
            .collect();
        let mut outputs: Vec<Vec<f64>> = session
            .requests()
            .iter()
            .map(|req| vec![0.0; req.output_index().len()])
            .collect();
        session.start_all(ctx, &inputs); // MPI_Startall over whole collectives
        let mut ok = true;
        while session.in_flight() > 0 {
            // MPI_Waitany over whole collectives: entries retire in
            // delivery order; per-entry compute goes right here
            let e = session.wait_any(ctx, &mut outputs);
            ok &= session
                .entry(e)
                .output_index()
                .iter()
                .zip(&outputs[e])
                .all(|(&i, &v)| v == 100.0 + i as f64);
        }
        ok
    });
    assert!(ok.iter().all(|&b| b));
    println!("batched 2 live collectives through one start_all/wait_any session ✓");
}
