//! Halo exchange beyond AMG: a structured 9-point stencil ghost exchange.
//!
//! The paper notes the optimized collectives "are not limited to AMG and
//! can be used to reduce the cost of irregular communication within other
//! solvers and simulations" (§2) — but also that they "are capable of
//! greatly increasing communication costs, particularly for patterns with
//! fewer communication requirements" (§5). This example shows both sides:
//! a 2-D domain-decomposed halo exchange is cheap and regular, so standard
//! communication usually wins at low process counts, while the aggregated
//! collectives catch up as the process grid (and therefore the number of
//! small boundary messages per node) grows.
//!
//! Run with: `cargo run --release --example halo_exchange`

use locality::Topology;
use mpi_advance::analytic::iteration_time;
use mpi_advance::{choose_protocol, Backend, CommPattern, NeighborBatch, Protocol};
use mpisim::World;
use perfmodel::LocalityModel;

/// Build the halo-exchange pattern of a `px × py` process grid, each rank
/// owning a `tile × tile` block of a global 2-D mesh with one ghost layer
/// (9-point stencil: edges + corners).
fn halo_pattern(px: usize, py: usize, tile: usize) -> CommPattern {
    let n = px * py;
    let rank = |x: usize, y: usize| y * px + x;
    // global cell index of local cell (cx, cy) of rank (x, y)
    let cell =
        |x: usize, y: usize, cx: usize, cy: usize| ((y * tile + cy) * (px * tile)) + x * tile + cx;
    let mut sends: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); n];
    for y in 0..py {
        for x in 0..px {
            let me = rank(x, y);
            let mut push = |dx: i64, dy: i64, cells: Vec<usize>| {
                let (nx, ny) = (x as i64 + dx, y as i64 + dy);
                if nx >= 0 && nx < px as i64 && ny >= 0 && ny < py as i64 {
                    sends[me].push((rank(nx as usize, ny as usize), cells));
                }
            };
            let edge_x: Vec<usize> = (0..tile).collect();
            // four edges
            push(-1, 0, edge_x.iter().map(|&cy| cell(x, y, 0, cy)).collect());
            push(
                1,
                0,
                edge_x.iter().map(|&cy| cell(x, y, tile - 1, cy)).collect(),
            );
            push(0, -1, edge_x.iter().map(|&cx| cell(x, y, cx, 0)).collect());
            push(
                0,
                1,
                edge_x.iter().map(|&cx| cell(x, y, cx, tile - 1)).collect(),
            );
            // four corners
            push(-1, -1, vec![cell(x, y, 0, 0)]);
            push(1, -1, vec![cell(x, y, tile - 1, 0)]);
            push(-1, 1, vec![cell(x, y, 0, tile - 1)]);
            push(1, 1, vec![cell(x, y, tile - 1, tile - 1)]);
        }
    }
    CommPattern::new(n, sends)
}

fn main() {
    let model = LocalityModel::lassen();
    println!(
        "{:<10} {:>6} {:>12} {:>12} {:>12}  model picks",
        "grid", "ranks", "standard s", "partial s", "full s"
    );
    for (px, py, tile, ppn) in [(2, 2, 16, 4), (4, 4, 8, 4), (8, 8, 4, 8), (16, 8, 4, 16)] {
        let pattern = halo_pattern(px, py, tile);
        let topo = Topology::block_nodes(px * py, ppn);
        let times: Vec<f64> = Protocol::ALL
            .iter()
            .map(|&p| iteration_time(&p.plan(&pattern, &topo), &topo, &model, p.is_wrapped()).total)
            .collect();
        let (winner, _) = choose_protocol(&pattern, &topo, &model);
        println!(
            "{:<10} {:>6} {:>12.3e} {:>12.3e} {:>12.3e}  {}",
            format!("{px}x{py}x{tile}"),
            px * py,
            times[0],
            times[1],
            times[2],
            winner.label()
        );
    }

    // Execute the largest case for real and verify delivery.
    let (px, py, tile) = (8, 8, 4);
    let pattern = halo_pattern(px, py, tile);
    let topo = Topology::block_nodes(px * py, 8);
    let coll = NeighborBatch::new(&topo).entry(&pattern, Backend::Protocol(Protocol::FullNeighbor));
    let ok = World::run(px * py, |ctx| {
        let comm = ctx.comm_world();
        let mut nb = coll.init_all(ctx, &comm).into_requests().remove(0);
        let input: Vec<f64> = nb.input_index().iter().map(|&i| i as f64 * 0.5).collect();
        let mut ghost = vec![0.0; nb.output_index().len()];
        // ten "time steps" with evolving values
        let mut ok = true;
        for step in 0..10 {
            let scaled: Vec<f64> = input.iter().map(|v| v + step as f64).collect();
            nb.start_wait(ctx, &scaled, &mut ghost);
            ok &= nb
                .output_index()
                .iter()
                .zip(&ghost)
                .all(|(&i, &v)| v == i as f64 * 0.5 + step as f64);
        }
        ok
    });
    assert!(ok.iter().all(|&b| b));
    println!("\nexecuted 10 halo-exchange steps on 64 ranks: all ghosts correct ✓");
}
