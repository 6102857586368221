//! Figure-regeneration harness.
//!
//! One binary per table/figure of the paper (`src/bin/`; DESIGN.md §1);
//! this library holds the shared workload construction and evaluation
//! helpers. The figure binaries print CSV-style rows plus a comparison
//! against the paper's reported numbers; `planner_scale` prints wall-clock
//! rows instead. Measured performance is `perfbench/`'s job.

pub mod figures;
pub mod workload;

pub use workload::{
    level_patterns, paper_hierarchy, paper_topology, LevelPattern, PAPER_NX, PAPER_NY, PAPER_PPN,
    PAPER_ROWS,
};
