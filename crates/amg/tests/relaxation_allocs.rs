//! A job on a hierarchy that already has a live split over its rank count
//! allocates only its own right-hand side: the split — every rank's
//! matrices, the level patterns, the coarse right-hand sides — is the
//! hierarchy's, built by the first job and shared by the rest, however
//! many levels and rows the hierarchy has.
//!
//! One test in this binary: the counter is per thread, and the jobs are
//! built on the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::f64::consts::FRAC_PI_4;

use amg::{Hierarchy, HierarchyOptions, JacobiJob};
use sparse::gen::diffusion_2d_7pt;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// thread-local `Cell` that allocates nothing itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

const RANKS: usize = 4;

/// Allocations of a job built on a hierarchy whose split over `RANKS` is
/// live: its right-hand side.
const PER_JOB: usize = 1;

/// Allocations on this thread while `f` runs, and what it returned.
fn allocs<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn a_job_on_a_split_hierarchy_allocates_only_its_right_hand_side() {
    for (nx, ny) in [(16, 8), (32, 16), (48, 24)] {
        let h = Hierarchy::setup(
            diffusion_2d_7pt(nx, ny, 0.001, FRAC_PI_4),
            HierarchyOptions::default(),
        );
        let n = h.levels[0].a.n_rows();
        let job = |j: usize| {
            let w = 0.11 + 0.17 * j as f64;
            let rhs: Vec<f64> = (0..n).map(|i| (w * i as f64).cos()).collect();
            allocs(|| JacobiJob::relaxation(&h, RANKS, &rhs, 0.8, 3))
        };
        let (first, held) = job(0);
        let later: Vec<usize> = (1..6).map(|j| job(j).0).collect();
        let label = format!("{nx}x{ny}: {} levels, {n} rows", h.n_levels());
        assert!(
            first > PER_JOB * h.n_levels(),
            "{label}: the first job splits"
        );
        assert_eq!(
            later, [PER_JOB; 5],
            "{label}: a job on a live split allocated more than its right-hand \
             side (the first made {first})"
        );
        drop(held);
    }
}
