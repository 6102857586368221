//! Stencil generators assemble straight into CSR: the paper problem's
//! set-up allocates its three CSR arrays and little else, with no
//! `(row, col, value)` triplets staged on the way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use collom_neighborhood::sparse::gen::diffusion::paper_problem;

struct CountingAlloc;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// thread-local `Cell` that allocates nothing itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES.try_with(|b| b.set(b.get() + layout.size()));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = BYTES.try_with(|b| b.set(b.get() + new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Bytes this thread allocates (a reallocation counts its new size) while
/// running `f`.
fn bytes_allocated<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

#[test]
fn paper_problem_allocates_only_its_csr_arrays() {
    let (nx, ny) = (256, 128);
    let n = nx * ny;
    let (a, bytes) = bytes_allocated(|| paper_problem(nx, ny));
    assert_eq!(a.n_rows(), n);
    // rowptr, plus colind and vals for at most 7 entries a row, plus 4 KiB
    // for the stencil itself
    let bound = 8 * (n + 1) + 16 * 7 * n + 4096;
    assert!(
        bytes <= bound,
        "paper_problem({nx}, {ny}) allocated {bytes} B, over the {bound} B of its CSR arrays"
    );
}
