//! The sketch merge and write paths never touch the heap.
//!
//! A counting global allocator measures what the merge, subtract,
//! scratch-update and sample calls of `mpc-sketch` allocate once a bank
//! is materialized: exactly nothing. Between them these calls reach
//! every function of `crates/sketch/src/kernels.rs`. The batched edge
//! write (`SketchBank::update_edges`) plans its cell writes in a fixed
//! stack buffer; a batch that overflows the buffer many times over
//! allocates nothing either. The test lives in
//! `mpc-sim` because it is the one crate whose lint table lets a test
//! opt out of `unsafe_code`, which a `GlobalAlloc` impl needs.
//!
//! CI runs it in debug and in release (`cargo test --release -p mpc-sim
//! --test merge_alloc_free`), so the zero holds under the optimizer too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use mpc_graph::{Edge, VertexId};
use mpc_sketch::{L0Sampler, SketchBank};

thread_local! {
    /// Allocations made by this thread; const-initialized and without a
    /// destructor, so reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting every call that can hand out memory.
struct Counting;

impl Counting {
    fn count() {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

#[expect(
    unsafe_code,
    reason = "a counting global allocator is the only way to observe heap traffic"
)]
// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// thread-local `Cell` that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        // SAFETY: the caller's `alloc` contract is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        // SAFETY: the caller's `alloc_zeroed` contract is passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn sketch_merge_path_does_not_allocate() {
    // The counter is live, so a zero below is a measurement.
    assert!(allocations(|| drop(black_box(vec![0u8; 64]))) >= 1);
    let n: u32 = 64;
    let mut bank = SketchBank::new(n as usize, 4, 7);
    let path = (0..n - 1).map(|v| Edge::new(v, v + 1));
    let chords = (0..n - 2).step_by(3).map(|v| Edge::new(v, v + 2));
    let edges: Vec<Edge> = path.chain(chords).collect();
    for &e in &edges {
        bank.insert_edge(e);
    }
    let left: Vec<VertexId> = (0..n / 2).collect();
    let right: Vec<VertexId> = (n / 2..n).collect();
    let mut scratch = bank.new_scratch();
    let mut sampler = L0Sampler::new(u64::from(n) * u64::from(n), 3);
    let mut other = sampler.fresh();
    other.update(17, 1);
    let probe = edges[0];

    let allocs = allocations(|| {
        for copy in 0..bank.copies() {
            scratch.reset(copy);
            black_box(bank.merge_copy_into(&left, &mut scratch));
            black_box(bank.subtract_copy_from(&right, &mut scratch));
            bank.update_edge_into(probe, probe.u(), -1, &mut scratch);
            black_box(bank.sample_merged(&scratch));
            black_box(bank.sample_vertex(probe.v(), copy));
        }
        bank.delete_edge(probe);
        bank.insert_edge(probe);
        sampler.update(1234, 1);
        sampler.merge(&other);
        black_box(sampler.sample());
    });
    assert_eq!(allocs, 0, "the sketch merge path allocated {allocs} times");
}

#[test]
fn batched_sketch_write_does_not_allocate() {
    let n: u32 = 64;
    let mut bank = SketchBank::new(n as usize, 8, 11);
    let edges: Vec<Edge> = (0..n - 1).map(|v| Edge::new(v, v + 1)).collect();
    bank.update_edges(edges.iter().map(|&e| (e, 1)));
    let words = bank.words();
    // 126 updates × 8 copies × 2 cells: the plan buffer fills and
    // flushes many times inside one call.
    let allocs = allocations(|| {
        bank.update_edges(
            edges
                .iter()
                .map(|&e| (e, -1))
                .chain(edges.iter().map(|&e| (e, 1))),
        );
    });
    assert_eq!(
        allocs, 0,
        "the batched sketch write allocated {allocs} times"
    );
    assert_eq!(bank.words(), words);
}
