//! The allocation wall: the contention engine keeps routes in one flat
//! table and claims in one table over slots, so building a makespan
//! objective, its first `rebuild` and a whole `simulate` each make a
//! bounded number of allocator calls, however many messages they route.
//!
//! A counting global allocator counts the calls of the thread that makes
//! them, so the test harness's own threads never mix into a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use embeddings::auto::embed;
use embeddings::optim::Objective;
use embeddings::plan::parse_grid_spec;
use netsim::{simulate, MakespanObjective, Network, Placement, Workload};

/// The most allocator calls (allocations and reallocations) one build may
/// make. One `Vec` per route or per slot would make thousands.
const WALL: u64 = 100;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // A thread being torn down has no counter left; its calls go uncounted.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every call forwards to the system allocator with the caller's
// arguments unchanged; counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocator calls `run` makes on this thread.
fn calls_in(run: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    run();
    CALLS.with(Cell::get) - before
}

/// The host network, the guest's neighbour exchange and the constructive
/// placement table of `guest → host`.
fn placed(guest: &str, host: &str) -> (Network, Workload, Vec<u64>) {
    let (guest, host) = (
        parse_grid_spec(guest).unwrap(),
        parse_grid_spec(host).unwrap(),
    );
    let table = embed(&guest, &host).unwrap().to_table().unwrap();
    (Network::new(host), Workload::from_task_graph(&guest), table)
}

#[test]
fn route_and_claim_tables_keep_allocator_calls_bounded() {
    // A fresh makespan objective and its first rebuild, on perfbench
    // `anneal`'s makespan pair (3,072 workload pairs) and on a smaller
    // and a larger pair.
    for (guest, host) in [
        ("torus:4x4x4", "mesh:8x8"),
        ("torus:8x8x8", "mesh:16x32"),
        ("torus:16x16x16", "mesh:64x64"),
    ] {
        let (network, workload, table) = placed(guest, host);
        let calls = calls_in(|| {
            let mut objective = MakespanObjective::new(network, workload, 1).unwrap();
            objective.rebuild(&table);
        });
        assert!(calls < WALL, "{guest} -> {host}: {calls} allocator calls");
    }
    // A whole simulation at 3,072 and at 32,768 messages.
    for (guest, host, messages) in [
        ("torus:8x8x8", "mesh:16x32", 3_072),
        ("torus:8x8x8x8", "mesh:64x64", 32_768),
    ] {
        let (network, workload, table) = placed(guest, host);
        assert_eq!(workload.pairs().len(), messages);
        let placement = Placement::try_from_table(table).unwrap();
        let calls = calls_in(|| {
            simulate(&network, &workload, &placement, 1);
        });
        assert!(
            calls < WALL,
            "simulate, {messages} messages: {calls} allocator calls"
        );
    }
}
