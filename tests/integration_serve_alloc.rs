//! Allocation budget of the serve request path.
//!
//! After warm-up, a `submit_one_hot` + `wait` round trip may allocate only
//! its decision's `values`, plus a fixed count per batch: the request
//! answers through its session slot's reusable reply cell, and its input
//! buffer comes from the server's ingest pool. A counting global allocator
//! sees every allocation of the process, the batcher thread's included.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use common::within_timeout;
use navft_nn::mlp;
use navft_serve::{ServeConfig, Server};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The system allocator, counting every block it hands out.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Sessions per round; every round fills exactly one batch.
const SESSIONS: usize = 8;
const WARMUP_ROUNDS: usize = 20;
const ROUNDS: usize = 200;
/// Allocations a batch may make on top of its rows' decisions: the sweep's
/// list of per-row hooks.
const PER_BATCH: usize = 1;

#[test]
fn a_served_request_allocates_only_its_decision_after_warm_up() {
    within_timeout(|| {
        let mut rng = SmallRng::seed_from_u64(7);
        let policy = mlp(&[16, 32, 4], &mut rng);
        // Batches flush only when full, so each round is one batch.
        let config = ServeConfig::default()
            .with_max_batch(SESSIONS)
            .with_flush_after(Duration::from_secs(30));
        let server = Server::start(policy, &[16], config);
        let sessions: Vec<_> = (0..SESSIONS).map(|_| server.open_clean_session()).collect();
        let mut tickets = Vec::with_capacity(SESSIONS);
        let mut round = |r: usize| {
            for (i, &session) in sessions.iter().enumerate() {
                let state = (r + i) % 16;
                tickets.push(server.submit_one_hot(session, state).expect("submit"));
            }
            for ticket in tickets.drain(..) {
                assert_eq!(ticket.wait().expect("decision").values.len(), 4);
            }
        };
        for r in 0..WARMUP_ROUNDS {
            round(r);
        }

        let batches_before = server.stats().batches;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for r in 0..ROUNDS {
            round(r);
        }
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let stats = server.stats();
        let batches = stats.batches - batches_before;

        let requests = ROUNDS * SESSIONS;
        assert_eq!(stats.rows, (WARMUP_ROUNDS + ROUNDS) * SESSIONS);
        assert_eq!(batches, ROUNDS, "every round is one full batch");
        let budget = requests + PER_BATCH * batches;
        assert!(
            allocations <= budget,
            "{allocations} allocations for {requests} requests in {batches} batches \
             ({:.2} per request); the budget is one per request plus {PER_BATCH} per batch",
            allocations as f64 / requests as f64
        );
    });
}
