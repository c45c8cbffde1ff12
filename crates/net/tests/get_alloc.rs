//! Pins the get path's allocation budget: a steady-state healthy get
//! makes one shard-sized allocation anywhere in the process, its result,
//! and never a zero-filled one. The gateway reserves the result and
//! appends each data shard to it as it comes off the socket; each brick
//! replies straight from the stored shard. A counting global allocator
//! wraps the system one and counts every allocation of at least 4 KiB
//! across the gateway and the (in-process) brick threads, and the
//! zero-filled ones among them apart, so this lives in its own test
//! binary with a single test function (the counters are process-wide).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nsr_net::gateway::{GatewayConfig, ReadMode};
use nsr_net::local::{LocalCluster, Pace};

/// Allocations this large or larger are counted: a shard, a result, a
/// socket buffer — never a `Vec` of eight shard views.
const LARGE: usize = 4 * 1024;

struct CountingAlloc;

static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);
static LARGE_ZEROED: AtomicU64 = AtomicU64::new(0);

fn count(size: usize, zeroed: bool) {
    if size >= LARGE {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        if zeroed {
            LARGE_ZEROED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), false);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), true);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, false);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_gets_allocate_only_their_results_unzeroed() {
    const K: usize = 6;
    const T: usize = 2;
    const BRICKS: usize = 9;
    // 1 MiB at 6+2: six 171 KiB shards, past the socket read buffer, the
    // last with a padded tail.
    const OBJECT: usize = 1024 * 1024;
    const GETS: u64 = 100;

    let cluster =
        LocalCluster::start(BRICKS, GatewayConfig::new(K, T), Pace::Wall).expect("cluster");
    let gw = &cluster.gw;

    let data: Vec<u8> = (0..OBJECT).map(|i| (i * 31 + i / 509) as u8).collect();
    gw.put(1, &data).expect("put");
    // Warm-up: the first get dials every lane it reads through.
    for _ in 0..2 {
        assert!(gw.get(1).expect("warm-up get") == (data.clone(), ReadMode::Healthy));
    }
    let (large0, zeroed0) = (
        LARGE_ALLOCS.load(Ordering::Relaxed),
        LARGE_ZEROED.load(Ordering::Relaxed),
    );
    let mut healthy = 0;
    for _ in 0..GETS {
        let (back, mode) = gw.get(1).expect("get");
        healthy += u64::from(mode == ReadMode::Healthy && back.len() == OBJECT);
    }
    let large = LARGE_ALLOCS.load(Ordering::Relaxed) - large0;
    let zeroed = LARGE_ZEROED.load(Ordering::Relaxed) - zeroed0;

    assert_eq!(healthy, GETS, "every get healthy and whole");
    assert!(
        gw.get(1).expect("get").0 == data,
        "the object reads back exactly"
    );
    assert_eq!(
        (large, zeroed),
        (GETS, 0),
        "{GETS} steady-state gets: (allocations of >= {LARGE} bytes, zero-filled ones)"
    );

    cluster.shutdown().expect("shutdown");
}
