//! Pins the put path's allocation budget: a steady-state overwrite makes
//! no shard-sized allocation anywhere in the process. The gateway borrows
//! the data shards from the caller's object and encodes parity into
//! thread-local scratch; each brick reads the payload into the buffer its
//! connection's previous overwrite displaced. A counting global allocator
//! wraps the system one and counts every allocation of at least 4 KiB
//! across the gateway and the (in-process) brick threads, so this lives
//! in its own test binary with a single test function (the counter is
//! process-wide).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use nsr_net::gateway::GatewayConfig;
use nsr_net::local::{LocalCluster, Pace};

/// Allocations this large or larger are counted: a shard, a socket
/// buffer, a parity buffer — never a `Vec` of eight shard views.
const LARGE: usize = 4 * 1024;

struct CountingAlloc;

static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if size >= LARGE {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_overwrites_make_no_shard_sized_allocation() {
    const K: usize = 6;
    const T: usize = 2;
    const BRICKS: usize = 9;
    // Six 170 KiB shards: a multiple of k, so no tail shard is padded.
    const OBJECT: usize = K * 170 * 1024;
    const OVERWRITES: usize = 100;

    let mut cfg = GatewayConfig::new(K, T);
    // No background probes while the counter runs.
    cfg.keepalive_refresh = Duration::ZERO;
    let cluster = LocalCluster::start(BRICKS, cfg, Pace::Wall).expect("cluster");
    let gw = &cluster.gw;

    let mut data: Vec<u8> = (0..OBJECT).map(|i| (i * 31 + 7) as u8).collect();
    // Warm-up: the first put dials every lane and allocates every shard;
    // the second leaves each brick connection the buffer it displaced,
    // which the third already reuses.
    for round in 0..3u8 {
        data[0] = round;
        gw.put(1, &data).expect("warm-up put");
    }
    let before = LARGE_ALLOCS.load(Ordering::Relaxed);
    for i in 0..OVERWRITES {
        data[i * 4099] ^= 0x5a; // every overwrite carries new bytes
        gw.put(1, &data).expect("overwrite");
    }
    let large = LARGE_ALLOCS.load(Ordering::Relaxed) - before;

    let (back, _) = gw.get(1).expect("get");
    assert!(back == data, "the last overwrite reads back exactly");
    assert_eq!(
        large, 0,
        "{OVERWRITES} steady-state overwrites made {large} allocations of >= {LARGE} bytes"
    );

    cluster.shutdown().expect("shutdown");
}
