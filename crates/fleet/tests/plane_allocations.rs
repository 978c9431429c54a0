//! The disruption plane's hot path allocates nothing once warm.
//!
//! `FaultPlane` builds episode processes, incident trajectories and
//! capacity timelines lazily, so its first pass over a day allocates.
//! Every later query at an entity and instant it has already seen must
//! not: the driver asks it once per simulated span. A counting global
//! allocator checks that over chaos-smoke's per-entity sources composed
//! with incident-smoke's incidents and controllers.

use rpclens_fleet::faults::{FaultPlane, FaultScenario};
use rpclens_netsim::topology::{ClusterId, Topology};
use rpclens_simcore::time::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made on this thread, so the test harness's other
    /// threads cannot pollute the count.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations. `alloc_zeroed` and
/// `realloc` keep their default bodies, which allocate through `alloc`.
struct Counting;

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the slot is gone while the thread tears down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One pass of the per-span queries over a simulated day at 43 s steps:
/// the load-balancer check and the composed disruption for 64 services
/// spread over cluster pairs. Returns how many calls were disrupted.
fn pass(plane: &mut FaultPlane, topology: &Topology) -> u64 {
    let n = topology.num_clusters() as u16;
    let mut disrupted = 0;
    for i in 0..2_000u64 {
        let t = SimTime::from_nanos(i * 43_000_000_000);
        for e in 0..64u16 {
            let (client, server) = (e % n, (e * 7 + 3) % n);
            let wan = topology.path_class(ClusterId(client), ClusterId(server));
            let avoided = plane.lb_avoids(client, server, t);
            let d = plane.disruption(e, client, server, (e % 3) as usize, wan.is_wan(), t);
            disrupted += u64::from(avoided || d.unavailable || d.overload.is_some());
        }
    }
    disrupted
}

#[test]
fn warm_plane_queries_allocate_nothing() {
    let incident = FaultScenario::incident_smoke();
    let scenario = FaultScenario {
        incidents: incident.incidents,
        control: incident.control,
        ..FaultScenario::chaos_smoke()
    };
    let topology = Topology::default_world(7);
    let mut plane = FaultPlane::new(&scenario, 7, &topology).expect("scenario injects faults");

    let warm = pass(&mut plane, &topology);
    assert!(warm > 0, "the scenario never disrupted a call");
    let before = ALLOCATIONS.with(Cell::get);
    let again = pass(&mut plane, &topology);
    let allocated = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(again, warm, "a re-query changed an answer");
    assert_eq!(allocated, 0, "warm re-queries allocated {allocated} times");
}
