//! Replay and timer-back-end determinism of the full IMCa stack
//! (DESIGN.md §7).
//!
//! `Scheduler::Heap` is the reference model for the hierarchical timer
//! wheel: both must drive fault schedules, lease TTLs, watchdog timeouts,
//! racing writers, a crash with a write in flight and all through the
//! identical trace. This holds them to that on the one storm's canonical
//! schedule ([`common::canonical`]) under every row of its configuration
//! table. It is the end-to-end companion to the engine-level property
//! tests in `crates/sim/tests/wheel_props.rs`.

mod common;

use common::{canonical, Config};
use imca_repro::imca::MetaConfig;
use imca_repro::sim::Scheduler;

/// The canonical schedule under both timer back-ends, on every
/// configuration the storm runs.
#[test]
fn chaos_fleet_agrees_across_schedulers() {
    for config in Config::ALL {
        let heap = config.storm(Scheduler::Heap, 1973, canonical());
        // The storm actually stormed — guards against the back-ends
        // being vacuously equal.
        heap.assert_ran_every_variant();
        let leased = config.build().0.meta == MetaConfig::lease();
        let revoked = heap.metrics.counter_sum("leases.revocations_sent") > 0;
        let io_errors = heap.metrics.counter_sum("storage.io_errors");
        assert!(io_errors > 0, "{config:?}: no storage errors");
        assert!(heap.sick_errors > 0, "{config:?}: sick storage never bit");
        assert!(revoked || !leased, "{config:?}: never revoked a lease");
        let wheel = config.storm(Scheduler::Wheel, 1973, canonical());
        assert_eq!(heap, wheel, "{config:?}: diverged between timer back-ends");
    }
}
