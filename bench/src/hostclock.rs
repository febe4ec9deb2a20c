//! The host clock. The harness is one CPU-bound thread, so what a rep
//! costs the host is the time that thread spent on a CPU. The wall clock
//! would add whatever else a shared sandbox was running meanwhile —
//! measured here at up to +70 % with both cores busy, against ±3 % for
//! the on-CPU time — and that is the sandbox's cost, not the program's.

use std::time::Instant;

/// Nanoseconds the calling thread has spent on a CPU, from the kernel's
/// scheduler accounting; `None` where the kernel does not keep it.
fn on_cpu_ns() -> Option<u64> {
    // The figure is brought up to date when the thread passes through
    // the scheduler, not when the file is read: without the yield it is
    // up to a tick (4 ms) stale.
    std::thread::yield_now();
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[derive(Debug, Clone, Copy)]
pub struct HostClock {
    /// When the process (or the test) started; zero of the trace's spans,
    /// which stay on the wall clock.
    pub origin: Instant,
}

impl HostClock {
    pub fn start() -> HostClock {
        HostClock {
            origin: Instant::now(),
        }
    }

    /// Host seconds so far: on-CPU time of this thread since it began,
    /// or wall time since [`HostClock::start`] where that is unknown.
    pub fn seconds(&self) -> f64 {
        match on_cpu_ns() {
            Some(ns) => ns as f64 / 1e9,
            None => self.origin.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_on_cpu_advances_with_work_and_not_with_sleep() {
        let clock = HostClock::start();
        let before = clock.seconds();
        let mut x = 0u64;
        while clock.origin.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let worked = clock.seconds() - before;
        assert!(worked > 0.005, "30 ms of spinning counted as {worked} s");
        if on_cpu_ns().is_some() {
            let before = clock.seconds();
            std::thread::sleep(std::time::Duration::from_millis(50));
            let slept = clock.seconds() - before;
            assert!(
                slept < 0.025,
                "50 ms of sleep counted as {slept} s on a CPU"
            );
        }
    }
}
