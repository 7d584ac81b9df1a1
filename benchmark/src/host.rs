//! How the certify workloads keep a shared host's drift out of their
//! solve times.
//!
//! A shared host's speed for search code drifts by tens of percent over
//! seconds to minutes, and a run-level drift of that size is larger than
//! any bound a comparison could use. It drifts two ways. The hypervisor
//! takes the core away (steal), which the kernel leaves out of a process's
//! CPU time, so a [`Stopwatch`] does not count it. And other tenants on
//! the same cores and caches slow the code while it runs, so each warm
//! solve is preceded by two fixed reference computations, and the run's
//! solve times are reported scaled to a host on which they take
//! [`NOMINAL_SEARCH`] and [`NOMINAL_WALK`]: the references slow and speed
//! with the host, so the scaled times keep the solver's own cost.
//!
//! The references are the benchmark's own code, not the solver's, so a
//! change to the solver moves the scaled times and leaves the references
//! alone. One is branchy (a bitmask N-queens count), one is bound by the
//! latency of a core's L2 cache (a dependent walk through a 256 KiB random
//! cycle); the solver is both, and contention on a shared core slows the
//! two kinds of code by different amounts.

use crate::stats::{median, ms};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What the search reference takes on the host the benchmark was tuned on
/// (a 2-core x86-64 VM; about the median over fifteen runs).
pub const NOMINAL_SEARCH: Duration = Duration::from_micros(450);
/// What the walk reference takes there.
pub const NOMINAL_WALK: Duration = Duration::from_micros(1900);

/// Entries in the walk's cycle: 256 KiB of `u32`.
const ENTRIES: usize = 1 << 16;
/// Dependent loads per walk.
const STEPS: usize = 200_000;

/// CPU time used so far by every thread of this process.
fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec laid out as the C struct
    // for the whole call, and the clock id is a valid Linux clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Times work as the host let it run: the smaller of the elapsed wall time
/// and the process's CPU time. For work on one thread (every certify
/// solve) that is the wall time less any time the hypervisor took the core
/// away; for work spread over several threads it is the wall time.
pub struct Stopwatch {
    wall: Instant,
    cpu: Duration,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            cpu: process_cpu(),
            wall: Instant::now(),
        }
    }

    pub fn elapsed(&self) -> Duration {
        let wall = self.wall.elapsed();
        wall.min(process_cpu().saturating_sub(self.cpu))
    }
}

/// Keeps this process, and every thread it starts from now on, on the core
/// it is running on. The service starts a worker thread per drain; on one
/// core its start, hand-over and exit need no interrupt to another vCPU,
/// which waits on the hypervisor to run that vCPU.
pub fn pin_to_one_core() {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: sched_getcpu takes no arguments and only reads the CPU id.
    let cpu = unsafe { sched_getcpu() };
    if !(0..64).contains(&cpu) {
        return;
    }
    let mask = 1u64 << cpu;
    // SAFETY: `mask` is a live 8-byte CPU set for the call's duration and
    // `size` says so; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
    assert_eq!(rc, 0, "the benchmark may choose its own core");
}

/// Counts the placements of `n` non-attacking queens.
fn queens(n: u32) -> u64 {
    fn place(all: u32, cols: u32, left: u32, right: u32) -> u64 {
        if cols == all {
            return 1;
        }
        let mut free = all & !(cols | left | right);
        let mut count = 0;
        while free != 0 {
            let bit = free & free.wrapping_neg();
            free ^= bit;
            count += place(
                all,
                cols | bit,
                ((left | bit) << 1) & all,
                (right | bit) >> 1,
            );
        }
        count
    }
    place((1 << n) - 1, 0, 0, 0)
}

/// The two reference computations and their timings over a run.
pub struct Reference {
    /// A random single cycle through [`ENTRIES`] slots, the same in every
    /// run.
    next: Vec<u32>,
    search_ms: Vec<f64>,
    walk_ms: Vec<f64>,
}

impl Reference {
    /// Builds the walk's cycle (Sattolo's shuffle, from a fixed xorshift
    /// seed).
    pub fn new() -> Self {
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Reference {
            next,
            search_ms: Vec::new(),
            walk_ms: Vec::new(),
        }
    }

    /// Times both references once, on the host as it is right now.
    pub fn measure(&mut self) {
        let t = Stopwatch::start();
        let placements = queens(black_box(10));
        self.search_ms.push(ms(t.elapsed()));
        assert_eq!(placements, 724, "the search reference is deterministic");
        let t = Stopwatch::start();
        let mut at = 0u32;
        for _ in 0..STEPS {
            at = self.next[at as usize];
        }
        black_box(at);
        self.walk_ms.push(ms(t.elapsed()));
    }

    /// The run's median time of each reference (search, walk), in ms.
    pub fn medians(&self) -> (f64, f64) {
        (median(&self.search_ms), median(&self.walk_ms))
    }

    /// The factor that scales a time measured in this run to one on the
    /// nominal host: the geometric mean of the two references' ratios of
    /// nominal to median time.
    pub fn factor(&self) -> f64 {
        let (search, walk) = self.medians();
        let ratio = |nominal: Duration, median: f64| ms(nominal) / median.max(1e-9);
        (ratio(NOMINAL_SEARCH, search) * ratio(NOMINAL_WALK, walk)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queens_counts_match_the_known_sequence() {
        let counts: Vec<u64> = (1..=8).map(queens).collect();
        assert_eq!(counts, [1, 0, 0, 2, 10, 4, 40, 92]);
    }

    #[test]
    fn the_walk_is_one_cycle_through_every_slot() {
        let r = Reference::new();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = r.next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, ENTRIES);
    }

    #[test]
    fn a_host_twice_as_fast_doubles_the_times() {
        let mut r = Reference::new();
        r.search_ms = vec![ms(NOMINAL_SEARCH) / 2.0; 3];
        r.walk_ms = vec![ms(NOMINAL_WALK) / 2.0; 3];
        assert!((r.factor() - 2.0).abs() < 1e-12);
        r.search_ms = vec![ms(NOMINAL_SEARCH)];
        r.walk_ms = vec![ms(NOMINAL_WALK)];
        assert!((r.factor() - 1.0).abs() < 1e-12);
    }
}
