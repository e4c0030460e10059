//! Measurement plumbing shared by the workloads: seeds, repeated set-up,
//! the timed and panic-guarded operation loop, and repeated traced passes.

use crate::trace::Tracer;
use crate::{Args, Check, Measured};
use q3de::sim::shot_stream_seed;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The set-up is repeated after every this many CPU seconds of measured
/// operations.
const SETUP_EVERY_SECONDS: f64 = 0.1;

/// Base seed of the `index`-th independent input stream derived from the
/// run's `--seed`.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    shot_stream_seed(seed ^ 0xB5AD_4ECE_DA1C_E2A9, index.wrapping_add(1))
}

/// The workload's set-up, repeated every [`SETUP_EVERY_SECONDS`] of
/// measured work (after every sweep point for the `mc_*` workloads) so its
/// repetitions spread over the whole run: on a shared host the same code
/// runs up to a third faster or slower for seconds at a time, and a set-up
/// timed only at the start sees just one of those stretches.
pub struct Setup<'a> {
    once: Box<dyn FnMut(u64) + 'a>,
    times: Vec<f64>,
}

impl<'a> Setup<'a> {
    /// Runs one untimed warm-up set-up, which faults in the process's first
    /// pages.  Repetition `rep` takes its first input from stream `rep`, so
    /// the median does not hang on the cost of one particular first input.
    pub fn new(mut once: impl FnMut(u64) + 'a) -> Self {
        once(0);
        Self {
            once: Box::new(once),
            times: Vec::new(),
        }
    }

    /// Times one more set-up in process CPU time.
    pub fn rep(&mut self) {
        let rep = self.times.len() as u64 + 1;
        let start = cpu_ns(CpuClock::Process);
        (self.once)(rep);
        self.times
            .push((cpu_ns(CpuClock::Process) - start) as f64 / 1e9);
    }

    /// Set-up times in seconds, one per repetition.
    pub fn times(self) -> Vec<f64> {
        self.times
    }
}

/// Runs `call`, turning a panic into `fallback` and counting it.
pub fn guarded<T>(panics: &mut u64, fallback: T, call: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(call)).unwrap_or_else(|_| {
        *panics += 1;
        fallback
    })
}

/// Times operations one by one, in CPU time on `clock`, for `--seconds`
/// seconds of wall time, and repeats the set-up every
/// [`SETUP_EVERY_SECONDS`] of measured CPU time.
pub struct Meter<'a> {
    measured: Measured,
    clock: CpuClock,
    start: Instant,
    seconds: f64,
    since_setup_ns: u64,
    setup: Setup<'a>,
}

impl<'a> Meter<'a> {
    /// Times operations on `inputs` distinct inputs.
    pub fn new(
        op: &'static str,
        inputs: usize,
        clock: CpuClock,
        args: &Args,
        setup: Setup<'a>,
    ) -> Self {
        Self {
            measured: Measured::new(op, inputs, None),
            clock,
            start: Instant::now(),
            seconds: args.seconds,
            since_setup_ns: 0,
            setup,
        }
    }

    /// Whether the measuring time is not yet used up.
    pub fn running(&self) -> bool {
        self.start.elapsed().as_secs_f64() < self.seconds
    }

    /// Times one operation on input `id` that processes `cycles` code
    /// cycles.
    pub fn op<T>(&mut self, id: usize, cycles: f64, call: impl FnOnce() -> T) -> T {
        self.op_counted(id, || (call(), cycles))
    }

    /// Times one operation on input `id` that reports how many code cycles
    /// it processed.
    pub fn op_counted<T>(&mut self, id: usize, call: impl FnOnce() -> (T, f64)) -> T {
        let start = cpu_ns(self.clock);
        let (out, cycles) = call();
        let ns = cpu_ns(self.clock) - start;
        self.measured.op(id, ns, cycles);
        self.since_setup_ns += ns;
        if self.since_setup_ns as f64 >= SETUP_EVERY_SECONDS * 1e9 {
            self.since_setup_ns = 0;
            self.setup.rep();
        }
        out
    }

    pub fn finish(mut self) -> Measured {
        self.measured.setup_s = self.setup.times();
        self.measured
    }
}

/// Runs a fixed, seed-determined amount of traced work repeatedly until
/// `--seconds` have passed (at least twice) and checks that every pass
/// produced the same counts.
pub fn repeat_passes<C: PartialEq>(
    args: &Args,
    mut pass: impl FnMut(&mut Tracer) -> C,
) -> (Tracer, C, Check) {
    let mut tracer = Tracer::new();
    let start = Instant::now();
    let first = pass(&mut tracer);
    let mut passes = 1;
    let mut same = true;
    while passes < 2 || start.elapsed().as_secs_f64() < args.seconds {
        same &= pass(&mut tracer) == first;
        passes += 1;
    }
    let check = Check::new(
        "trace.counts_repeat",
        same,
        format!("{passes} passes over the same inputs gave identical counts"),
    );
    (tracer, first, check)
}

/// The two POSIX CPU-time clocks the benchmark reads.
#[derive(Debug, Clone, Copy)]
pub enum CpuClock {
    /// CPU time of every thread of this process, exited ones included.
    Process = 2,
    /// CPU time of the calling thread.
    Thread = 3,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Nanoseconds of CPU time on `clock`.  CPU time excludes the time the
/// hypervisor steals from the virtual CPU and the time a thread waits to
/// be scheduled, which on a shared host swing wall-clock timings by tens
/// of percent from one minute to the next.
pub fn cpu_ns(clock: CpuClock) -> u64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable timespec with the C layout of
    // 64-bit Linux, and both clock ids are defined there.
    let status = unsafe { clock_gettime(clock as i32, &mut now) };
    assert_eq!(status, 0, "clock_gettime failed for {clock:?}");
    now.tv_sec as u64 * 1_000_000_000 + now.tv_nsec as u64
}
