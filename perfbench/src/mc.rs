//! `mc_burst` and `mc_packed`: Monte-Carlo memory sweeps through the
//! sweep engine (`SweepRunner`, one engine thread).
//!
//! * `mc_burst` is the scalar per-shot path behind fig3/fig8/fig_threshold:
//!   d=7, p=1e-2, a centred size-2 rate-0.5 burst, anomaly-aware decoding.
//!   Sampling and matching dominate; the graph is built once per point and
//!   never re-weighted, and the packed path is not used.
//! * `mc_packed` is the bit-packed 64-shot path: d=5, p=2e-3, MBBE free.
//!   Sampling, the detector fold and the verdict memo dominate; matching
//!   runs only on memo misses.
//!
//! The end-to-end run sweeps [`CHUNKS`] seed-determined points round-robin
//! for `--seconds`; each point's kernel is wrapped so every kernel call
//! (one shot, or one 64-shot group) is timed and any panic is caught and
//! counted as a failed operation.

use crate::explode::Exploded;
use crate::harness::{cpu_ns, derive_seed, repeat_passes, CpuClock, Setup};
use crate::stats::{self, consistent_tally, reference_tally};
use crate::{Args, Check, Measured, Report};
use q3de::decoder::{DecoderConfig, MatcherKind};
use q3de::lattice::ErrorKind;
use q3de::sim::{
    shot_stream_seed, AnomalyInjection, DecodingStrategy, MemoryExperiment, MemoryExperimentConfig,
    PackedShotBatch, SweepConfig, SweepPoint, SweepReport, SweepRunner,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const BURST_STRATEGY: DecodingStrategy = DecodingStrategy::AnomalyAware;
const BURST_CHUNK_SHOTS: usize = 1024;
/// Distinct sweep points the untimed run cycles through (see
/// `measure_chunks`); the same for both workloads.
const CHUNKS: u64 = 16;
const BURST_TRACE_SHOTS: u64 = 1024;
const BURST_GATE_SEED: u64 = 0x51DE_0001;
/// Logical failures / shots of the gate sweep, recorded at the parent commit.
const BURST_REFERENCE: (u64, u64) = (126, 8192);

const PACKED_STRATEGY: DecodingStrategy = DecodingStrategy::MbbeFree;
const PACKED_CHUNK_SHOTS: usize = 1 << 16;
const PACKED_TRACE_GROUPS: u64 = 1024;
const PACKED_GATE_SEED: u64 = 0x51DE_0002;
/// Logical failures / shots of the gate sweep, recorded at the parent commit.
const PACKED_REFERENCE: (u64, u64) = (5, 1 << 18);

fn tree() -> DecoderConfig {
    DecoderConfig::default().with_matcher(MatcherKind::Tree)
}

fn burst_config() -> MemoryExperimentConfig {
    let mut config =
        MemoryExperimentConfig::new(7, 1e-2).with_anomaly(AnomalyInjection::centered(2, 0.5));
    config.decoder = tree();
    config
}

fn packed_config() -> MemoryExperimentConfig {
    let mut config = MemoryExperimentConfig::new(5, 2e-3);
    config.decoder = tree();
    config
}

fn run_sweep(point: SweepPoint, shots: usize) -> SweepReport {
    SweepRunner::new(SweepConfig::fixed(shots).with_threads(1))
        .run(vec![point])
        .expect("a sweep without checkpoint cannot fail")
}

/// CPU time of every kernel call, by shot or group index, plus the number
/// of calls that panicked.
#[derive(Default)]
struct OpLog {
    op_ns: Mutex<Vec<(u64, u64)>>,
    busy_ns: AtomicU64,
    panics: AtomicU64,
}

impl OpLog {
    /// Runs the kernel call on shot or group `index` on the engine's
    /// worker thread, timing it on that thread's CPU clock.
    fn record<T>(&self, index: u64, fallback: T, call: impl FnOnce() -> T) -> T {
        let start = cpu_ns(CpuClock::Thread);
        let out = catch_unwind(AssertUnwindSafe(call)).unwrap_or_else(|_| {
            self.panics.fetch_add(1, Ordering::Relaxed);
            fallback
        });
        let ns = cpu_ns(CpuClock::Thread) - start;
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.op_ns
            .lock()
            .expect("op log poisoned")
            .push((index, ns));
        out
    }

    fn take(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut *self.op_ns.lock().expect("op log poisoned"))
    }
}

/// A per-shot point whose kernel calls are timed and panic-guarded.
fn timed_shots(id: String, inner: SweepPoint, log: &Arc<OpLog>) -> SweepPoint {
    let log = Arc::clone(log);
    SweepPoint::new(id, move |stream| {
        log.record(stream, false, || inner.run(stream))
    })
}

/// A packed point whose 64-shot group calls are timed and panic-guarded —
/// `SweepPoint::from_memory_packed` with the timer around `run_group`.
fn timed_groups(id: String, batch: PackedShotBatch<ChaCha8Rng>, log: &Arc<OpLog>) -> SweepPoint {
    let log = Arc::clone(log);
    SweepPoint::new_packed(id, move |group| {
        log.record(group, 0, || batch.run_group(group))
    })
}

/// What `measure_chunks` saw: the timings, the shots and logical failures
/// of the distinct points (each counted once), the points whose repeated
/// sweeps did not reproduce their first tally, and the caught panics.
struct Chunks {
    measured: Measured,
    shots: u64,
    failures: u64,
    unrepeatable: u64,
    panics: u64,
}

/// Sweeps [`CHUNKS`] seed-determined points round-robin, one point of
/// `chunk_shots` shots at a time, until `seconds` have passed, repeating
/// the set-up after every point.  Each point is a throughput unit and each
/// kernel call (`ops_per_chunk` per point, `cycles_per_op` code cycles
/// each) an operation, and each is timed on every repetition.
fn measure_chunks(
    args: &Args,
    op: &'static str,
    (chunk_shots, ops_per_chunk, cycles_per_op): (usize, u64, f64),
    mut setup: Setup,
    mut make: impl FnMut(u64, &Arc<OpLog>) -> SweepPoint,
) -> Chunks {
    let log = Arc::new(OpLog::default());
    let mut measured = Measured::new(op, (CHUNKS * ops_per_chunk) as usize, Some(CHUNKS as usize));
    let mut tallies: Vec<Option<u64>> = vec![None; CHUNKS as usize];
    let mut unrepeatable = 0u64;
    let start = Instant::now();
    let mut chunk = 0u64;
    while start.elapsed().as_secs_f64() < args.seconds {
        let slot = chunk % CHUNKS;
        let point = make(slot, &log);
        let begin = cpu_ns(CpuClock::Process);
        let report = run_sweep(point, chunk_shots);
        let unit_ns = cpu_ns(CpuClock::Process) - begin;
        measured.unit(slot as usize, unit_ns, ops_per_chunk as f64 * cycles_per_op);
        for (index, ns) in log.take() {
            measured.op((slot * ops_per_chunk + index) as usize, ns, cycles_per_op);
        }
        let failures = report.total_failures() as u64;
        let first = *tallies[slot as usize].get_or_insert(failures);
        unrepeatable += u64::from(first != failures);
        chunk += 1;
        setup.rep();
    }
    measured.setup_s = setup.times();
    let seen: Vec<u64> = tallies.iter().flatten().copied().collect();
    Chunks {
        measured,
        shots: seen.len() as u64 * chunk_shots as u64,
        failures: seen.iter().sum(),
        unrepeatable,
        panics: log.panics.load(Ordering::Relaxed),
    }
}

/// The checks on an untimed `mc_*` run: its distinct points' tally is
/// consistent with the reference and every repeated sweep reproduced it.
fn chunk_checks(name: &str, chunks: &Chunks, reference: (u64, u64)) -> [Check; 2] {
    [
        consistent_tally(
            &format!("{name}.measured_failures"),
            chunks.failures,
            chunks.shots,
            reference,
        ),
        Check::new(
            format!("{name}.repeated_sweeps_reproduce_tallies"),
            chunks.unrepeatable == 0,
            format!(
                "{} of {} sweeps gave another failure count than the first sweep of their point",
                chunks.unrepeatable,
                chunks.measured.rate_units().seen().count()
            ),
        ),
    ]
}

pub fn burst(args: &Args) -> Report {
    let config = burst_config();
    let rounds = config.effective_rounds() as f64;
    let from_memory = |seed: u64| {
        SweepPoint::from_memory::<ChaCha8Rng>("mc_burst", config, BURST_STRATEGY, seed)
            .expect("distance 7 is valid")
    };
    let mut report = Report::default();

    let gate = run_sweep(from_memory(BURST_GATE_SEED), BURST_REFERENCE.1 as usize);
    report.checks.push(reference_tally(
        "mc_burst.gate_failures",
        gate.total_failures() as u64,
        gate.total_shots() as u64,
        BURST_REFERENCE,
    ));
    if !args.trace {
        // Set-up: constructors plus the first shot, which builds the graph.
        let setup = Setup::new(|rep| {
            from_memory(args.seed).run(rep);
        });
        let chunks = measure_chunks(
            args,
            "one shot",
            (BURST_CHUNK_SHOTS, BURST_CHUNK_SHOTS as u64, rounds),
            setup,
            |chunk, log| {
                let inner = from_memory(derive_seed(args.seed, chunk));
                timed_shots(format!("mc_burst/{chunk}"), inner, log)
            },
        );
        report
            .checks
            .extend(chunk_checks("mc_burst", &chunks, BURST_REFERENCE));
        report.attempted = chunks.measured.runs;
        report.failed = chunks.panics;
        report.measured = Some(chunks.measured);
        return report;
    }

    let experiment = MemoryExperiment::new(config).expect("distance 7 is valid");
    let graph = experiment.code().matching_graph(ErrorKind::X);
    let model = experiment.weight_model(BURST_STRATEGY);
    let base = derive_seed(args.seed, u64::MAX - 1);
    let mut engine_frac = Vec::new();
    let mut overhead = Vec::new();
    let mut explode_ok = true;
    let mut engine_agrees = true;
    let (tracer, counts, repeat) = repeat_passes(args, |tracer| {
        let log = Arc::new(OpLog::default());
        let point = timed_shots("mc_burst/trace".into(), from_memory(base), &log);
        let start = cpu_ns(CpuClock::Process);
        let engine = run_sweep(point, BURST_TRACE_SHOTS as usize);
        let untraced = cpu_ns(CpuClock::Process) - start;
        let kernel = log.busy_ns.load(Ordering::Relaxed);
        engine_frac.push(1.0 - kernel as f64 / untraced as f64);

        let mut exploded = Exploded::new(config.decoder);
        let mut events_total = 0u64;
        let mut failures = 0u64;
        let start = cpu_ns(CpuClock::Process);
        for stream in 0..BURST_TRACE_SHOTS {
            let failed = tracer.span("shot", stream, |t| {
                let mut rng = ChaCha8Rng::seed_from_u64(shot_stream_seed(base, stream));
                let (history, parity) = t.span("sample", stream, |_| {
                    experiment.sample_history(BURST_STRATEGY, &mut rng)
                });
                let events = t.span("syndrome", stream, |_| history.detection_events());
                events_total += events.len() as u64;
                exploded
                    .decode(t, stream, &graph, history.num_layers(), events, &model)
                    .is_logical_failure(parity)
            });
            failures += u64::from(failed);
        }
        overhead.push((cpu_ns(CpuClock::Process) - start) as f64 / untraced as f64 - 1.0);
        explode_ok &= exploded.check.passed();
        engine_agrees &= failures == engine.total_failures() as u64;
        (exploded.counts, events_total, failures)
    });
    let (decode_counts, events_total, failures) = counts;
    report.checks.push(repeat);
    report.checks.push(Check::new(
        "trace.exploded_decode",
        explode_ok,
        "exploded graph+match calls agree with DecoderContext on weight, builds and re-weights",
    ));
    report.checks.push(Check::new(
        "trace.exploded_failures_match_engine",
        engine_agrees,
        format!("{failures} failures in {BURST_TRACE_SHOTS} shots on both paths"),
    ));
    report.attempted = BURST_TRACE_SHOTS;
    report.layers = crate::explode::layer_metrics(&tracer, &decode_counts);
    report.layers.extend([
        (
            "sample.us_per_shot",
            stats::mean_us(&tracer.durations("sample")),
        ),
        (
            "syndrome.events_per_shot",
            events_total as f64 / BURST_TRACE_SHOTS as f64,
        ),
        ("engine.overhead_frac", stats::median(&engine_frac)),
        ("trace.overhead_frac", stats::median(&overhead)),
    ]);
    report.tracer = Some(tracer);
    report
}

pub fn packed(args: &Args) -> Report {
    let config = packed_config();
    let rounds = config.effective_rounds() as f64;
    let batch = |seed: u64| {
        MemoryExperiment::new(config)
            .expect("distance 5 is valid")
            .packed::<ChaCha8Rng>(PACKED_STRATEGY, seed)
    };
    let mut report = Report::default();

    let gate = run_sweep(
        SweepPoint::from_memory_packed::<ChaCha8Rng>(
            "mc_packed",
            config,
            PACKED_STRATEGY,
            PACKED_GATE_SEED,
        )
        .expect("distance 5 is valid"),
        PACKED_REFERENCE.1 as usize,
    );
    report.checks.push(reference_tally(
        "mc_packed.gate_failures",
        gate.total_failures() as u64,
        gate.total_shots() as u64,
        PACKED_REFERENCE,
    ));
    if !args.trace {
        // Set-up: constructors plus the first group, which builds the graph.
        let setup = Setup::new(|rep| {
            SweepPoint::from_memory_packed::<ChaCha8Rng>(
                "mc_packed",
                config,
                PACKED_STRATEGY,
                args.seed,
            )
            .expect("distance 5 is valid")
            .run_range(64 * rep, 64);
        });
        let chunks = measure_chunks(
            args,
            "one 64-shot group",
            (
                PACKED_CHUNK_SHOTS,
                PACKED_CHUNK_SHOTS as u64 / 64,
                64.0 * rounds,
            ),
            setup,
            |chunk, log| {
                timed_groups(
                    format!("mc_packed/{chunk}"),
                    batch(derive_seed(args.seed, chunk)),
                    log,
                )
            },
        );
        report
            .checks
            .extend(chunk_checks("mc_packed", &chunks, PACKED_REFERENCE));
        report.attempted = chunks.measured.runs;
        report.failed = chunks.panics;
        report.measured = Some(chunks.measured);
        return report;
    }

    let experiment = MemoryExperiment::new(config).expect("distance 5 is valid");
    let graph = experiment.code().matching_graph(ErrorKind::X);
    let model = experiment.weight_model(PACKED_STRATEGY);
    let base = derive_seed(args.seed, u64::MAX - 1);
    let mut engine_frac = Vec::new();
    let mut overhead = Vec::new();
    let mut explode_ok = true;
    let mut masks_agree = true;
    let (tracer, counts, repeat) = repeat_passes(args, |tracer| {
        let log = Arc::new(OpLog::default());
        let point = timed_groups("mc_packed/trace".into(), batch(base), &log);
        let start = cpu_ns(CpuClock::Process);
        let engine = run_sweep(point, (PACKED_TRACE_GROUPS * 64) as usize);
        let untraced = cpu_ns(CpuClock::Process) - start;
        let kernel = log.busy_ns.load(Ordering::Relaxed);
        engine_frac.push(1.0 - kernel as f64 / untraced as f64);

        let traced_batch = batch(base);
        let mut exploded = Exploded::new(config.decoder);
        let mut verdicts: HashMap<Vec<u64>, bool> = HashMap::new();
        let (mut eventful, mut failures) = (0u64, 0u64);
        let (mut signature, mut detectors, mut events) = (Vec::new(), Vec::new(), Vec::new());
        let start = cpu_ns(CpuClock::Process);
        for group in 0..PACKED_TRACE_GROUPS {
            tracer.span("group", group, |t| {
                let (syndromes, cut) =
                    t.span("packed.sample", group, |_| traced_batch.sample_group(group));
                t.span("packed.fold", group, |_| {
                    syndromes.detector_words(&mut detectors)
                });
                let active = detectors.iter().fold(0u64, |mask, &word| mask | word);
                eventful += u64::from(active.count_ones());
                let mut mask = cut & !active;
                let mut lanes = active;
                while lanes != 0 {
                    let lane = lanes.trailing_zeros() as usize;
                    lanes &= lanes - 1;
                    syndromes.lane_signature(lane, &mut signature);
                    let crosses = match verdicts.get(&signature) {
                        Some(&crosses) => crosses,
                        None => {
                            syndromes.lane_events(lane, &mut events);
                            let request = group * 64 + lane as u64;
                            let crosses = exploded
                                .decode(
                                    t,
                                    request,
                                    &graph,
                                    syndromes.num_layers(),
                                    std::mem::take(&mut events),
                                    &model,
                                )
                                .correction_crosses_cut();
                            verdicts.insert(signature.clone(), crosses);
                            crosses
                        }
                    };
                    if crosses != ((cut >> lane) & 1 == 1) {
                        mask |= 1 << lane;
                    }
                }
                let run_mask = t.span("packed.run", group, |_| traced_batch.run_group(group));
                masks_agree &= run_mask == mask;
                failures += u64::from(mask.count_ones());
            });
        }
        overhead.push((cpu_ns(CpuClock::Process) - start) as f64 / untraced as f64 - 1.0);
        explode_ok &= exploded.check.passed();
        masks_agree &= failures == engine.total_failures() as u64;
        (exploded.counts, eventful, verdicts.len() as u64, failures)
    });
    let (decode_counts, eventful, distinct, failures) = counts;
    report.checks.push(repeat);
    report.checks.push(Check::new(
        "trace.exploded_decode",
        explode_ok,
        "exploded graph+match calls agree with DecoderContext on weight, builds and re-weights",
    ));
    report.checks.push(Check::new(
        "trace.exploded_masks_match_run_group",
        masks_agree,
        format!(
            "{failures} failures in {} shots on the exploded, run_group and engine paths",
            PACKED_TRACE_GROUPS * 64
        ),
    ));
    report.attempted = PACKED_TRACE_GROUPS;
    let lanes = (PACKED_TRACE_GROUPS * 64) as f64;
    report.layers = crate::explode::layer_metrics(&tracer, &decode_counts);
    report.layers.extend([
        (
            "packed.sample_us_per_group",
            stats::mean_us(&tracer.durations("packed.sample")),
        ),
        (
            "packed.fold_us_per_group",
            stats::mean_us(&tracer.durations("packed.fold")),
        ),
        (
            "packed.run_us_per_group",
            stats::mean_us(&tracer.durations("packed.run")),
        ),
        ("packed.eventful_frac", eventful as f64 / lanes),
        (
            "packed.distinct_sig_frac",
            distinct as f64 / eventful.max(1) as f64,
        ),
        ("engine.overhead_frac", stats::median(&engine_frac)),
        ("trace.overhead_frac", stats::median(&overhead)),
    ]);
    report.tracer = Some(tracer);
    report
}
