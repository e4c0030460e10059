//! `plane_fig10`: the Fig. 10 instruction-throughput simulator
//! (`ThroughputSimulator` over the 11×11-block plane, Q3DE mode, MBBE
//! probability 1e-3 per block per d cycles, bursts of 100 d-cycles).
//!
//! One operation is one `ThroughputSimulator::run` of the Fig. 10 point
//! (10k random `meas_ZZ` instructions) capped at [`OP_CYCLES`] code cycles,
//! so every operation simulates the same number of cycles of a saturated
//! instruction queue; the gate runs the full point to completion.  This is
//! the only workload for the control layer, and no decoder code runs in it.

use crate::harness::{cpu_ns, derive_seed, guarded, repeat_passes, CpuClock, Meter, Setup};
use crate::stats::{self, equal};
use crate::{Args, Check, Report};
use q3de::control::{
    ArchitectureMode, BlockCoord, BlockState, Instruction, QubitPlane, RegisterId, Scheduler,
    ThroughputConfig, ThroughputReport, ThroughputSimulator,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const OP_CYCLES: u64 = 100;
/// Distinct seed-determined runs the untimed run cycles through.
const RUNS: u64 = 1024;
/// Runs of the traced pass.
const TRACE_RUNS: u64 = 10;
const GATE_SEED: u64 = 0x51DE_0005;
/// `(completed, cycles, instructions per d cycles)` of the gate run,
/// recorded at the parent commit.
const GATE_REFERENCE: (usize, u64, f64) = (10102, 45057, 2.4662538562265577);

fn fig10() -> ThroughputConfig {
    ThroughputConfig::fig10(ArchitectureMode::Q3de, 1e-3, 100)
}

fn op_config() -> ThroughputConfig {
    ThroughputConfig {
        max_cycles: OP_CYCLES,
        ..fig10()
    }
}

/// Counters of one scheduler drive.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Drive {
    completed: usize,
    cycles: u64,
    idle_steps: u64,
}

/// Drives a `Scheduler` exactly as `ThroughputSimulator::run` does for a
/// Q3DE-mode configuration, with a span around every `Scheduler::step`.
fn drive(
    config: &ThroughputConfig,
    rng: &mut ChaCha8Rng,
    tracer: &mut crate::trace::Tracer,
    request: u64,
) -> Drive {
    let d = config.code_distance;
    let plane = QubitPlane::checkerboard(config.plane_size, config.plane_size);
    let qubits = plane.logical_qubits();
    let mut scheduler = Scheduler::new(plane, d, 1);
    for i in 0..config.num_instructions {
        let a = qubits[rng.gen_range(0..qubits.len())];
        let b = loop {
            let candidate = qubits[rng.gen_range(0..qubits.len())];
            if candidate != a {
                break candidate;
            }
        };
        scheduler.enqueue(Instruction::MeasZz {
            a,
            b,
            register: RegisterId(i),
        });
    }
    let per_cycle_probability = config.mbbe_probability_per_block_per_d_cycles / d as f64;
    let duration = config.mbbe_duration_d_cycles * d as u64;
    let mut idle_steps = 0;
    while !scheduler.is_idle() && scheduler.cycle() < config.max_cycles {
        let cycle = scheduler.cycle();
        for row in 0..scheduler.plane().rows() {
            for col in 0..scheduler.plane().cols() {
                if rng.gen::<f64>() < per_cycle_probability {
                    let block = BlockCoord::new(row, col);
                    match scheduler.plane().state(block) {
                        BlockState::Logical(id) => scheduler.enqueue(Instruction::OpExpand {
                            target: id,
                            keep_cycles: duration,
                        }),
                        _ => scheduler
                            .plane_mut()
                            .mark_anomalous(block, cycle + duration),
                    }
                }
            }
        }
        let (pending, completed) = (scheduler.pending(), scheduler.completed());
        tracer.span("plane.step", request, |_| scheduler.step());
        if scheduler.pending() == pending && scheduler.completed() == completed {
            idle_steps += 1;
        }
    }
    Drive {
        completed: scheduler.completed(),
        cycles: scheduler.cycle().max(1),
        idle_steps,
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let gate = ThroughputSimulator::new(fig10()).run(&mut ChaCha8Rng::seed_from_u64(GATE_SEED));
    report.checks.push(equal(
        "plane_fig10.gate (completed, cycles, instructions per d cycles)",
        (gate.completed, gate.cycles, gate.instructions_per_d_cycles),
        GATE_REFERENCE,
    ));

    let config = op_config();
    if !args.trace {
        // Set-up: the constructor plus a run stopped before its first cycle,
        // which allocates the plane and queues the point's instruction stream.
        let empty = ThroughputConfig {
            max_cycles: 0,
            ..fig10()
        };
        let setup = Setup::new(|rep| {
            let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(args.seed, rep));
            ThroughputSimulator::new(empty).run(&mut rng);
        });
        let mut meter = Meter::new(
            "one ThroughputSimulator::run capped at 100 cycles",
            RUNS as usize,
            CpuClock::Thread,
            args,
            setup,
        );
        let simulator = ThroughputSimulator::new(config);
        let (mut runs, mut panics, mut short) = (0u64, 0u64, 0u64);
        let fallback = ThroughputReport {
            completed: 0,
            cycles: 0,
            instructions_per_d_cycles: 0.0,
        };
        while meter.running() {
            let input = runs % RUNS;
            let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(args.seed, input));
            // The run reports how many cycles it simulated.
            let outcome = meter.op_counted(input as usize, || {
                let out = guarded(&mut panics, fallback, || simulator.run(&mut rng));
                (out, out.cycles as f64)
            });
            short += u64::from(outcome.cycles != OP_CYCLES || outcome.completed == 0);
            runs += 1;
        }
        report.checks.push(equal(
            "plane_fig10.runs_reaching_the_cycle_cap",
            runs - short,
            runs,
        ));
        report.attempted = runs;
        report.failed = panics;
        report.measured = Some(meter.finish());
        return report;
    }

    let mut overhead = Vec::new();
    let mut agrees = true;
    let (tracer, counts, repeat) = repeat_passes(args, |tracer| {
        let simulator = ThroughputSimulator::new(config);
        let start = cpu_ns(CpuClock::Process);
        let reports: Vec<ThroughputReport> = (0..TRACE_RUNS)
            .map(|r| simulator.run(&mut ChaCha8Rng::seed_from_u64(derive_seed(args.seed, r))))
            .collect();
        let untraced = (cpu_ns(CpuClock::Process) - start) as f64;
        let start = cpu_ns(CpuClock::Process);
        let mut total = Drive::default();
        for (r, run) in reports.iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(args.seed, r as u64));
            let drive = tracer.span("run", r as u64, |t| drive(&config, &mut rng, t, r as u64));
            agrees &= drive.completed == run.completed && drive.cycles == run.cycles;
            total.completed += drive.completed;
            total.cycles += drive.cycles;
            total.idle_steps += drive.idle_steps;
        }
        overhead.push((cpu_ns(CpuClock::Process) - start) as f64 / untraced - 1.0);
        total
    });
    report.checks.push(repeat);
    report.checks.push(Check::new(
        "trace.scheduler_drive_matches_run",
        agrees,
        "driving Scheduler::step directly reproduces completed and cycles of every run",
    ));
    report.attempted = TRACE_RUNS;
    report.layers = vec![
        (
            "plane.us_per_step",
            stats::mean_us(&tracer.durations("plane.step")),
        ),
        ("plane.sim_cycles", counts.cycles as f64),
        (
            "plane.idle_step_frac",
            counts.idle_steps as f64 / counts.cycles as f64,
        ),
        ("trace.overhead_frac", stats::median(&overhead)),
    ];
    report.tracer = Some(tracer);
    report
}
