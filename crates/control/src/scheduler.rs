//! Instruction scheduling and the Fig. 10 throughput simulation.

use crate::isa::{Instruction, LogicalQubitId, RegisterId};
use crate::plane::{BlockCoord, BlockState, QubitPlane, RouteScratch};
use rand::Rng;
use std::collections::VecDeque;

/// Which architecture variant the throughput simulation models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchitectureMode {
    /// No MBBEs occur at all (the "MBBE free" reference line).
    MbbeFree,
    /// The baseline mitigation: the default code distance is doubled, so
    /// every instruction takes `2d` cycles, and MBBEs need no avoidance.
    Baseline,
    /// Q3DE: the default distance stays `d`; MBBE-struck routing blocks are
    /// avoided for the burst duration and struck logical qubits are expanded
    /// (blocking their expansion space) for the burst duration.
    Q3de,
}

/// An instruction currently executing on the plane.
#[derive(Debug, Clone)]
struct InFlight {
    instruction: Instruction,
    completes_at: u64,
}

/// How many queued instructions the scheduler examines per cycle.
const ISSUE_WINDOW: usize = 32;
// The issue scan records issued window slots in a `u32` bitmask.
const _: () = assert!(ISSUE_WINDOW <= u32::BITS as usize);

/// A greedy in-order-issue instruction scheduler over a [`QubitPlane`].
///
/// Each cycle the scheduler retires finished instructions and then walks the
/// head of the instruction queue (up to 32 entries), issuing every
/// instruction that commutes with all earlier still-queued instructions,
/// whose target qubits are idle and whose routing/expansion space is
/// available.
///
/// Qubit ids index per-qubit tables, so memory grows with the largest id
/// the scheduler has examined.
#[derive(Debug, Clone)]
pub struct Scheduler {
    plane: QubitPlane,
    code_distance: usize,
    latency_factor: u64,
    queue: VecDeque<Instruction>,
    in_flight: Vec<InFlight>,
    completed: usize,
    cycle: u64,
    /// The earliest `completes_at` in flight (`u64::MAX` when none is).
    next_completion: u64,
    /// Whether the queue or the plane may have changed since the last issue
    /// scan that issued nothing.
    rescan: bool,
    /// Per qubit id: an in-flight instruction targets it.
    busy: Vec<bool>,
    /// Per qubit id: an earlier candidate left queued by the current scan
    /// targets it.
    blocked: Vec<bool>,
    /// Registers of the earlier candidates left queued by the current scan.
    blocked_registers: Vec<RegisterId>,
    route: RouteScratch,
}

impl Scheduler {
    /// Creates a scheduler over `plane` for logical qubits of distance
    /// `code_distance`.  `latency_factor` scales every instruction latency
    /// (2 for the doubled-distance baseline).
    pub fn new(plane: QubitPlane, code_distance: usize, latency_factor: u64) -> Self {
        let qubits = plane.num_logical_qubits();
        Self {
            plane,
            code_distance,
            latency_factor: latency_factor.max(1),
            queue: VecDeque::new(),
            in_flight: Vec::new(),
            completed: 0,
            cycle: 0,
            next_completion: u64::MAX,
            rescan: true,
            busy: vec![false; qubits],
            blocked: vec![false; qubits],
            blocked_registers: Vec::with_capacity(ISSUE_WINDOW),
            route: RouteScratch::default(),
        }
    }

    /// Pushes an instruction to the back of the instruction queue.
    pub fn enqueue(&mut self, instruction: Instruction) {
        self.queue.push_back(instruction);
        self.rescan = true;
    }

    /// The qubit plane (for inspection and for injecting anomalies).
    pub fn plane_mut(&mut self) -> &mut QubitPlane {
        self.rescan = true;
        &mut self.plane
    }

    /// The qubit plane, immutable.
    pub fn plane(&self) -> &QubitPlane {
        &self.plane
    }

    /// Number of completed instructions.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Number of queued (not yet issued) instructions.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Number of instructions currently executing.
    pub fn executing(&self) -> usize {
        self.in_flight.len()
    }

    /// The current code cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether all enqueued instructions have completed.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_flight.is_empty()
    }

    /// Advances the scheduler by one code cycle.
    ///
    /// A cycle retires the instructions that complete on it, releases the
    /// reservations and anomalies that expire on it and then scans the issue
    /// window.  When that scan provably cannot change anything, the cycle
    /// advances without it.  That holds when all of these are true:
    ///
    /// * no in-flight instruction completes on this cycle,
    /// * no reservation or anomaly of the plane expires on this cycle,
    /// * no instruction was enqueued since the last scan, and that scan
    ///   issued nothing,
    /// * [`Scheduler::plane_mut`] was not called since that scan.
    pub fn step(&mut self) {
        let cycle = self.cycle;
        self.cycle += 1;
        if !self.rescan && cycle < self.next_completion && cycle < self.plane.next_expiry() {
            return;
        }
        self.retire(cycle);
        self.plane.expire(cycle);
        self.rescan = self.issue(cycle);
    }

    fn retire(&mut self, cycle: u64) {
        if cycle < self.next_completion {
            return;
        }
        let before = self.in_flight.len();
        let busy = &mut self.busy;
        self.in_flight.retain(|f| {
            let done = f.completes_at <= cycle;
            if done {
                for t in f.instruction.targets().iter() {
                    busy[t.0] = false;
                }
            }
            !done
        });
        self.completed += before - self.in_flight.len();
        self.next_completion = self
            .in_flight
            .iter()
            .map(|f| f.completes_at)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Walks the issue window once; returns whether anything issued.
    fn issue(&mut self, cycle: u64) -> bool {
        let window = ISSUE_WINDOW.min(self.queue.len());
        self.blocked.fill(false);
        self.blocked_registers.clear();
        let mut issued = 0u32;
        for idx in 0..window {
            let candidate = self.queue[idx];
            let targets = candidate.targets();
            if let Some(&LogicalQubitId(top)) = targets.iter().max() {
                if top >= self.busy.len() {
                    self.busy.resize(top + 1, false);
                    self.blocked.resize(top + 1, false);
                }
            }
            // In-order constraint: the candidate must commute with every
            // earlier candidate left queued, so it shares no qubit (those
            // are all `blocked`) and no register with them.
            let ready = targets
                .iter()
                .all(|t| !self.busy[t.0] && !self.blocked[t.0])
                && candidate
                    .register()
                    .is_none_or(|r| !self.blocked_registers.contains(&r));
            let latency = candidate.latency_cycles(self.code_distance) * self.latency_factor;
            let completes_at = cycle + latency.max(1);
            if ready && self.try_reserve_resources(&candidate, cycle, completes_at) {
                self.in_flight.push(InFlight {
                    instruction: candidate,
                    completes_at,
                });
                self.next_completion = self.next_completion.min(completes_at);
                for t in targets.iter() {
                    self.busy[t.0] = true;
                }
                issued |= 1 << idx;
            } else {
                for t in targets.iter() {
                    self.blocked[t.0] = true;
                }
                self.blocked_registers.extend(candidate.register());
            }
        }
        if issued == 0 {
            return false;
        }
        // Close the gaps left by the issued instructions, keeping order.
        let mut kept = 0;
        for idx in 0..window {
            if issued & (1 << idx) == 0 {
                self.queue.swap(kept, idx);
                kept += 1;
            }
        }
        self.queue.drain(kept..window);
        true
    }

    fn try_reserve_resources(&mut self, instruction: &Instruction, cycle: u64, until: u64) -> bool {
        match *instruction {
            Instruction::MeasZz { a, b, .. } => {
                let found = self.plane.route_into(a, b, cycle, &mut self.route);
                if found {
                    for &block in &self.route.path {
                        self.plane.reserve_index(block, cycle, until);
                    }
                }
                found
            }
            Instruction::OpExpand {
                target,
                keep_cycles,
            } => {
                let can = self.plane.can_expand(target, cycle);
                if can {
                    self.plane.expand(target, cycle, cycle + keep_cycles.max(1));
                }
                can
            }
            _ => true,
        }
    }
}

/// Configuration of the Fig. 10 throughput experiment.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputConfig {
    /// Blocks per side of the qubit plane (11 in the paper → 25 logical
    /// qubits).
    pub plane_size: usize,
    /// Default code distance `d`.
    pub code_distance: usize,
    /// Number of `meas_ZZ` instructions to execute.
    pub num_instructions: usize,
    /// Probability that an MBBE starts on a given block during `d` code
    /// cycles (`d · τ_cyc · f_ano`).
    pub mbbe_probability_per_block_per_d_cycles: f64,
    /// MBBE duration in units of `d` code cycles (100 or 1000 in Fig. 10).
    pub mbbe_duration_d_cycles: u64,
    /// The architecture variant being simulated.
    pub mode: ArchitectureMode,
    /// Safety cap on simulated cycles.
    pub max_cycles: u64,
}

impl ThroughputConfig {
    /// The paper's Fig. 10 setting for a given mode and MBBE frequency.
    pub fn fig10(mode: ArchitectureMode, mbbe_probability: f64, duration_d_cycles: u64) -> Self {
        Self {
            plane_size: 11,
            code_distance: 11,
            num_instructions: 10_000,
            mbbe_probability_per_block_per_d_cycles: mbbe_probability,
            mbbe_duration_d_cycles: duration_d_cycles,
            mode,
            max_cycles: 40_000_000,
        }
    }
}

/// Result of a throughput simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputReport {
    /// Instructions completed.
    pub completed: usize,
    /// Code cycles elapsed.
    pub cycles: u64,
    /// Average completed instructions per `d` code cycles — the y-axis of
    /// Fig. 10.
    pub instructions_per_d_cycles: f64,
}

/// The Fig. 10 experiment: schedule a stream of random two-qubit lattice
/// surgery measurements on a 25-logical-qubit plane while cosmic rays strike
/// blocks at random, and measure the achieved instruction throughput.
#[derive(Debug, Clone)]
pub struct ThroughputSimulator {
    config: ThroughputConfig,
}

impl ThroughputSimulator {
    /// Creates the simulator.
    pub fn new(config: ThroughputConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ThroughputConfig {
        &self.config
    }

    /// Runs the simulation with the given randomness source.
    pub fn run<R: Rng + ?Sized>(&self, rng: &mut R) -> ThroughputReport {
        let cfg = &self.config;
        let d = cfg.code_distance;
        let latency_factor = match cfg.mode {
            ArchitectureMode::Baseline => 2,
            _ => 1,
        };
        let plane = QubitPlane::checkerboard(cfg.plane_size, cfg.plane_size);
        let qubits = plane.logical_qubits();
        let mut scheduler = Scheduler::new(plane, d, latency_factor);
        scheduler.queue.reserve(cfg.num_instructions);

        for i in 0..cfg.num_instructions {
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

        let per_cycle_probability = cfg.mbbe_probability_per_block_per_d_cycles / d as f64;
        let duration = cfg.mbbe_duration_d_cycles * d as u64;
        let apply_mbbes = cfg.mode == ArchitectureMode::Q3de;

        while !scheduler.is_idle() && scheduler.cycle() < cfg.max_cycles {
            let cycle = scheduler.cycle();
            if apply_mbbes && per_cycle_probability > 0.0 {
                let rows = scheduler.plane().rows();
                let cols = scheduler.plane().cols();
                for row in 0..rows {
                    for col in 0..cols {
                        if rng.gen::<f64>() < per_cycle_probability {
                            let block = BlockCoord::new(row, col);
                            match scheduler.plane().state(block) {
                                BlockState::Logical(id) => {
                                    scheduler.enqueue(Instruction::OpExpand {
                                        target: id,
                                        keep_cycles: duration,
                                    });
                                }
                                _ => scheduler
                                    .plane_mut()
                                    .mark_anomalous(block, cycle + duration),
                            }
                        }
                    }
                }
            }
            scheduler.step();
        }

        let cycles = scheduler.cycle().max(1);
        let completed = scheduler.completed();
        ThroughputReport {
            completed,
            cycles,
            instructions_per_d_cycles: completed as f64 * d as f64 / cycles as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn meas(a: usize, b: usize, r: usize) -> Instruction {
        Instruction::MeasZz {
            a: LogicalQubitId(a),
            b: LogicalQubitId(b),
            register: RegisterId(r),
        }
    }

    #[test]
    fn independent_instructions_run_in_parallel() {
        let plane = QubitPlane::checkerboard(7, 7); // 9 logical qubits
        let mut s = Scheduler::new(plane, 5, 1);
        s.enqueue(meas(0, 1, 0));
        s.enqueue(meas(2, 3, 1));
        s.step();
        assert_eq!(s.executing(), 2, "disjoint meas_ZZ issue in the same cycle");
        for _ in 0..10 {
            s.step();
        }
        assert_eq!(s.completed(), 2);
        assert!(s.is_idle());
    }

    #[test]
    fn conflicting_instructions_serialise() {
        let plane = QubitPlane::checkerboard(5, 5);
        let mut s = Scheduler::new(plane, 5, 1);
        s.enqueue(meas(0, 1, 0));
        s.enqueue(meas(1, 2, 1)); // shares qubit 1
        s.step();
        assert_eq!(s.executing(), 1);
        // first completes after 5 cycles, then the second issues
        for _ in 0..20 {
            s.step();
        }
        assert_eq!(s.completed(), 2);
    }

    #[test]
    fn doubled_latency_factor_halves_throughput() {
        let run = |factor: u64| {
            let plane = QubitPlane::checkerboard(5, 5);
            let mut s = Scheduler::new(plane, 4, factor);
            for i in 0..8 {
                s.enqueue(meas(i % 4, (i + 1) % 4, i));
            }
            let mut cycles = 0u64;
            while !s.is_idle() && cycles < 10_000 {
                s.step();
                cycles += 1;
            }
            cycles
        };
        let single = run(1);
        let double = run(2);
        assert!(
            double > single,
            "doubled latency ({double}) must be slower than ({single})"
        );
        assert!((double as f64 / single as f64) > 1.5);
    }

    #[test]
    fn throughput_simulation_modes_are_ordered() {
        // With frequent MBBEs of long duration, MBBE-free ≥ Q3DE; and Q3DE at
        // realistic (rare) MBBE rates beats the always-doubled baseline.
        let shots = |mode, prob| {
            let config = ThroughputConfig {
                plane_size: 7,
                code_distance: 5,
                num_instructions: 80,
                mbbe_probability_per_block_per_d_cycles: prob,
                mbbe_duration_d_cycles: 100,
                mode,
                max_cycles: 50_000,
            };
            ThroughputSimulator::new(config)
                .run(&mut rng(9))
                .instructions_per_d_cycles
        };
        let free = shots(ArchitectureMode::MbbeFree, 0.0);
        let q3de_rare = shots(ArchitectureMode::Q3de, 1e-5);
        let baseline = shots(ArchitectureMode::Baseline, 1e-5);
        assert!(free > 0.0);
        assert!(
            q3de_rare <= free * 1.05,
            "Q3DE ({q3de_rare}) cannot beat the MBBE-free bound ({free})"
        );
        assert!(
            q3de_rare > baseline,
            "at rare MBBE rates Q3DE ({q3de_rare}) must beat the doubled-distance baseline ({baseline})"
        );
    }

    #[test]
    fn frequent_mbbes_degrade_q3de_throughput() {
        // Averaged over several seeds: a single short run is too noisy to
        // order the two regimes reliably.
        let run = |prob, seed| {
            let config = ThroughputConfig {
                plane_size: 7,
                code_distance: 5,
                num_instructions: 50,
                mbbe_probability_per_block_per_d_cycles: prob,
                mbbe_duration_d_cycles: 100,
                mode: ArchitectureMode::Q3de,
                max_cycles: 60_000,
            };
            ThroughputSimulator::new(config).run(&mut rng(seed))
        };
        let seeds = [11u64, 12, 13, 14, 15, 16, 17, 18];
        let mean = |prob| {
            seeds
                .iter()
                .map(|&s| run(prob, s).instructions_per_d_cycles)
                .sum::<f64>()
                / seeds.len() as f64
        };
        let rare = mean(1e-6);
        let frequent = mean(2e-2);
        assert!(
            frequent <= rare,
            "frequent strikes ({frequent}) should not beat rare strikes ({rare})"
        );
        assert_eq!(run(1e-6, 11).completed, 50);
    }

    #[test]
    fn fig10_config_matches_paper_parameters() {
        let cfg = ThroughputConfig::fig10(ArchitectureMode::Q3de, 1e-5, 1000);
        assert_eq!(cfg.plane_size, 11);
        assert_eq!(cfg.num_instructions, 10_000);
        assert_eq!(cfg.mbbe_duration_d_cycles, 1000);
        assert_eq!(cfg.mode, ArchitectureMode::Q3de);
    }
}
