//! Fixed-seed pins of the Fig. 10 throughput simulator and event-boundary
//! tests of `Scheduler::step`.
//!
//! The pinned `(completed, cycles)` pairs were recorded with the scheduler
//! that re-ran the full issue scan on every cycle.  A scheduler that skips
//! cycles on which the scan cannot change anything must reproduce them
//! exactly, and the event-boundary tests check the cycles on which such a
//! scheduler must wake up.

use q3de_control::{
    ArchitectureMode, BlockCoord, BlockState, Instruction, LogicalQubitId, QubitPlane, RegisterId,
    Scheduler, ThroughputConfig, ThroughputSimulator,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const PIN_SEED: u64 = 2022;

/// `(mode, MBBE probability per block per d cycles, MBBE duration in d
/// cycles, completed, cycles)` on a 7×7 plane, d = 5, 200 `meas_ZZ`.
const PINS: [(ArchitectureMode, f64, u64, usize, u64); 18] = [
    (ArchitectureMode::MbbeFree, 0.0, 100, 200, 476),
    (ArchitectureMode::MbbeFree, 0.0, 1000, 200, 476),
    (ArchitectureMode::MbbeFree, 1e-4, 100, 200, 476),
    (ArchitectureMode::MbbeFree, 1e-4, 1000, 200, 476),
    (ArchitectureMode::MbbeFree, 1e-2, 100, 200, 476),
    (ArchitectureMode::MbbeFree, 1e-2, 1000, 200, 476),
    (ArchitectureMode::Baseline, 0.0, 100, 200, 951),
    (ArchitectureMode::Baseline, 0.0, 1000, 200, 951),
    (ArchitectureMode::Baseline, 1e-4, 100, 200, 951),
    (ArchitectureMode::Baseline, 1e-4, 1000, 200, 951),
    (ArchitectureMode::Baseline, 1e-2, 100, 200, 951),
    (ArchitectureMode::Baseline, 1e-2, 1000, 200, 951),
    (ArchitectureMode::Q3de, 0.0, 100, 200, 476),
    (ArchitectureMode::Q3de, 0.0, 1000, 200, 476),
    (ArchitectureMode::Q3de, 1e-4, 100, 200, 496),
    (ArchitectureMode::Q3de, 1e-4, 1000, 200, 496),
    (ArchitectureMode::Q3de, 1e-2, 100, 36, 20000),
    (ArchitectureMode::Q3de, 1e-2, 1000, 24, 20000),
];

#[test]
fn fixed_seed_throughput_reports_are_pinned() {
    let observed: Vec<_> = PINS
        .iter()
        .map(|&(mode, probability, duration, _, _)| {
            let config = ThroughputConfig {
                plane_size: 7,
                code_distance: 5,
                num_instructions: 200,
                mbbe_probability_per_block_per_d_cycles: probability,
                mbbe_duration_d_cycles: duration,
                mode,
                max_cycles: 20_000,
            };
            let report =
                ThroughputSimulator::new(config).run(&mut ChaCha8Rng::seed_from_u64(PIN_SEED));
            (mode, probability, duration, report.completed, report.cycles)
        })
        .collect();
    assert_eq!(observed, PINS.to_vec());
}

fn meas(a: usize, b: usize, register: usize) -> Instruction {
    Instruction::MeasZz {
        a: LogicalQubitId(a),
        b: LogicalQubitId(b),
        register: RegisterId(register),
    }
}

/// A d = 5 scheduler on a 5×5 plane: q0 at (1,1), q1 at (1,3), q2 at (3,1)
/// and q3 at (3,3).
fn scheduler() -> Scheduler {
    Scheduler::new(QubitPlane::checkerboard(5, 5), 5, 1)
}

/// Reserves column 2, which cuts q0 and q2 off from q1 and q3.
fn cut_column_two(s: &mut Scheduler, until_cycle: u64) {
    for row in 0..5 {
        s.plane_mut()
            .reserve(BlockCoord::new(row, 2), 0, until_cycle);
    }
}

#[test]
fn meas_zz_blocked_by_a_reservation_issues_on_its_expiry_cycle() {
    let mut s = scheduler();
    cut_column_two(&mut s, 50);
    // An unrelated reservation that expires earlier wakes the scheduler
    // without opening a route.
    s.plane_mut().reserve(BlockCoord::new(0, 0), 0, 30);
    s.enqueue(meas(0, 1, 0));
    while s.cycle() < 50 {
        s.step();
        assert_eq!(s.executing(), 0, "issued at cycle {}", s.cycle() - 1);
    }
    s.step();
    assert_eq!(s.executing(), 1, "the route frees on cycle 50");
    assert_eq!(s.pending(), 0);
}

#[test]
fn meas_zz_blocked_by_an_anomaly_issues_on_its_expiry_cycle() {
    let mut s = scheduler();
    for row in 0..5 {
        s.plane_mut()
            .mark_anomalous(BlockCoord::new(row, 2), 40 + row as u64);
    }
    s.enqueue(meas(0, 1, 0));
    while s.cycle() < 40 {
        s.step();
        assert_eq!(s.executing(), 0, "issued at cycle {}", s.cycle() - 1);
    }
    s.step();
    assert_eq!(s.executing(), 1, "(0,2) frees on cycle 40");
}

#[test]
fn an_instruction_entering_the_issue_window_issues_on_the_next_cycle() {
    // The window holds 32 instructions: a meas_ZZ that issues on cycle 0 and
    // 31 op_H on its busy qubit.  Its issue pulls a 33rd, independent
    // meas_ZZ into the window, which issues on cycle 1.
    let mut s = scheduler();
    s.enqueue(meas(0, 1, 0));
    for _ in 0..31 {
        s.enqueue(Instruction::OpH {
            target: LogicalQubitId(0),
        });
    }
    s.enqueue(meas(2, 3, 1));
    s.step();
    assert_eq!((s.executing(), s.pending()), (1, 32));
    s.step();
    assert_eq!((s.executing(), s.pending()), (2, 31));
}

#[test]
fn mark_anomalous_during_a_quiet_stretch_blocks_the_route_on_the_next_step() {
    let route = |strike: bool| {
        let mut s = scheduler();
        // q0 is busy until cycle 5, so the meas_ZZ waits through a quiet
        // stretch.
        s.enqueue(Instruction::OpH {
            target: LogicalQubitId(0),
        });
        s.enqueue(meas(0, 1, 0));
        while s.cycle() < 5 {
            s.step();
            assert_eq!((s.executing(), s.pending()), (1, 1));
        }
        if strike {
            s.plane_mut().mark_anomalous(BlockCoord::new(1, 2), 100);
        }
        s.step();
        assert_eq!((s.completed(), s.executing()), (1, 1));
        let plane = s.plane();
        (0..5)
            .flat_map(|row| (0..5).map(move |col| BlockCoord::new(row, col)))
            .filter(|&b| matches!(plane.state(b), BlockState::Reserved { .. }))
            .collect::<Vec<_>>()
    };
    assert_eq!(route(false), vec![BlockCoord::new(1, 2)]);
    assert_eq!(
        route(true),
        vec![
            BlockCoord::new(0, 1),
            BlockCoord::new(0, 2),
            BlockCoord::new(0, 3)
        ],
        "the detour avoids the struck block"
    );
}

#[test]
fn a_plane_change_that_frees_a_route_wakes_a_quiet_scheduler() {
    // Overwriting a reserved block with an anomaly that has already expired
    // frees it at once.
    let mut s = scheduler();
    cut_column_two(&mut s, 50);
    s.enqueue(meas(0, 1, 0));
    while s.cycle() < 10 {
        s.step();
    }
    assert_eq!(s.executing(), 0);
    s.plane_mut().mark_anomalous(BlockCoord::new(1, 2), 10);
    s.step();
    assert_eq!(
        s.executing(),
        1,
        "issued on the step after the plane change"
    );

    // Replacing the whole plane frees every route.
    let mut s = scheduler();
    cut_column_two(&mut s, 50);
    s.enqueue(meas(0, 1, 0));
    while s.cycle() < 10 {
        s.step();
    }
    *s.plane_mut() = QubitPlane::checkerboard(5, 5);
    s.step();
    assert_eq!(s.executing(), 1, "issued on the step after the replacement");
}

#[test]
fn an_enqueue_during_a_quiet_stretch_issues_on_the_next_step() {
    let mut s = scheduler();
    s.enqueue(meas(0, 1, 0));
    s.step();
    assert_eq!(s.executing(), 1);
    while s.cycle() < 3 {
        s.step();
    }
    s.enqueue(meas(2, 3, 1));
    s.step();
    assert_eq!((s.executing(), s.pending()), (2, 0));
    assert_eq!(s.cycle(), 4);
}

#[test]
fn a_retire_at_completes_at_frees_its_target_in_the_same_cycle() {
    let mut s = scheduler();
    s.enqueue(meas(0, 1, 0));
    s.enqueue(meas(0, 2, 1));
    // Issued on cycle 0 with latency d = 5, so it completes at cycle 5.
    while s.cycle() < 5 {
        s.step();
        assert_eq!((s.completed(), s.executing(), s.pending()), (0, 1, 1));
    }
    s.step();
    assert_eq!(
        (s.completed(), s.executing(), s.pending()),
        (1, 1, 0),
        "the second meas_ZZ takes q0 on the cycle the first retires"
    );
    while s.cycle() < 10 {
        s.step();
        assert_eq!(s.completed(), 1);
    }
    s.step();
    assert_eq!((s.completed(), s.executing()), (2, 0));
    assert!(s.is_idle());
}

#[test]
fn an_instruction_sharing_a_register_with_an_earlier_queued_one_waits() {
    let measure = |qubit, register| Instruction::MeasZ {
        target: LogicalQubitId(qubit),
        register: RegisterId(register),
    };
    let mut s = scheduler();
    s.enqueue(Instruction::OpH {
        target: LogicalQubitId(0),
    });
    s.enqueue(measure(0, 5)); // waits for q0
    s.enqueue(measure(1, 5)); // free qubit, but r5 is still owed to q0
    s.enqueue(measure(2, 6));
    s.step();
    assert_eq!((s.executing(), s.pending()), (2, 2));
    while s.cycle() < 5 {
        s.step();
    }
    // op_H retires on cycle 5 and the first meas_Z issues; once issued it no
    // longer holds r5 back, so the second issues on the same cycle.
    s.step();
    assert_eq!((s.completed(), s.executing(), s.pending()), (2, 2, 0));
}
