//! The succinct FTQC instruction set of Table II.

use std::fmt;
use std::ops::Deref;

/// Identifier of a logical qubit slot on the qubit plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LogicalQubitId(pub usize);

/// Identifier of a classical register entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegisterId(pub usize);

/// The succinct FTQC instruction set of Table II, extended with the
/// Q3DE-specific `op_expand`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instruction {
    /// Initialise a logical qubit in `|0⟩`.
    InitZero {
        /// Target logical qubit.
        target: LogicalQubitId,
    },
    /// Initialise a logical qubit in a noisy `|A⟩` magic state.
    InitA {
        /// Target logical qubit.
        target: LogicalQubitId,
    },
    /// Initialise a logical qubit in a noisy `|Y⟩` state.
    InitY {
        /// Target logical qubit.
        target: LogicalQubitId,
    },
    /// Logical Hadamard.
    OpH {
        /// Target logical qubit.
        target: LogicalQubitId,
    },
    /// Measure a logical qubit in the `Z` basis.
    MeasZ {
        /// Target logical qubit.
        target: LogicalQubitId,
        /// Register receiving the raw outcome.
        register: RegisterId,
    },
    /// Measure two logical qubits in the `ZZ` basis (lattice surgery).
    MeasZz {
        /// First logical qubit.
        a: LogicalQubitId,
        /// Second logical qubit.
        b: LogicalQubitId,
        /// Register receiving the raw outcome.
        register: RegisterId,
    },
    /// Send an error-corrected measurement value to the host CPU.
    Read {
        /// Register whose corrected value is requested.
        register: RegisterId,
    },
    /// Expand the code distance of a logical qubit to mitigate an MBBE.
    OpExpand {
        /// Target logical qubit.
        target: LogicalQubitId,
        /// Number of code cycles the expansion is kept.
        keep_cycles: u64,
    },
}

/// The logical qubits one instruction acts on: at most two, stored inline.
/// Derefs to `&[LogicalQubitId]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Targets {
    qubits: [LogicalQubitId; 2],
    len: u8,
}

impl Targets {
    const NONE: Self = Self {
        qubits: [LogicalQubitId(0); 2],
        len: 0,
    };

    fn one(qubit: LogicalQubitId) -> Self {
        Self {
            qubits: [qubit; 2],
            len: 1,
        }
    }

    fn two(a: LogicalQubitId, b: LogicalQubitId) -> Self {
        Self {
            qubits: [a, b],
            len: 2,
        }
    }
}

impl Deref for Targets {
    type Target = [LogicalQubitId];

    fn deref(&self) -> &[LogicalQubitId] {
        &self.qubits[..usize::from(self.len)]
    }
}

impl Instruction {
    /// The logical qubits the instruction acts on (empty for `read`).
    pub fn targets(&self) -> Targets {
        match *self {
            Instruction::InitZero { target }
            | Instruction::InitA { target }
            | Instruction::InitY { target }
            | Instruction::OpH { target }
            | Instruction::MeasZ { target, .. }
            | Instruction::OpExpand { target, .. } => Targets::one(target),
            Instruction::MeasZz { a, b, .. } => Targets::two(a, b),
            Instruction::Read { .. } => Targets::NONE,
        }
    }

    /// The register the instruction writes or reads, if any.
    pub fn register(&self) -> Option<RegisterId> {
        match *self {
            Instruction::MeasZ { register, .. }
            | Instruction::MeasZz { register, .. }
            | Instruction::Read { register } => Some(register),
            _ => None,
        }
    }

    /// Whether the instruction produces a measurement outcome.
    pub fn is_measurement(&self) -> bool {
        matches!(self, Instruction::MeasZ { .. } | Instruction::MeasZz { .. })
    }

    /// Whether the instruction requires vacant routing/expansion space on the
    /// qubit plane in addition to its target blocks.
    pub fn needs_ancilla_space(&self) -> bool {
        matches!(
            self,
            Instruction::MeasZz { .. } | Instruction::OpExpand { .. }
        )
    }

    /// Latency of the instruction in code cycles when executed on logical
    /// qubits of distance `d` (most fault-tolerant operations take of order
    /// `d` rounds; `read` is a classical operation).
    pub fn latency_cycles(&self, code_distance: usize) -> u64 {
        match self {
            Instruction::Read { .. } => 0,
            Instruction::InitZero { .. }
            | Instruction::InitA { .. }
            | Instruction::InitY { .. } => 1,
            Instruction::OpH { .. } => code_distance as u64,
            Instruction::MeasZ { .. } => 1,
            Instruction::MeasZz { .. } => code_distance as u64,
            Instruction::OpExpand { .. } => code_distance as u64,
        }
    }

    /// Whether two instructions commute for scheduling purposes: they act on
    /// disjoint logical qubits and do not touch the same register.
    pub fn commutes_with(&self, other: &Instruction) -> bool {
        let other_targets = other.targets();
        let qubits_disjoint = self.targets().iter().all(|t| !other_targets.contains(t));
        let registers_disjoint = match (self.register(), other.register()) {
            (Some(a), Some(b)) => a != b,
            _ => true,
        };
        qubits_disjoint && registers_disjoint
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::InitZero { target } => write!(f, "init_zero q{}", target.0),
            Instruction::InitA { target } => write!(f, "init_A q{}", target.0),
            Instruction::InitY { target } => write!(f, "init_Y q{}", target.0),
            Instruction::OpH { target } => write!(f, "op_H q{}", target.0),
            Instruction::MeasZ { target, register } => {
                write!(f, "meas_Z q{} -> r{}", target.0, register.0)
            }
            Instruction::MeasZz { a, b, register } => {
                write!(f, "meas_ZZ q{} q{} -> r{}", a.0, b.0, register.0)
            }
            Instruction::Read { register } => write!(f, "read r{}", register.0),
            Instruction::OpExpand {
                target,
                keep_cycles,
            } => {
                write!(f, "op_expand q{} for {keep_cycles} cycles", target.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q0: LogicalQubitId = LogicalQubitId(0);
    const Q1: LogicalQubitId = LogicalQubitId(1);
    const Q2: LogicalQubitId = LogicalQubitId(2);
    const R0: RegisterId = RegisterId(0);
    const R1: RegisterId = RegisterId(1);

    #[test]
    fn targets_and_registers() {
        let m = Instruction::MeasZz {
            a: Q0,
            b: Q1,
            register: R0,
        };
        assert_eq!(*m.targets(), [Q0, Q1]);
        assert_eq!(*Instruction::OpH { target: Q2 }.targets(), [Q2]);
        assert_eq!(m.register(), Some(R0));
        assert!(m.is_measurement());
        assert!(m.needs_ancilla_space());
        let r = Instruction::Read { register: R0 };
        assert!(r.targets().is_empty());
        assert!(!r.is_measurement());
    }

    #[test]
    fn latencies_scale_with_distance() {
        let m = Instruction::MeasZz {
            a: Q0,
            b: Q1,
            register: R0,
        };
        assert_eq!(m.latency_cycles(11), 11);
        assert_eq!(m.latency_cycles(22), 22);
        assert_eq!(Instruction::Read { register: R0 }.latency_cycles(11), 0);
        assert_eq!(Instruction::InitZero { target: Q0 }.latency_cycles(11), 1);
        assert_eq!(Instruction::OpH { target: Q0 }.latency_cycles(7), 7);
        assert_eq!(
            Instruction::OpExpand {
                target: Q0,
                keep_cycles: 100
            }
            .latency_cycles(9),
            9
        );
    }

    #[test]
    fn commutation_is_based_on_disjoint_resources() {
        let a = Instruction::MeasZz {
            a: Q0,
            b: Q1,
            register: R0,
        };
        let b = Instruction::OpH { target: Q2 };
        let c = Instruction::OpH { target: Q1 };
        let d = Instruction::MeasZ {
            target: Q2,
            register: R0,
        };
        assert!(a.commutes_with(&b));
        assert!(!a.commutes_with(&c));
        assert!(!a.commutes_with(&d), "same register conflicts");
        assert!(
            !b.commutes_with(&d),
            "same target qubit conflicts even without a register"
        );
        assert!(
            d.commutes_with(&Instruction::OpH { target: Q1 }),
            "register vs no register is fine for disjoint qubits"
        );
        let read = Instruction::Read { register: R1 };
        assert!(a.commutes_with(&read));
    }

    #[test]
    fn display_is_assembly_like() {
        let m = Instruction::MeasZz {
            a: Q0,
            b: Q1,
            register: R0,
        };
        assert_eq!(format!("{m}"), "meas_ZZ q0 q1 -> r0");
        let e = Instruction::OpExpand {
            target: Q2,
            keep_cycles: 50,
        };
        assert_eq!(format!("{e}"), "op_expand q2 for 50 cycles");
    }
}
