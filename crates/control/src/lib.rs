//! The FTQC control unit of the Q3DE architecture (Fig. 1 of the paper).
//!
//! The classical side of the architecture consists of
//!
//! * an instruction set and decoder/scheduler ([`isa`], [`scheduler`]),
//! * the qubit plane abstraction with block allocation, lattice-surgery
//!   routing, anomalous blocks and code expansion ([`plane`]),
//! * the Pauli frame and classical register file with rollback support
//!   ([`frame`], [`registers`]),
//! * the syndrome / matching / expansion queues whose sizing Table III
//!   accounts for, and the spare-budget expansion arbiter that grants
//!   `op_expand` requests against the chip's shared spare pool ([`queues`]),
//! * the instruction-throughput simulation behind Fig. 10
//!   ([`scheduler::ThroughputSimulator`]).
//!
//! The quantum-mechanical behaviour (noise, decoding, logical error rates)
//! lives in the `q3de-sim` crate; this crate models the control-plane
//! resources, timing and bookkeeping.

#![deny(missing_docs)]

pub mod frame;
pub mod isa;
pub mod plane;
pub mod queues;
pub mod registers;
pub mod scheduler;

pub use frame::{FrameUpdate, PauliFrame};
pub use isa::{Instruction, LogicalQubitId, RegisterId, Targets};
pub use plane::{BlockCoord, BlockState, QubitPlane};
pub use queues::{
    ExpansionArbiter, ExpansionBid, ExpansionDecision, ExpansionGrant, ExpansionQueue,
    MatchingQueue, SyndromeQueue,
};
pub use registers::{ClassicalRegisterFile, RegisterEntry};
pub use scheduler::{
    ArchitectureMode, Scheduler, ThroughputConfig, ThroughputReport, ThroughputSimulator,
};
