//! # loopspec-isa — the SLA instruction set architecture
//!
//! SLA (*Simple Loop Architecture*) is a small, regular RISC instruction set
//! that plays the role the DEC Alpha ISA plays in Tubella & González,
//! ["Control Speculation in Multithreaded Processors through Dynamic Loop
//! Detection" (HPCA 1998)]: it is the machine language in which the workload
//! programs are expressed and whose *committed control-transfer instructions*
//! drive the dynamic loop detector.
//!
//! The dynamic loop-detection mechanism of the paper observes only
//!
//! * the address (`pc`) of each committed instruction,
//! * whether it is a conditional branch / jump / call / return,
//! * whether a conditional branch was taken, and its target address,
//! * (for data-speculation statistics) the registers and memory locations
//!   read and written,
//!
//! so any RISC-like ISA generates the same event language. SLA keeps exactly
//! the features the experiments need: 32 integer registers (with `r0`
//! hardwired to zero), 32 floating-point registers, word-addressed data
//! memory, compare-and-branch conditional branches, direct and indirect
//! jumps, and explicit call/return instructions with a link register.
//!
//! ## Quick example
//!
//! ```
//! use loopspec_isa::{Instruction, AluOp, Cond, Reg, Addr, ControlKind};
//!
//! let add = Instruction::AluImm { op: AluOp::Add, rd: Reg::R1, ra: Reg::R1, imm: 1 };
//! assert_eq!(add.control_kind(), ControlKind::None);
//!
//! let loop_branch = Instruction::Branch {
//!     cond: Cond::LtS, ra: Reg::R1, rb: Reg::R2, target: Addr::new(4),
//! };
//! assert!(matches!(loop_branch.control_kind(), ControlKind::CondBranch { .. }));
//!
//! // Instructions round-trip through the 64-bit machine encoding.
//! let word = add.encode();
//! assert_eq!(Instruction::decode(word).unwrap(), add);
//! ```
//!
//! The crate is deliberately free of simulator state: execution semantics
//! live in [`loopspec-cpu`], program construction in [`loopspec-asm`].
//!
//! [`loopspec-cpu`]: ../loopspec_cpu/index.html
//! [`loopspec-asm`]: ../loopspec_asm/index.html

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod addr;
mod decoded;
mod encode;
mod instr;
pub mod kernel;
mod op;
mod reg;
pub mod snap;

pub use addr::Addr;
pub use decoded::{DecodedImage, FlatCode, FlatOp};
pub use encode::{DecodeError, LOAD_IMM_MAX, LOAD_IMM_MIN};
pub use instr::{ControlKind, Instruction, RegUse};
pub use op::{AluOp, Cond, FAluOp, FUnOp};
pub use reg::{FReg, Reg};
