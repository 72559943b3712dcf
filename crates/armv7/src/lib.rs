//! Executable model of the ARMv7-A subset used by Komodo (paper §5.1).
//!
//! The Komodo paper's trusted computing base includes a Dafny model of "a
//! substantial subset of ARMv7, including user and privileged modes,
//! TrustZone, page tables, and exceptions". This crate is that model made
//! executable in Rust: a cycle-counting simulator precise enough to run
//! enclave guest code instruction-by-instruction and to expose exactly the
//! state the monitor specification constrains.
//!
//! Scope, mirroring the paper's *idiomatic specification* approach — only
//! what a Komodo implementation needs is modelled:
//!
//! - Core registers `R0`–`R12`, `SP`, `LR`, with per-mode banking of `SP`,
//!   `LR` and `SPSR` (FIQ's extra banked `R8`–`R12` are not modelled, as in
//!   the paper).
//! - `CPSR`/`SPSR` condition flags, interrupt masks and mode field.
//! - TrustZone: secure and non-secure worlds, monitor mode, the `SCR.NS`
//!   bit, per-world banking of the MMU control registers, and a
//!   TrustZone-aware memory controller that blocks normal-world access to
//!   secure memory.
//! - A user-mode instruction set (data-processing, multiply, loads/stores,
//!   load/store-multiple, branches, `MOVW`/`MOVT`, `SVC`) with real A32
//!   binary encodings, so that enclave code lives in simulated memory pages
//!   and is measured by hashing those pages.
//! - Virtual memory: short-descriptor page tables with 4 kB small pages,
//!   walked from `TTBR0` (enclave address spaces, low 1 GB via `TTBCR.N=2`),
//!   and the paper's TLB-consistency discipline.
//! - Exceptions: SVC, SMC, IRQ, FIQ, data/prefetch aborts and undefined
//!   instructions, with banked-register side effects and the
//!   `MOVS PC, LR` exception return.
//! - Deterministic interrupt injection for testing interrupt paths.
//!
//! Privileged monitor code is *not* executed instruction-by-instruction;
//! like the paper's functional specification, the monitor (the
//! `komodo-monitor` crate) runs at exception boundaries as native code that
//! mutates this machine state, charging cycles through an explicit cost
//! model. User-mode (enclave and normal-world process) code *is* executed
//! instruction-by-instruction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alu;
pub mod asm;
pub mod cp15;
pub mod dcache;
pub mod decode;
pub mod dtlb;
pub mod encode;
pub mod error;
pub mod exec;
pub mod exn;
pub mod fxhash;
pub mod insn;
pub mod machine;
pub mod mem;
#[cfg(test)]
mod mem_props;
pub mod mode;
pub mod psr;
pub mod ptw;
pub mod regs;
pub mod tlb;
pub mod uop;
pub mod word;

pub use asm::Assembler;
pub use dcache::{FetchAccel, SbStats};
pub use dtlb::{DTlbStats, DataTlb};
pub use error::{MemFault, MemFaultKind};
pub use exec::ExitReason;
pub use exn::ExceptionKind;
pub use insn::{Cond, Insn, Op2};
pub use machine::Machine;
pub use mem::{AccessAttrs, PhysMem};
pub use mode::{Mode, World};
pub use psr::Psr;
pub use regs::Reg;
pub use word::{Addr, Word, PAGE_SIZE, WORDS_PER_PAGE};
