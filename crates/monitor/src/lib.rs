//! The concrete Komodo monitor (paper §4, §7).
//!
//! This crate implements the Komodo reference monitor against the
//! `komodo-armv7` machine model. It is the executable counterpart of the
//! paper's verified assembly: privileged code that runs at exception
//! boundaries, maintains the PageDB in simulated secure memory, and
//! enters/exits enclaves through the architectural `MOVS PC, LR` path.
//!
//! Faithfulness notes:
//!
//! - **In-memory representation.** Page tables are stored in *hardware
//!   format* in the page-table pages themselves — the L2 page-table page
//!   holds the four ARM coarse tables the MMU actually walks during enclave
//!   execution, exactly as in the prototype. Thread context, address-space
//!   state and the running measurement hash live in their pool pages;
//!   per-page type/owner metadata lives in the monitor's data region (the
//!   `g_pagedb` global of the prototype).
//! - **Refinement.** [`abs::abstract_pagedb`] lifts the concrete memory
//!   back to the specification's [`komodo_spec::PageDb`]; the workspace's
//!   differential tests check that every call commutes with the
//!   specification — the executable stand-in for the paper's proof.
//! - **Cycle model.** Monitor work charges cycles through the machine's
//!   counters plus the calibrated constants in [`costs`], reproducing the
//!   cost structure behind the paper's Table 3 (register save/restore, TLB
//!   flush, page zeroing + hashing dominate).
//! - **State machine.** The SMC/SVC/IRQ/FIQ/abort/undefined handlers form
//!   the Figure 3 state machine: all enclave execution is nested inside the
//!   top-level SMC handler, and user-mode entry happens at exactly one
//!   point (the `enter` loop), mirroring the single `MOVS PC, LR` site of
//!   the prototype (§7.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abs;
pub mod boot;
pub mod costs;
pub mod layout;
pub mod monitor;
mod page_memo;
pub mod pgdb;

pub use boot::{boot, reboot};
pub use layout::MonitorLayout;
pub use monitor::{Monitor, PlantedBugs, SmcResult};
