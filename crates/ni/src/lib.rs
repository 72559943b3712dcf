//! Noninterference testing framework (paper §6).
//!
//! The paper proves confidentiality and integrity as noninterference: two
//! executions from observationally equivalent states, driven by the same
//! adversary inputs, end in observationally equivalent states (Theorem
//! 6.1), modulo four declassification axioms. Proof tooling is out of
//! scope for this reproduction; instead this crate makes the theorem
//! *testable*:
//!
//! - [`equiv`]: the paper's Definition 1 (`=enc`, weak page equivalence)
//!   and Definition 2 (`≈enc`, observational equivalence), plus the
//!   stronger `≈adv` for an OS colluding with an enclave.
//! - [`seeded`]: enclave execution as a deterministic *uninterpreted
//!   function* of the user-visible state and an integer seed (§6.3), with
//!   the crucial structure the proofs rely on: insecure-memory updates and
//!   declassified outputs depend only on public inputs.
//! - [`gen`]: randomized construction of valid PageDB states and
//!   ≈-related twins (same public state, different enclave secrets).
//! - [`bisim`]: drivers that run paired executions through the
//!   specification's `smchandler` and compare final states under the
//!   relations.
//! - [`concrete`]: the same game at the machine level — two booted
//!   platforms differing only in enclave secrets, compared on everything
//!   the OS can observe (registers, insecure RAM, results).
//! - [`report`]: divergence reports — when a paired comparison fails,
//!   the flight-recorder tails of both machines are printed side by
//!   side, pinpointing the first boundary event where the runs split.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bisim;
pub mod concrete;
pub mod equiv;
pub mod gen;
pub mod report;
pub mod seeded;

pub use equiv::{obs_equiv_adv, obs_equiv_enc, weak_eq_page, AdvState};
pub use seeded::SeededExec;
