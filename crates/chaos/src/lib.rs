//! Deterministic VOPR-style fault-injection campaigns with schedule
//! shrinking.
//!
//! Komodo's core claim is that the monitor's guarantees survive an
//! actively malicious OS — yet cooperative test schedules barely touch
//! the monitor's error and edge paths, which is precisely where a
//! security monitor's attack surface lives. This crate turns the
//! workspace's NI and refinement oracles into a standing adversarial
//! campaign:
//!
//! - [`schedule`]: a seeded [`schedule::CaseSpec`] — a backbone of
//!   enclave bursts plus a fault schedule (mid-burst IRQs/FIQs at cycle
//!   deadlines, aggressive preemption, garbage SMCs, adversarial page
//!   churn, destroy-under-load, register/memory perturbation at
//!   world-switch boundaries), all derived from one integer via
//!   [`komodo_spec::seed`].
//! - [`driver`]: runs each case **twice** on one platform — identical
//!   except for the victim enclave's secret — and compares everything
//!   the OS can observe (the NI oracle), then abstracts the final state
//!   to the spec `PageDb` and checks its invariants (the refinement
//!   oracle). Cases alternate between the two execution tiers
//!   (baseline interpreter, compiled traces) so both run under fire.
//! - [`shrink`]: on failure, a delta-debugging (`ddmin`) pass reduces
//!   the schedule to a minimal failing sub-schedule, and the final
//!   report carries side-by-side flight-recorder tails
//!   (`komodo-trace`/`komodo-ni`).
//! - [`campaign`]: fans thousands of cases across `komodo-fleet` shards
//!   with bit-for-bit reproducible verdicts — the same master seed
//!   yields the same verdict digest at any shard count and under either
//!   recycling policy.
//!
//! The monitor carries deliberately plantable bugs
//! ([`komodo_monitor::PlantedBugs`]) so the oracles themselves are
//! tested: a campaign against a buggy monitor must fail, and the
//! shrinker must reduce the failure to its one- or two-fault trigger.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod driver;
pub mod schedule;
pub mod shrink;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport};
pub use driver::{run_case, run_case_spec, CaseReport, ChaosConfig, Verdict};
pub use schedule::{CaseSpec, Fault, Target, Tier};
pub use shrink::{shrink_case, ShrinkResult};
