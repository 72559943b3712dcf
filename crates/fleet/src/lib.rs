//! Sharded platform fleet: one scheduler for every multi-machine
//! workload in the workspace.
//!
//! The Komodo argument for scale-out is that platforms are independent
//! by construction — the monitor's guarantees hold per machine, so
//! throughput scales by *replication*, not by sharing. This crate is
//! the executable form of that argument: a fleet of worker shards, each
//! owning one simulated [`Platform`](komodo::Platform) (lazily booted,
//! recycled between jobs via the verified-bit-for-bit fast re-boot),
//! pulling jobs from a FIFO queue and folding per-shard counters into
//! one [`FleetMetrics`](komodo_trace::FleetMetrics).
//!
//! Three layers ride on it:
//!
//! - the NI/refinement suites' episode runner ([`run_indexed`]),
//! - the service node (`komodo-service`) and the chaos campaigns
//!   (`komodo-chaos`),
//! - ad-hoc callers that want typed results from parallel platform
//!   jobs ([`run`] + [`Fleet::submit`] + [`JobHandle::join`]).
//!
//! Determinism contract (tested): job results depend only on the job's
//! index and derived seed, never on shard count or placement — a
//! 1-shard fleet and an 8-shard fleet produce bit-for-bit identical
//! per-job results and identical summed metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod indexed;
mod panic_msg;
mod sched;

pub use indexed::run_indexed;
pub use panic_msg::panic_message;
pub use sched::{
    run, Class, Fleet, FleetConfig, FleetRun, JobHandle, JobPanic, JobResult, Recycle, ShardCtx,
    ShardStats, SubmitError, ABANDONED,
};
