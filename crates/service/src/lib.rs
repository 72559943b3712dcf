//! Long-lived enclave-service node over the Komodo fleet.
//!
//! The ROADMAP's frontend item, executable: the paper's monitor scales
//! by replication (platforms are independent by construction), and this
//! crate puts a *service* in front of that replicated fleet — the
//! traffic shape WaTZ measures (attestation quotes, enclave
//! invocations) and Sanctorum frames (the monitor as a small
//! request-serving substrate). A node is a scoped run: spawn it, submit
//! typed [`Request`]s through the [`ServiceHandle`], get typed
//! [`Response`]s (or typed errors — requests never hang) through
//! [`Ticket`]s.
//!
//! The pieces:
//!
//! - [`request`]: the request/response vocabulary and its mapping onto
//!   fleet priority classes (teardown = control, attestation/session =
//!   interactive, bulk = batch).
//! - [`protocol`]: the typed multi-step protocol layer — session state
//!   machines ([`protocol::Protocol`]) over dedicated enclave
//!   platforms, including the remote-attestation handshake
//!   ([`protocol::Attested`]) and the original key-value sessions
//!   ([`protocol::SecretKeeper`]), with typed
//!   [`ProtocolError`]s for misuse.
//! - [`node`]: the node itself — admission (backpressure via the
//!   fleet's bounded queue, typed [`Reject`]s at the door), shutdown
//!   semantics (queued work resolves typed, never hangs), session
//!   table carrying each session's protocol state, per-request
//!   handlers.
//! - [`latency`]: per-request records (queue wait, service time,
//!   simulated counters) and exact percentiles; the records sum to the
//!   fleet's folded metrics (the conservation law).
//! - [`loadgen`]: seeded open-loop arrival schedules over a weighted
//!   request mix, for replayable load and backpressure experiments.
//! - [`report`]: the aggregate JSON surface (`requests`, outcome split,
//!   p50/p99, log2 latency histogram, folded [`MetricsSnapshot`]).
//!
//! [`MetricsSnapshot`]: komodo_trace::MetricsSnapshot

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod latency;
pub mod loadgen;
pub mod node;
pub mod protocol;
pub mod report;
pub mod request;

pub use latency::{percentile_ns, Histogram, RequestRecord};
pub use loadgen::{
    attested_mix, drive, drive_attested, drive_indexed, schedule, schedule_indexed, Arrival,
    ArrivalIdx, AttestedClient, AttestedOutcome, AttestedReport, DriveOutcome, DriveReport, Mix,
    MixError,
};
pub use node::{Service, ServiceConfig, ServiceHandle, ServiceRun, Ticket};
pub use protocol::{Protocol, ProtocolError, QuoteWords};
pub use report::ServiceReport;
pub use request::{Reject, Request, Response, ServiceError};
