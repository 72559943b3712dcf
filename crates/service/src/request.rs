//! The request/response vocabulary of the service node.
//!
//! Requests are the WaTZ-shaped traffic the ROADMAP's frontend item
//! calls for: remote-attestation quotes, one-shot notary/enclave jobs,
//! and stateful enclave sessions. Each request kind carries a fixed
//! [`Class`] — the priority lane it dispatches in — and a stable
//! `kind_code` used by the trace events and the latency histograms.

use komodo_armv7::Word;
use komodo_fleet::Class;
use std::sync::Arc;

use crate::protocol::{ProtocolError, QuoteWords};

/// One client request to the service node.
#[derive(Clone, Debug)]
pub enum Request {
    /// Produce a local-attestation quote over an 8-word report: the
    /// notary enclave hashes the (zero-padded) report and returns the
    /// monitor-keyed `Attest` MAC binding it to the enclave measurement.
    Attest {
        /// The client's report payload.
        report: [u32; 8],
    },
    /// Run the notary enclave over a `doc_kb`-kilobyte document (filled
    /// deterministically from the job seed) and return counter + MAC.
    Notarize {
        /// Document size in kilobytes (clamped to at least 1).
        doc_kb: usize,
    },
    /// Run a raw code image for a fixed instruction budget on a bare
    /// user-mode sandbox machine — the bulk-throughput carrier, the same
    /// shape as the fleet bench's jobs.
    Invoke {
        /// The code image (shared so a load generator can clone the
        /// request without copying the program).
        code: Arc<Vec<Word>>,
        /// Instruction budget.
        steps: u64,
    },
    /// Open a stateful enclave session (a dedicated platform running
    /// the secret-keeper enclave) and return its id.
    SessionOpen,
    /// Store `value` in an open session's enclave-private state.
    SessionPut {
        /// Session id from [`Response::SessionOpened`].
        session: u64,
        /// Value to store.
        value: u32,
    },
    /// Read back an open session's stored value.
    SessionGet {
        /// Session id.
        session: u64,
    },
    /// Tear a session down, destroying its enclave and platform. Works
    /// on any session protocol.
    SessionClose {
        /// Session id.
        session: u64,
    },
    /// Open an attested session: boot a dedicated platform, load the
    /// remote-attestation enclave, and run the in-enclave handshake
    /// against the verifier's challenge — keypair generation, DH, key
    /// derivation, quote. The reply carries the full quote; the session
    /// then waits for the verifier's confirmation tag.
    HandshakeBegin {
        /// The verifier's fresh challenge nonce.
        nonce: [u32; 4],
        /// The verifier's DH share `V = g^a`.
        verifier_share: u64,
    },
    /// Deliver the verifier's key-confirmation tag to an attested
    /// session awaiting it. An enclave-accepted tag establishes the
    /// session; a rejected or expired one tears it down (fail closed).
    HandshakeConfirm {
        /// Session id from [`Response::HandshakeQuote`].
        session: u64,
        /// The verifier-direction confirmation tag `C_v`.
        tag: [u32; 8],
    },
    /// MAC one application message under an established attested
    /// session's key; the enclave assigns the sequence number and
    /// returns the traffic tag.
    AttestedSend {
        /// Session id.
        session: u64,
        /// Eight-word message payload.
        payload: [u32; 8],
    },
}

impl Request {
    /// The priority class this request dispatches in. Teardown is
    /// control plane (rejecting it would leak the resources it frees);
    /// attestation and session operations are interactive; bulk work is
    /// batch.
    pub fn class(&self) -> Class {
        match self {
            Request::SessionClose { .. } => Class::Control,
            Request::Attest { .. }
            | Request::SessionOpen
            | Request::SessionPut { .. }
            | Request::SessionGet { .. }
            | Request::HandshakeBegin { .. }
            | Request::HandshakeConfirm { .. }
            | Request::AttestedSend { .. } => Class::Interactive,
            Request::Notarize { .. } | Request::Invoke { .. } => Class::Batch,
        }
    }

    /// Stable small-integer kind code (trace events, histograms).
    pub fn kind_code(&self) -> u8 {
        match self {
            Request::Attest { .. } => 0,
            Request::Notarize { .. } => 1,
            Request::Invoke { .. } => 2,
            Request::SessionOpen => 3,
            Request::SessionPut { .. } => 4,
            Request::SessionGet { .. } => 5,
            Request::SessionClose { .. } => 6,
            Request::HandshakeBegin { .. } => 7,
            Request::HandshakeConfirm { .. } => 8,
            Request::AttestedSend { .. } => 9,
        }
    }
}

/// A successful request's result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Attestation quote: notary counter + monitor-keyed MAC.
    Quote {
        /// Notary monotonic counter at signing time.
        counter: u32,
        /// `Attest` MAC over (measurement, notarised digest).
        mac: [u32; 8],
    },
    /// Notarisation result.
    Notarized {
        /// Notary monotonic counter at signing time.
        counter: u32,
        /// `Attest` MAC over (measurement, notarised digest).
        mac: [u32; 8],
    },
    /// Bulk invoke ran to its budget.
    Invoked {
        /// Instructions retired.
        steps: u64,
    },
    /// New session id.
    SessionOpened {
        /// The id to use in later session requests.
        session: u64,
    },
    /// Store acknowledged.
    SessionStored,
    /// Fetched session value.
    SessionValue {
        /// The stored value.
        value: u32,
    },
    /// Session torn down.
    SessionClosed,
    /// An attested session opened and quoted: everything the verifier
    /// needs to check the enclave and derive the session key.
    HandshakeQuote {
        /// The new session's id.
        session: u64,
        /// The enclave's quote words (public key, binding MAC, DH
        /// share, signature, confirmation tag).
        quote: QuoteWords,
    },
    /// The enclave accepted the verifier's confirmation tag; traffic
    /// keys are live in both directions.
    SessionEstablished,
    /// One application message MAC'd under the session key.
    AttestedTag {
        /// The sequence number the enclave bound into the tag.
        seq: u32,
        /// The traffic tag `HMAC(K, [APP_TAG, seq, payload])`.
        tag: [u32; 8],
    },
}

/// Why a request failed after being accepted into the queue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The node began shutting down before this request dispatched;
    /// nothing ran. The typed "never hang" answer in-flight requests
    /// get under shutdown.
    Shutdown,
    /// No open session with this id.
    NoSuchSession(u64),
    /// The enclave refused or faulted instead of exiting cleanly.
    Enclave(String),
    /// The request's job panicked (a monitor fault or handler bug);
    /// carries the rendered panic message.
    Panic(String),
    /// Protocol misuse on a stateful session: step out of order, wrong
    /// protocol, expired handshake, or a rejected confirmation tag.
    Protocol(ProtocolError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Shutdown => write!(f, "service shutting down"),
            ServiceError::NoSuchSession(id) => write!(f, "no such session: {id}"),
            ServiceError::Enclave(m) => write!(f, "enclave error: {m}"),
            ServiceError::Panic(m) => write!(f, "request panicked: {m}"),
            ServiceError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Why a request was refused at the door (never entered the queue).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reject {
    /// The bounded queue is at capacity — shed load or retry later.
    QueueFull {
        /// The configured bound that was hit.
        capacity: usize,
    },
    /// The node is shutting down and accepts no new data-plane work.
    ShuttingDown,
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reject::QueueFull { capacity } => {
                write!(f, "service queue full (capacity {capacity})")
            }
            Reject::ShuttingDown => write!(f, "service shutting down"),
        }
    }
}

impl std::error::Error for Reject {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_route_teardown_ahead_of_bulk() {
        assert_eq!(Request::SessionClose { session: 1 }.class(), Class::Control);
        assert_eq!(
            Request::Attest { report: [0; 8] }.class(),
            Class::Interactive
        );
        assert_eq!(Request::Notarize { doc_kb: 4 }.class(), Class::Batch);
        assert_eq!(
            Request::Invoke {
                code: Arc::new(vec![]),
                steps: 1
            }
            .class(),
            Class::Batch
        );
        // Handshake traffic is latency-sensitive: interactive lane.
        assert_eq!(
            Request::HandshakeBegin {
                nonce: [0; 4],
                verifier_share: 2
            }
            .class(),
            Class::Interactive
        );
        assert_eq!(
            Request::HandshakeConfirm {
                session: 1,
                tag: [0; 8]
            }
            .class(),
            Class::Interactive
        );
        assert_eq!(
            Request::AttestedSend {
                session: 1,
                payload: [0; 8]
            }
            .class(),
            Class::Interactive
        );
    }

    #[test]
    fn kind_codes_are_distinct() {
        let reqs = [
            Request::Attest { report: [0; 8] },
            Request::Notarize { doc_kb: 1 },
            Request::Invoke {
                code: Arc::new(vec![]),
                steps: 1,
            },
            Request::SessionOpen,
            Request::SessionPut {
                session: 0,
                value: 0,
            },
            Request::SessionGet { session: 0 },
            Request::SessionClose { session: 0 },
            Request::HandshakeBegin {
                nonce: [0; 4],
                verifier_share: 2,
            },
            Request::HandshakeConfirm {
                session: 0,
                tag: [0; 8],
            },
            Request::AttestedSend {
                session: 0,
                payload: [0; 8],
            },
        ];
        let mut codes: Vec<u8> = reqs.iter().map(Request::kind_code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), reqs.len());
    }

    #[test]
    fn protocol_errors_surface_through_service_errors() {
        let e = ServiceError::Protocol(ProtocolError::BadConfirm);
        assert!(e.to_string().contains("protocol error"));
        assert_ne!(e, ServiceError::Shutdown);
    }
}
