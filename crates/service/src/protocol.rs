//! The typed multi-step protocol layer: session state machines over
//! dedicated enclave platforms.
//!
//! A stateful service session is an instance of a [`Protocol`]: the
//! session table carries the protocol's per-session [`Protocol::State`],
//! each stateful request decodes to a typed [`Protocol::Step`], and the
//! state machine applies the step against the session's enclave —
//! returning the [`Response`] plus a [`Verdict`] that tells the node
//! whether the session survives the step. Protocol misuse (a step sent
//! to the wrong protocol, a step out of order, a confirmation that
//! arrives after the handshake TTL) is a typed [`ProtocolError`], never
//! a hang or a silent success.
//!
//! Two protocols exist:
//!
//! - [`SecretKeeper`]: the original key-value session (put/get on the
//!   secret-keeper enclave). Single-state; every step is legal.
//! - [`Attested`]: the remote-attestation handshake and the MAC'd
//!   application traffic behind it. `begin` (handled at session open)
//!   runs the in-enclave DH + key derivation + quote; the session then
//!   waits in [`AttestedState::AwaitConfirm`] until the verifier's
//!   confirmation tag arrives, and only an enclave-accepted tag moves it
//!   to [`AttestedState::Established`], where [`AttestedStep::Send`]
//!   produces per-message traffic tags under the in-enclave session
//!   key. A bad or expired confirmation is terminal: the session fails
//!   closed ([`Verdict::Close`]) without ever releasing traffic tags.
//!
//! Determinism: a session's platform boots from
//! [`session_seed`] — `derive_seed(open_request_id)` over the service's
//! base platform config, `komodo_spec::seed::derive_stream` underneath.
//! Batched submission gives contiguous, submission-ordered request ids,
//! so the session→seed mapping (and with it every in-enclave keypair,
//! DH secret and derived session key) is shard-count-invariant.

use std::sync::OnceLock;

use komodo::{Enclave, Platform, PlatformConfig};
use komodo_guest::ra::{ra_image, shared_layout as sl, unpack_u64};
use komodo_guest::{progs, Image};
use komodo_os::EnclaveRun;
use komodo_trace::Event;

use crate::request::{Response, ServiceError};

/// Typed protocol-misuse failures (the fail-closed answers of the
/// protocol layer). Carried by [`ServiceError::Protocol`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The step is not legal in the session's current state (e.g. a
    /// traffic send before the handshake confirmed, or a second
    /// confirmation after establishment).
    OutOfOrder {
        /// The session state the step arrived in.
        state: &'static str,
        /// The step that was attempted.
        step: &'static str,
    },
    /// The handshake confirmation arrived more than the configured TTL
    /// of request ids after the quote was issued; the session is torn
    /// down (a stale confirmation never establishes keys).
    Expired {
        /// Request-id distance between quote and confirmation.
        age: u64,
        /// The configured TTL it exceeded.
        ttl: u64,
    },
    /// The step belongs to a different protocol than the session runs
    /// (e.g. a key-value put sent to an attested session).
    WrongProtocol {
        /// The protocol the session runs.
        have: &'static str,
        /// The protocol the step belongs to.
        want: &'static str,
    },
    /// The enclave rejected the verifier's confirmation tag — the peer
    /// does not hold the session key. Terminal; the session is torn
    /// down.
    BadConfirm,
}

impl core::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProtocolError::OutOfOrder { state, step } => {
                write!(f, "step {step} out of order in state {state}")
            }
            ProtocolError::Expired { age, ttl } => {
                write!(f, "handshake expired (age {age} > ttl {ttl})")
            }
            ProtocolError::WrongProtocol { have, want } => {
                write!(f, "session runs protocol {have}, step belongs to {want}")
            }
            ProtocolError::BadConfirm => write!(f, "confirmation tag rejected by the enclave"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Whether the session survives a protocol step. Terminal outcomes
/// ([`Verdict::Close`]) make the node drop the session with the stripe
/// lock still held — the step's reply is the last thing the session
/// ever says.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The session stays open for further steps.
    Keep,
    /// The session is torn down after this step (fail-closed handshake
    /// outcomes).
    Close,
}

/// Per-step context the node passes into the state machine.
#[derive(Clone, Copy, Debug)]
pub struct StepCtx {
    /// The session id (trace events).
    pub session: u64,
    /// The stepping request's fleet-wide id (expiry clock).
    pub now_req: u64,
    /// Handshake TTL in request ids ([`crate::ServiceConfig`]).
    pub handshake_ttl: u64,
}

/// A typed multi-step session protocol: the state carried in the
/// session table, the steps clients may take, and the transition
/// function that runs a step against the session's enclave.
pub trait Protocol {
    /// Per-session state held between steps.
    type State: Send;
    /// Typed step input, decoded from a [`crate::Request`] by the node.
    type Step;

    /// Protocol name (errors, traces).
    fn name() -> &'static str;

    /// The enclave image a new session of this protocol loads,
    /// assembled once per process.
    fn image() -> &'static Image;

    /// Initial state for a session opened by request `open_req`.
    fn open(open_req: u64) -> Self::State;

    /// Applies one typed step, returning the reply and whether the
    /// session survives. On [`Verdict::Keep`] with an `Err`, the state
    /// is unchanged (the client may retry a legal step); on
    /// [`Verdict::Close`] the outcome is terminal.
    fn step(
        state: &mut Self::State,
        p: &mut Platform,
        e: &Enclave,
        step: Self::Step,
        ctx: &StepCtx,
    ) -> (Result<Response, ServiceError>, Verdict);
}

/// The per-session platform seed: `derive_seed(open_request_id)` over
/// the service's base platform config (splitmix64 over
/// golden-gamma-separated streams — `komodo_spec::seed::derive_stream`).
/// Request ids are contiguous in submission order, so a batched load's
/// session seeds — and everything the in-enclave RNG derives from them —
/// are shard-count-invariant.
pub fn session_seed(cfg: &PlatformConfig, open_req: u64) -> u64 {
    cfg.derive_seed(open_req)
}

/// The original key-value session protocol over the secret-keeper
/// enclave.
pub struct SecretKeeper;

/// A [`SecretKeeper`] step.
#[derive(Clone, Copy, Debug)]
pub enum KvStep {
    /// Store a value in enclave-private state.
    Put {
        /// The value to store.
        value: u32,
    },
    /// Read the stored value back.
    Get,
}

impl Protocol for SecretKeeper {
    type State = ();
    type Step = KvStep;

    fn name() -> &'static str {
        "secret-keeper"
    }

    fn image() -> &'static Image {
        static IMAGE: OnceLock<Image> = OnceLock::new();
        IMAGE.get_or_init(progs::secret_keeper)
    }

    fn open(_open_req: u64) -> Self::State {}

    fn step(
        _state: &mut Self::State,
        p: &mut Platform,
        e: &Enclave,
        step: Self::Step,
        _ctx: &StepCtx,
    ) -> (Result<Response, ServiceError>, Verdict) {
        let args = match step {
            KvStep::Put { value } => [0, value, 0],
            KvStep::Get => [1, 0, 0],
        };
        let res = match p.run(e, 0, args) {
            EnclaveRun::Exited(v) => match step {
                KvStep::Put { .. } => (v == 0)
                    .then_some(Response::SessionStored)
                    .ok_or_else(|| ServiceError::Enclave(format!("put exited {v}"))),
                KvStep::Get => Ok(Response::SessionValue { value: v }),
            },
            r => Err(ServiceError::Enclave(format!("session run: {r:?}"))),
        };
        (res, Verdict::Keep)
    }
}

/// The remote-attestation session protocol over the RA enclave.
pub struct Attested;

/// Where an attested session is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttestedState {
    /// Quote issued; waiting for the verifier's confirmation tag.
    AwaitConfirm {
        /// Id of the opening (handshake-begin) request — the expiry
        /// clock's epoch.
        begun_req: u64,
    },
    /// Handshake confirmed in both directions; traffic keys are live.
    Established {
        /// Sequence number the next [`AttestedStep::Send`] will tag.
        next_seq: u32,
    },
}

impl AttestedState {
    fn name(&self) -> &'static str {
        match self {
            AttestedState::AwaitConfirm { .. } => "await-confirm",
            AttestedState::Established { .. } => "established",
        }
    }
}

/// An [`Attested`] step.
#[derive(Clone, Copy, Debug)]
pub enum AttestedStep {
    /// Deliver the verifier's key-confirmation tag `C_v`.
    Confirm {
        /// The tag, checked by the enclave against its derived key.
        tag: [u32; 8],
    },
    /// MAC one application message under the established session key.
    Send {
        /// Eight-word message payload.
        payload: [u32; 8],
    },
}

impl AttestedStep {
    fn name(&self) -> &'static str {
        match self {
            AttestedStep::Confirm { .. } => "confirm",
            AttestedStep::Send { .. } => "send",
        }
    }
}

/// The handshake-quote words read back from the RA enclave's shared
/// page — the wire form of a [`komodo_crypto::Quote`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuoteWords {
    /// The enclave's long-term Schnorr public key.
    pub public: u64,
    /// Monitor MAC binding the public key to the enclave measurement.
    pub binding_mac: [u32; 8],
    /// The enclave's DH share `B = g^b`.
    pub enclave_share: u64,
    /// Schnorr signature over `[nonce, V, B]`: commitment `R`.
    pub sig_r: u64,
    /// Schnorr signature: response `s`.
    pub sig_s: u64,
    /// Enclave-direction key-confirmation tag `C_e`.
    pub confirm: [u32; 8],
}

fn record(p: &mut Platform, event: Event) {
    let c = p.cycles();
    p.machine.trace.record(c, event);
}

impl Attested {
    /// Runs the in-enclave half of the handshake on a freshly-loaded RA
    /// enclave: keypair generation (op 0), then nonce/share ingestion,
    /// DH, key derivation and quote (op 2). Called by the node at
    /// session open; the quote words travel back in the open reply.
    pub fn begin(
        p: &mut Platform,
        e: &Enclave,
        session: u64,
        nonce: &[u32; 4],
        verifier_share: u64,
    ) -> Result<QuoteWords, ServiceError> {
        record(
            p,
            Event::HsPhase {
                phase: 0,
                session: session as u32,
            },
        );
        p.write_shared(e, 3, sl::NONCE, nonce);
        p.write_shared(
            e,
            3,
            sl::VSHARE,
            &[verifier_share as u32, (verifier_share >> 32) as u32],
        );
        match p.run(e, 0, [0, 0, 0]) {
            EnclaveRun::Exited(0) => {}
            r => return Err(ServiceError::Enclave(format!("ra init: {r:?}"))),
        }
        match p.run(e, 0, [2, 0, 0]) {
            EnclaveRun::Exited(0) => {}
            r => return Err(ServiceError::Enclave(format!("ra handshake: {r:?}"))),
        }
        let pub_words = p.read_shared(e, 3, sl::PUB, 2);
        let mac = p.read_shared(e, 3, sl::MAC, 8);
        let rs = p.read_shared(e, 3, sl::R, 4);
        let eshare = p.read_shared(e, 3, sl::ESHARE, 2);
        let confirm = p.read_shared(e, 3, sl::CONFIRM, 8);
        record(
            p,
            Event::HsPhase {
                phase: 1,
                session: session as u32,
            },
        );
        Ok(QuoteWords {
            public: unpack_u64(pub_words[0], pub_words[1]),
            binding_mac: mac.try_into().expect("8 mac words"),
            enclave_share: unpack_u64(eshare[0], eshare[1]),
            sig_r: unpack_u64(rs[0], rs[1]),
            sig_s: unpack_u64(rs[2], rs[3]),
            confirm: confirm.try_into().expect("8 confirm words"),
        })
    }
}

impl Protocol for Attested {
    type State = AttestedState;
    type Step = AttestedStep;

    fn name() -> &'static str {
        "attested"
    }

    fn image() -> &'static Image {
        ra_image()
    }

    fn open(open_req: u64) -> Self::State {
        AttestedState::AwaitConfirm {
            begun_req: open_req,
        }
    }

    fn step(
        state: &mut Self::State,
        p: &mut Platform,
        e: &Enclave,
        step: Self::Step,
        ctx: &StepCtx,
    ) -> (Result<Response, ServiceError>, Verdict) {
        let session = ctx.session as u32;
        match (*state, step) {
            (AttestedState::AwaitConfirm { begun_req }, AttestedStep::Confirm { tag }) => {
                let age = ctx.now_req.saturating_sub(begun_req);
                if age > ctx.handshake_ttl {
                    record(p, Event::HsPhase { phase: 3, session });
                    return (
                        Err(ServiceError::Protocol(ProtocolError::Expired {
                            age,
                            ttl: ctx.handshake_ttl,
                        })),
                        Verdict::Close,
                    );
                }
                p.write_shared(e, 3, sl::MSG, &tag);
                match p.run(e, 0, [4, 0, 0]) {
                    EnclaveRun::Exited(0) => {
                        record(p, Event::HsPhase { phase: 2, session });
                        *state = AttestedState::Established { next_seq: 0 };
                        (Ok(Response::SessionEstablished), Verdict::Keep)
                    }
                    EnclaveRun::Exited(_) => {
                        record(p, Event::HsPhase { phase: 3, session });
                        (
                            Err(ServiceError::Protocol(ProtocolError::BadConfirm)),
                            Verdict::Close,
                        )
                    }
                    r => {
                        record(p, Event::HsPhase { phase: 3, session });
                        (
                            Err(ServiceError::Enclave(format!("confirm run: {r:?}"))),
                            Verdict::Close,
                        )
                    }
                }
            }
            (AttestedState::Established { next_seq }, AttestedStep::Send { payload }) => {
                p.write_shared(e, 3, sl::SEQ, &[next_seq]);
                p.write_shared(e, 3, sl::MSG, &payload);
                match p.run(e, 0, [3, 0, 0]) {
                    EnclaveRun::Exited(0) => {
                        let tag = p.read_shared(e, 3, sl::TAG, 8);
                        *state = AttestedState::Established {
                            next_seq: next_seq.wrapping_add(1),
                        };
                        (
                            Ok(Response::AttestedTag {
                                seq: next_seq,
                                tag: tag.try_into().expect("8 tag words"),
                            }),
                            Verdict::Keep,
                        )
                    }
                    r => (
                        Err(ServiceError::Enclave(format!("send run: {r:?}"))),
                        Verdict::Keep,
                    ),
                }
            }
            (st, step) => (
                Err(ServiceError::Protocol(ProtocolError::OutOfOrder {
                    state: st.name(),
                    step: step.name(),
                })),
                Verdict::Keep,
            ),
        }
    }
}

/// The session table's tagged union over every protocol's state.
#[derive(Clone, Copy, Debug)]
pub enum SessionState {
    /// A [`SecretKeeper`] session.
    SecretKeeper(<SecretKeeper as Protocol>::State),
    /// An [`Attested`] session.
    Attested(<Attested as Protocol>::State),
}

impl SessionState {
    /// The protocol this session runs.
    pub fn protocol_name(&self) -> &'static str {
        match self {
            SessionState::SecretKeeper(_) => SecretKeeper::name(),
            SessionState::Attested(_) => Attested::name(),
        }
    }
}

/// A step destined for whichever protocol a session runs; the node
/// decodes requests into this and [`dispatch`] enforces protocol
/// identity.
#[derive(Clone, Copy, Debug)]
pub enum ProtoStep {
    /// A [`SecretKeeper`] step.
    Kv(KvStep),
    /// An [`Attested`] step.
    Attested(AttestedStep),
}

impl ProtoStep {
    /// The protocol this step belongs to.
    pub fn protocol_name(&self) -> &'static str {
        match self {
            ProtoStep::Kv(_) => SecretKeeper::name(),
            ProtoStep::Attested(_) => Attested::name(),
        }
    }
}

/// Routes a typed step to the session's state machine, rejecting
/// protocol mismatches without touching the enclave.
pub fn dispatch(
    state: &mut SessionState,
    p: &mut Platform,
    e: &Enclave,
    step: ProtoStep,
    ctx: &StepCtx,
) -> (Result<Response, ServiceError>, Verdict) {
    match (state, step) {
        (SessionState::SecretKeeper(st), ProtoStep::Kv(k)) => SecretKeeper::step(st, p, e, k, ctx),
        (SessionState::Attested(st), ProtoStep::Attested(a)) => Attested::step(st, p, e, a, ctx),
        (state, step) => (
            Err(ServiceError::Protocol(ProtocolError::WrongProtocol {
                have: state.protocol_name(),
                want: step.protocol_name(),
            })),
            Verdict::Keep,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_context() {
        let e = ProtocolError::OutOfOrder {
            state: "await-confirm",
            step: "send",
        };
        assert!(e.to_string().contains("send") && e.to_string().contains("await-confirm"));
        let e = ProtocolError::Expired { age: 9, ttl: 4 };
        assert!(e.to_string().contains('9') && e.to_string().contains('4'));
        let e = ProtocolError::WrongProtocol {
            have: "attested",
            want: "secret-keeper",
        };
        assert!(e.to_string().contains("attested") && e.to_string().contains("secret-keeper"));
        assert!(ProtocolError::BadConfirm.to_string().contains("rejected"));
    }

    #[test]
    fn session_seed_matches_platform_stream_derivation() {
        let cfg = PlatformConfig::default().with_seed(0x5eed);
        assert_eq!(session_seed(&cfg, 7), cfg.derive_seed(7));
        assert_ne!(session_seed(&cfg, 7), session_seed(&cfg, 8));
    }

    #[test]
    fn state_and_step_names_feed_the_errors() {
        assert_eq!(
            AttestedState::AwaitConfirm { begun_req: 0 }.name(),
            "await-confirm"
        );
        assert_eq!(
            AttestedState::Established { next_seq: 3 }.name(),
            "established"
        );
        assert_eq!(AttestedStep::Confirm { tag: [0; 8] }.name(), "confirm");
        assert_eq!(AttestedStep::Send { payload: [0; 8] }.name(), "send");
        assert_eq!(
            SessionState::SecretKeeper(()).protocol_name(),
            ProtoStep::Kv(KvStep::Get).protocol_name()
        );
        assert_eq!(
            SessionState::Attested(Attested::open(0)).protocol_name(),
            ProtoStep::Attested(AttestedStep::Send { payload: [0; 8] }).protocol_name()
        );
    }
}
