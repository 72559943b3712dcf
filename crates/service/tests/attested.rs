//! Attested sessions through the service node: the full
//! remote-attestation handshake end to end, and the typed protocol
//! rejection paths (step out of order, wrong protocol, unknown session,
//! expired handshake, refused confirmation) — every misuse fails closed
//! with a typed error.

use komodo::PlatformConfig;
use komodo_crypto::{device_attest_key, kdf, Digest, Quote, Verifier, VerifierSession};
use komodo_service::protocol::ProtocolError;
use komodo_service::{
    attested_mix, drive, drive_attested, schedule, AttestedClient, QuoteWords, Request, Response,
    Service, ServiceConfig, ServiceError, ServiceHandle,
};
use komodo_spec::seed::derive_stream;

fn cfg(shards: usize) -> ServiceConfig {
    ServiceConfig::default().with_shards(shards)
}

/// Drives one handshake to the quote, verifying it client-side; returns
/// the session id, the verifier's established state, and the begin
/// request id.
fn begin_verified(
    h: &ServiceHandle<'_, '_>,
    client: &AttestedClient,
    nonce: [u32; 4],
) -> (u64, komodo_crypto::verifier::Established, u64) {
    let vs = VerifierSession::new(nonce, 0x1357, 0x2468);
    let t = h
        .submit(Request::HandshakeBegin {
            nonce,
            verifier_share: vs.share,
        })
        .unwrap();
    let begin_req = t.id();
    let Response::HandshakeQuote { session, quote } = t.wait().unwrap() else {
        panic!("handshake did not quote");
    };
    let q = to_quote(&quote);
    let device = device_attest_key(derive_stream(client.platform_seed, begin_req));
    let est = Verifier::new(&device, client.measurement)
        .check_quote(&vs, &q)
        .expect("genuine quote must verify");
    (session, est, begin_req)
}

fn to_quote(q: &QuoteWords) -> Quote {
    Quote {
        public: q.public,
        binding_mac: Digest(q.binding_mac),
        enclave_share: q.enclave_share,
        sig: komodo_crypto::schnorr::Signature {
            r: q.sig_r,
            s: q.sig_s,
        },
        confirm: Digest(q.confirm),
    }
}

/// The full handshake plus MAC'd traffic, one session, by hand — the
/// readable end-to-end walkthrough the batched driver compresses.
#[test]
fn handshake_establishes_and_macs_traffic() {
    let config = cfg(2);
    let client = AttestedClient::new(config.platform.seed);
    let r = Service::run(config, |h| {
        let (session, est, _) = begin_verified(h, &client, [0xa5a5_0001; 4]);
        // Return the verifier's confirmation tag: the enclave checks it
        // under its independently-derived key.
        let ok = h
            .submit(Request::HandshakeConfirm {
                session,
                tag: est.confirm.0,
            })
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(ok, Response::SessionEstablished);
        // Application traffic: the enclave assigns sequence numbers and
        // the tag verifies under the *client's* key — both sides derived
        // the same secret.
        for round in 0..3u32 {
            let payload = [round; 8];
            let Response::AttestedTag { seq, tag } = h
                .submit(Request::AttestedSend { session, payload })
                .unwrap()
                .wait()
                .unwrap()
            else {
                panic!("send did not tag");
            };
            assert_eq!(
                seq, round,
                "enclave must assign contiguous sequence numbers"
            );
            assert!(
                kdf::verify_app_tag(&est.key, seq, &payload, &Digest(tag)),
                "traffic tag must verify under the client-side key"
            );
        }
        let closed = h
            .submit(Request::SessionClose { session })
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(closed, Response::SessionClosed);
    });
    assert!(r.records.iter().all(|rec| rec.ok));
}

/// The verifier-side attestation key helper reproduces the real
/// monitor's boot-time derivation — the pin the "device certificate
/// chain" stand-in rests on.
#[test]
fn device_attest_key_pins_the_monitor_derivation() {
    for seed in [0u64, 1, 0x6b6f_6d6f, 0xdead_beef_0bad_cafe] {
        let p = komodo::Platform::with_config(
            PlatformConfig::default()
                .with_insecure_size(2 << 20)
                .with_npages(256)
                .with_seed(seed),
        );
        assert_eq!(
            &device_attest_key(seed),
            p.monitor.attest_key(),
            "seed {seed:#x}"
        );
    }
}

/// Satellite: step out of order — application traffic before the
/// confirmation tag is a typed protocol error, and the handshake stays
/// open (the verifier may still confirm).
#[test]
fn send_before_confirm_is_out_of_order() {
    let config = cfg(1);
    let client = AttestedClient::new(config.platform.seed);
    Service::run(config, |h| {
        let (session, est, _) = begin_verified(h, &client, [7; 4]);
        let premature = h
            .submit(Request::AttestedSend {
                session,
                payload: [1; 8],
            })
            .unwrap()
            .wait();
        assert_eq!(
            premature,
            Err(ServiceError::Protocol(ProtocolError::OutOfOrder {
                state: "await-confirm",
                step: "send",
            }))
        );
        // Not fatal: the session still establishes.
        let ok = h
            .submit(Request::HandshakeConfirm {
                session,
                tag: est.confirm.0,
            })
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(ok, Response::SessionEstablished);
    });
}

/// Satellite: confirming twice is a typed out-of-order error on the
/// established session (not a teardown — the session keeps serving).
#[test]
fn double_confirm_is_out_of_order() {
    let config = cfg(1);
    let client = AttestedClient::new(config.platform.seed);
    Service::run(config, |h| {
        let (session, est, _) = begin_verified(h, &client, [8; 4]);
        let tag = est.confirm.0;
        assert_eq!(
            h.submit(Request::HandshakeConfirm { session, tag })
                .unwrap()
                .wait()
                .unwrap(),
            Response::SessionEstablished
        );
        let again = h
            .submit(Request::HandshakeConfirm { session, tag })
            .unwrap()
            .wait();
        assert_eq!(
            again,
            Err(ServiceError::Protocol(ProtocolError::OutOfOrder {
                state: "established",
                step: "confirm",
            }))
        );
        // Still established: traffic flows.
        let sent = h
            .submit(Request::AttestedSend {
                session,
                payload: [2; 8],
            })
            .unwrap()
            .wait()
            .unwrap();
        assert!(matches!(sent, Response::AttestedTag { seq: 0, .. }));
    });
}

/// Satellite: the wrong protocol's steps on a session are typed
/// `WrongProtocol` errors in both directions — key-value operations on
/// an attested session, handshake operations on a key-value session.
#[test]
fn cross_protocol_steps_are_rejected_typed() {
    let config = cfg(1);
    let client = AttestedClient::new(config.platform.seed);
    Service::run(config, |h| {
        let (attested, _, _) = begin_verified(h, &client, [9; 4]);
        let Response::SessionOpened { session: kv } =
            h.submit(Request::SessionOpen).unwrap().wait().unwrap()
        else {
            panic!("open failed");
        };
        let put = h
            .submit(Request::SessionPut {
                session: attested,
                value: 5,
            })
            .unwrap()
            .wait();
        assert_eq!(
            put,
            Err(ServiceError::Protocol(ProtocolError::WrongProtocol {
                have: "attested",
                want: "secret-keeper",
            }))
        );
        let confirm = h
            .submit(Request::HandshakeConfirm {
                session: kv,
                tag: [0; 8],
            })
            .unwrap()
            .wait();
        assert_eq!(
            confirm,
            Err(ServiceError::Protocol(ProtocolError::WrongProtocol {
                have: "secret-keeper",
                want: "attested",
            }))
        );
        // Neither session was harmed; generic close works on both.
        for session in [attested, kv] {
            assert_eq!(
                h.submit(Request::SessionClose { session })
                    .unwrap()
                    .wait()
                    .unwrap(),
                Response::SessionClosed
            );
        }
    });
}

/// Satellite: handshake steps on an unknown session id are typed
/// `NoSuchSession`, same as the key-value paths.
#[test]
fn unknown_session_handshake_steps_fail_typed() {
    Service::run(cfg(1), |h| {
        let confirm = h
            .submit(Request::HandshakeConfirm {
                session: 4242,
                tag: [0; 8],
            })
            .unwrap()
            .wait();
        assert_eq!(confirm, Err(ServiceError::NoSuchSession(4242)));
        let send = h
            .submit(Request::AttestedSend {
                session: 4242,
                payload: [0; 8],
            })
            .unwrap()
            .wait();
        assert_eq!(send, Err(ServiceError::NoSuchSession(4242)));
    });
}

/// Satellite: an expired handshake — the confirmation arriving more
/// than `handshake_ttl` request ids after the begin — is rejected typed
/// and the session torn down (fail closed).
#[test]
fn expired_handshake_fails_closed() {
    let config = cfg(1).with_handshake_ttl(2);
    let client = AttestedClient::new(config.platform.seed);
    Service::run(config, |h| {
        let (session, est, begin_req) = begin_verified(h, &client, [3; 4]);
        // Burn request ids past the TTL: the node's clock is the job
        // index, so intervening traffic ages the pending handshake.
        for _ in 0..4 {
            h.submit(Request::Attest { report: [0; 8] })
                .unwrap()
                .wait()
                .unwrap();
        }
        let t = h
            .submit(Request::HandshakeConfirm {
                session,
                tag: est.confirm.0,
            })
            .unwrap();
        let confirm_req = t.id();
        let age = confirm_req - begin_req;
        assert_eq!(
            t.wait(),
            Err(ServiceError::Protocol(ProtocolError::Expired {
                age,
                ttl: 2
            }))
        );
        // Fail closed: the session is gone, not lingering half-open.
        let gone = h
            .submit(Request::HandshakeConfirm {
                session,
                tag: est.confirm.0,
            })
            .unwrap()
            .wait();
        assert_eq!(gone, Err(ServiceError::NoSuchSession(session)));
    });
}

/// Satellite: a forged confirmation tag is refused by the enclave and
/// the session torn down — an attacker who saw the quote but not the
/// DH secrets cannot establish traffic keys.
#[test]
fn forged_confirm_tag_fails_closed() {
    let config = cfg(1);
    let client = AttestedClient::new(config.platform.seed);
    Service::run(config, |h| {
        let (session, est, _) = begin_verified(h, &client, [5; 4]);
        let mut forged = est.confirm.0;
        forged[0] ^= 1;
        let refused = h
            .submit(Request::HandshakeConfirm {
                session,
                tag: forged,
            })
            .unwrap()
            .wait();
        assert_eq!(
            refused,
            Err(ServiceError::Protocol(ProtocolError::BadConfirm))
        );
        // Fail closed: even the genuine tag is too late now.
        let gone = h
            .submit(Request::HandshakeConfirm {
                session,
                tag: est.confirm.0,
            })
            .unwrap()
            .wait();
        assert_eq!(gone, Err(ServiceError::NoSuchSession(session)));
    });
}

/// The batched driver: every handshake establishes, every message tag
/// verifies, and the records carry all five phases.
#[test]
fn attested_drive_establishes_everything() {
    let config = cfg(2);
    let client = AttestedClient::new(config.platform.seed);
    let r = Service::run(config, |h| drive_attested(h, &client, 0xd01e, 6, 2));
    let o = r.value;
    assert_eq!(o.sessions, 6);
    assert_eq!(o.established, 6, "every handshake must establish");
    assert_eq!(o.messages, 12, "every traffic tag must verify");
    assert_eq!(o.failed, 0);
    assert_eq!(o.rejected, 0);
    assert_ne!(o.key_digest, 0);
    // begin + confirm + 2 sends + close per session.
    assert_eq!(r.records.len(), 6 * 5);
    assert!(r.records.iter().all(|rec| rec.ok));
}

/// Attested load is just another [`Mix`](komodo_service::Mix):
/// handshake begins interleaved with bulk attestation traffic, driven
/// in batches from two submitter threads, every arrival resolving ok
/// (a begin resolves with its quote; the pending sessions are torn
/// down with the node).
#[test]
fn attested_mix_drives_through_the_batched_driver() {
    let mix = attested_mix(0xfeed, 3).with(3, Request::Attest { report: [9; 8] });
    let arrivals = schedule(0x1d0c, 48, 0, &mix).unwrap();
    assert!(
        arrivals.iter().any(|a| (a.proto as usize) < 3),
        "schedule must draw at least one handshake begin"
    );
    let r = Service::run(cfg(2), |h| drive(h, &mix, &arrivals, false, 2, 8));
    let o = r.value.outcome;
    assert_eq!(o.ok, 48, "every arrival must resolve with a response");
    assert_eq!((o.errors, o.rejected), (0, 0));
    assert_eq!(r.records.len(), 48);
    assert!(r.records.iter().all(|rec| rec.ok));
}
