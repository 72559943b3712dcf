//! Attested sessions at the workspace level: the remote-attestation
//! handshake driven through the service node end to end — negative
//! paths (forged, replayed, mismeasured, truncated handshakes all fail
//! closed), the equal-keys property over randomized drives, and the
//! shard-count invariance of a large concurrent handshake wave.

use komodo::{measure_image, Enclave, Platform};
use komodo_crypto::{
    device_attest_key, kdf, Digest, Quote, Verifier, VerifierSession, VerifyError,
};
use komodo_service::protocol::{Attested, AttestedState, AttestedStep, StepCtx};
use komodo_service::{
    drive_attested, AttestedClient, Protocol, QuoteWords, Request, Response, Service,
    ServiceConfig, ServiceError, ServiceHandle,
};
use komodo_spec::seed::derive_stream;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;

fn cfg(shards: usize) -> ServiceConfig {
    ServiceConfig::default().with_shards(shards)
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

/// Begins one handshake through the service and returns the raw quote
/// plus everything needed to verify it: the verifier session, the
/// device attestation key for the session's platform, and the session
/// id.
fn begin_raw(
    h: &ServiceHandle<'_, '_>,
    base_seed: u64,
    nonce: [u32; 4],
) -> (u64, VerifierSession, [u8; 32], Quote) {
    let vs = VerifierSession::new(nonce, 0xabcd, 0x1234);
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
    let device = device_attest_key(derive_stream(base_seed, begin_req));
    (session, vs, device, to_quote(&quote))
}

/// A session platform's host memory is the pages it wrote, not its RAM
/// size: the service config's 784-page platform boots with no page frame
/// resident, holds a handful once the RA enclave is loaded and has run
/// its half of the handshake, and frees them all on reset. Counts only
/// frames, so it pins the footprint without timing anything.
#[test]
fn session_platform_holds_only_written_pages() {
    let mut p = Platform::with_config(ServiceConfig::default().platform);
    assert_eq!(p.machine.mem.resident_pages(), 0, "after boot");
    let e = p.load(Attested::image()).unwrap();
    let vs = VerifierSession::new([0x5e55_1011; 4], 0xabcd, 0x1234);
    Attested::begin(&mut p, &e, 1, &[0x5e55_1011; 4], vs.share).unwrap();
    let resident = p.machine.mem.resident_pages();
    assert!(
        (1..=16).contains(&resident),
        "{resident} frames after the RA load and begin"
    );
    p.reset();
    assert_eq!(p.machine.mem.resident_pages(), 0, "after reset");
}

const STEP_CTX: StepCtx = StepCtx {
    session: 1,
    now_req: 2,
    handshake_ttl: 1 << 20,
};

/// Takes the RA enclave `e` on `p` through the handshake (begin, then
/// key confirmation with the tag a verifying client derives) and returns
/// the established session's state.
fn establish(p: &mut Platform, e: &Enclave, nonce: [u32; 4]) -> AttestedState {
    let vs = VerifierSession::new(nonce, 0xabcd, 0x1234);
    let quote = Attested::begin(p, e, 1, &nonce, vs.share).unwrap();
    let seed = ServiceConfig::default().platform.seed;
    let est = Verifier::new(
        &device_attest_key(seed),
        measure_image(Attested::image(), 1),
    )
    .check_quote(&vs, &to_quote(&quote))
    .expect("genuine quote must verify");
    let mut state = Attested::open(1);
    let confirm = AttestedStep::Confirm { tag: est.confirm.0 };
    let (res, _) = Attested::step(&mut state, p, e, confirm, &STEP_CTX);
    assert_eq!(res.unwrap(), Response::SessionEstablished);
    state
}

/// One MAC'd send on an established session.
fn send(p: &mut Platform, e: &Enclave, state: &mut AttestedState, round: u32) {
    let payload = [0x5e4d_0000 | round; 8];
    let (res, _) = Attested::step(state, p, e, AttestedStep::Send { payload }, &STEP_CTX);
    assert!(
        matches!(res, Ok(Response::AttestedTag { .. })),
        "send {round}: {res:?}"
    );
}

/// A resident session re-enters its enclave warm: the monitor flushes
/// the TLB on every entry, and the compiled guest code survives it. After
/// begin, confirm and one send, every later send builds (and so
/// compiles) no block, and the platform at rest holds no more blocks
/// after the tenth send than after the first. Counts only, no timing.
#[test]
fn resident_session_sends_reuse_compiled_code() {
    let mut p = Platform::with_config(ServiceConfig::default().platform);
    let e = p.load(Attested::image()).unwrap();
    let mut state = establish(&mut p, &e, [0xc0de_0001; 4]);
    send(&mut p, &e, &mut state, 0);
    let after_first = p.machine.accel.cached_blocks();
    assert!(after_first > 0, "the send compiled nothing");
    for round in 1..10 {
        let before = p.machine.superblock_stats();
        send(&mut p, &e, &mut state, round);
        let after = p.machine.superblock_stats();
        assert_eq!(after.built, before.built, "send {round} built blocks");
        assert!(after.hits > before.hits, "send {round} ran no block");
    }
    assert!(
        p.machine.accel.cached_blocks() <= after_first,
        "{} blocks after the tenth send, {after_first} after the first",
        p.machine.accel.cached_blocks()
    );
}

/// The code cache's growth is bounded by one run's working set: two RA
/// enclaves on one platform, run alternately, leave the platform holding
/// at most the larger of the two single-enclave working sets after every
/// run, because each run's return to the normal world trims the cache to
/// what that run used.
#[test]
fn alternating_enclaves_hold_one_working_set() {
    let cfg = ServiceConfig::default().platform;
    let working_set = |nonce: [u32; 4]| {
        let mut p = Platform::with_config(cfg.clone());
        let e = p.load(Attested::image()).unwrap();
        let mut state = establish(&mut p, &e, nonce);
        send(&mut p, &e, &mut state, 0);
        p.machine.accel.cached_blocks()
    };
    let (na, nb) = ([0xa11c_e000; 4], [0x0b0b_0000; 4]);
    let bound = working_set(na).max(working_set(nb));
    let mut p = Platform::with_config(cfg);
    let a = p.load(Attested::image()).unwrap();
    let b = p.load(Attested::image()).unwrap();
    let mut sa = establish(&mut p, &a, na);
    let mut sb = establish(&mut p, &b, nb);
    for round in 0..20 {
        let (e, s) = if round % 2 == 0 {
            (&a, &mut sa)
        } else {
            (&b, &mut sb)
        };
        send(&mut p, e, s, round);
        let held = p.machine.accel.cached_blocks();
        assert!(
            held <= bound,
            "run {round}: {held} blocks cached, single-enclave bound {bound}"
        );
    }
}

/// Satellite: forged-quote rejection, end to end — a genuine quote from
/// the service with any field tampered fails the verifier's checks
/// typed, in check order.
#[test]
fn tampered_quotes_are_rejected_typed() {
    let config = cfg(1);
    let client = AttestedClient::new(config.platform.seed);
    Service::run(config, |h| {
        let (_, vs, device, quote) = begin_raw(h, client.platform_seed, [0x51; 4]);
        let verifier = Verifier::new(&device, client.measurement);
        // The untampered quote verifies.
        verifier
            .check_quote(&vs, &quote)
            .expect("genuine quote must verify");
        // Forged binding MAC: the public key no longer traces to the
        // measured enclave.
        let mut forged = quote;
        forged.binding_mac.0[3] ^= 1;
        assert_eq!(
            verifier.check_quote(&vs, &forged),
            Err(VerifyError::BadBinding)
        );
        // Tampered signature: the challenge binding breaks.
        let mut forged = quote;
        forged.sig.s ^= 2;
        assert_eq!(
            verifier.check_quote(&vs, &forged),
            Err(VerifyError::BadSignature)
        );
        // Tampered confirmation tag: key confirmation fails.
        let mut forged = quote;
        forged.confirm.0[0] ^= 4;
        assert_eq!(
            verifier.check_quote(&vs, &forged),
            Err(VerifyError::BadConfirm)
        );
        // Out-of-group share: rejected before any use.
        let mut forged = quote;
        forged.enclave_share = 1;
        assert_eq!(
            verifier.check_quote(&vs, &forged),
            Err(VerifyError::BadShare)
        );
    });
}

/// Satellite: replay — a quote answering one challenge does not verify
/// against another verifier session's fresh nonce and share.
#[test]
fn replayed_quote_rejected_by_fresh_challenge() {
    let config = cfg(1);
    let client = AttestedClient::new(config.platform.seed);
    Service::run(config, |h| {
        let (_, _, device, quote) = begin_raw(h, client.platform_seed, [0x11; 4]);
        let fresh = VerifierSession::new([0x22; 4], 0x9999, 0x7777);
        assert_eq!(
            Verifier::new(&device, client.measurement).check_quote(&fresh, &quote),
            Err(VerifyError::BadSignature),
            "a replayed quote must not satisfy a fresh challenge"
        );
    });
}

/// Satellite: wrong measurement — a verifier expecting different
/// enclave code rejects the genuine quote at the binding check.
#[test]
fn wrong_measurement_rejected() {
    let config = cfg(1);
    let base_seed = config.platform.seed;
    Service::run(config, |h| {
        let (_, vs, device, quote) = begin_raw(h, base_seed, [0x33; 4]);
        let notary = komodo::measure_image(&komodo_guest::notary::notary_image(1), 1);
        assert_eq!(
            Verifier::new(&device, notary).check_quote(&vs, &quote),
            Err(VerifyError::BadBinding),
            "a quote from the RA enclave must not pass as the notary"
        );
    });
}

/// Satellite: a truncated handshake — begun, never confirmed — yields
/// no established session: traffic is refused typed, the pending
/// session closes cleanly, and node teardown leaves nothing behind.
#[test]
fn truncated_handshake_fails_closed() {
    let config = cfg(1);
    let client = AttestedClient::new(config.platform.seed);
    let r = Service::run(config, |h| {
        let (session, _, device, quote) = begin_raw(h, client.platform_seed, [0x44; 4]);
        // The quote itself is genuine...
        let vs_check = Verifier::new(&device, client.measurement);
        assert!(vs_check
            .check_quote(&VerifierSession::new([0x44; 4], 0xabcd, 0x1234), &quote)
            .is_ok());
        // ...but without the confirmation, no traffic flows.
        let refused = h
            .submit(Request::AttestedSend {
                session,
                payload: [9; 8],
            })
            .unwrap()
            .wait();
        assert!(
            matches!(refused, Err(ServiceError::Protocol(_))),
            "traffic on an unconfirmed handshake must fail typed: {refused:?}"
        );
        // Generic close tears the half-open handshake down.
        assert_eq!(
            h.submit(Request::SessionClose { session })
                .unwrap()
                .wait()
                .unwrap(),
            Response::SessionClosed
        );
        session
    });
    // A second begin left pending at shutdown is also fine — covered by
    // the run completing; the records show no established traffic.
    assert!(r.records.iter().any(|rec| !rec.ok));
}

/// Property: every completed handshake derives the same session key on
/// both sides. The drive verifies each enclave-produced traffic tag
/// under the *client's* independently-derived key, so
/// `messages == established × rounds` with zero failures is exactly the
/// equal-keys property — exercised here over proptest-drawn drive
/// seeds (fresh nonces, DH secrets, and payloads per seed).
#[test]
fn prop_completed_sessions_derive_equal_keys() {
    let mut rng = TestRng::for_test("prop_completed_sessions_derive_equal_keys");
    let config = cfg(2);
    let client = AttestedClient::new(config.platform.seed);
    for _ in 0..6 {
        let seed = (0u64..u64::MAX).generate(&mut rng);
        let o = Service::run(config.clone(), |h| drive_attested(h, &client, seed, 3, 2)).value;
        assert_eq!(o.established, 3, "seed {seed:#x}: a handshake failed");
        assert_eq!(
            o.messages, 6,
            "seed {seed:#x}: a traffic tag failed under the client key — the sides disagree"
        );
        assert_eq!(o.failed, 0, "seed {seed:#x}");
    }
}

/// The confirmation tags are direction-separated: feeding the enclave
/// its own confirm tag (instead of the verifier-direction tag) must be
/// refused — the KDF labels the two directions apart.
#[test]
fn reflected_confirm_tag_is_refused() {
    let config = cfg(1);
    let client = AttestedClient::new(config.platform.seed);
    Service::run(config, |h| {
        let nonce = [0x66; 4];
        let (session, vs, device, quote) = begin_raw(h, client.platform_seed, nonce);
        let est = Verifier::new(&device, client.measurement)
            .check_quote(&vs, &quote)
            .unwrap();
        // Reflect the enclave's own tag back at it.
        let reflected = h
            .submit(Request::HandshakeConfirm {
                session,
                tag: quote.confirm.0,
            })
            .unwrap()
            .wait();
        assert!(
            matches!(reflected, Err(ServiceError::Protocol(_))),
            "reflected confirm must be refused: {reflected:?}"
        );
        // And the derived tags really differ.
        assert_ne!(est.confirm, quote.confirm);
        let _ = kdf::CONFIRM_VERIFIER_TAG;
    });
}

/// Satellite: the new enclave-visible chaos fault kind — SVC-level
/// perturbation of the inputs a malicious OS relays mid-handshake —
/// always yields a quote the verifier oracle rejects. Tampering is
/// *detected*, never silently accepted: the enclave signs what it was
/// actually given, so the verifier's challenge no longer matches.
#[test]
fn chaos_perturbed_handshake_is_never_accepted() {
    use komodo_chaos::Fault;
    use komodo_guest::ra::{ra_image, shared_layout as sl, unpack_u64};
    use komodo_os::EnclaveRun;
    use komodo_spec::seed::SplitMix64;

    let mut p = komodo::Platform::with_config(
        komodo::PlatformConfig::default()
            .with_insecure_size(1 << 20)
            .with_npages(64)
            .with_seed(0xc4a0_57e5),
    );
    let img = ra_image();
    let e = p.load(img).unwrap();
    assert_eq!(p.run(&e, 0, [0, 0, 0]), EnclaveRun::Exited(0));
    let verifier = Verifier::new(p.monitor.attest_key(), komodo::measure_image(img, 1));

    let run_quote = |p: &mut komodo::Platform| -> Quote {
        assert_eq!(p.run(&e, 0, [2, 0, 0]), EnclaveRun::Exited(0));
        let pub_words = p.read_shared(&e, 3, sl::PUB, 2);
        let mac = p.read_shared(&e, 3, sl::MAC, 8);
        let rs = p.read_shared(&e, 3, sl::R, 4);
        let eshare = p.read_shared(&e, 3, sl::ESHARE, 2);
        let confirm = p.read_shared(&e, 3, sl::CONFIRM, 8);
        Quote {
            public: unpack_u64(pub_words[0], pub_words[1]),
            binding_mac: Digest(mac.try_into().unwrap()),
            enclave_share: unpack_u64(eshare[0], eshare[1]),
            sig: komodo_crypto::schnorr::Signature {
                r: unpack_u64(rs[0], rs[1]),
                s: unpack_u64(rs[2], rs[3]),
            },
            confirm: Digest(confirm.try_into().unwrap()),
        }
    };

    // Sanity: an unperturbed handshake is accepted — the rejections
    // below are because of the tampering, not a broken fixture.
    let clean = VerifierSession::new([0xc1ea_0001; 4], 0x1111, 0x2222);
    p.write_shared(&e, 3, sl::NONCE, &clean.nonce);
    p.write_shared(
        &e,
        3,
        sl::VSHARE,
        &[clean.share as u32, (clean.share >> 32) as u32],
    );
    assert!(verifier.check_quote(&clean, &run_quote(&mut p)).is_ok());

    let mut rng = SplitMix64::new(0x7a3b_0001);
    let mut rejections = 0u32;
    for round in 0..24u64 {
        let nonce = [rng.next_u64() as u32; 4].map(|w| w ^ round as u32);
        let vs = VerifierSession::new(nonce, rng.next_u64() as u32, rng.next_u64() as u32);
        // The fault the chaos schedule draws: XOR a nonzero mask into
        // one of the SVC-relayed inputs, here a word of the challenge
        // the OS carries to the enclave.
        let fault = Fault::EntryPerturb {
            arg: rng.below(6) as u8,
            val: (rng.next_u64() as u32) | 1,
        };
        let Fault::EntryPerturb { arg, val } = fault else {
            unreachable!()
        };
        assert_eq!(fault.kind_code(), 8, "the new enclave-visible kind");
        let mut challenge = [
            vs.nonce[0],
            vs.nonce[1],
            vs.nonce[2],
            vs.nonce[3],
            vs.share as u32,
            (vs.share >> 32) as u32,
        ];
        // Mid-handshake perturbation: the OS relays a corrupted word.
        challenge[arg as usize % 6] ^= val;
        p.write_shared(&e, 3, sl::NONCE, &challenge[..4]);
        p.write_shared(&e, 3, sl::VSHARE, &challenge[4..]);
        let quote = run_quote(&mut p);
        assert!(
            verifier.check_quote(&vs, &quote).is_err(),
            "round {round}: tampered handshake ({fault}) accepted"
        );
        rejections += 1;
    }
    assert_eq!(rejections, 24);
}

/// Tentpole acceptance: a large wave of concurrent handshakes is
/// shard-count invariant — the same drive against a 1-shard and a
/// 4-shard fleet produces the identical [`AttestedOutcome`] (including
/// the key digest, so every session derived the same key in both runs)
/// and identical per-request records. Session count defaults to 128
/// for routine runs; `KOMODO_ATTESTED_SESSIONS=1000` in a release build
/// drives a thousand (CI's experiments job does).
///
/// [`AttestedOutcome`]: komodo_service::AttestedOutcome
#[test]
fn handshake_wave_is_shard_count_invariant() {
    let sessions: usize = std::env::var("KOMODO_ATTESTED_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(128);
    let client = AttestedClient::new(cfg(1).platform.seed);
    let sweep = |shards: usize| {
        let r = Service::run(cfg(shards), |h| {
            drive_attested(h, &client, 0x1000_0001, sessions, 1)
        });
        let mut recs: Vec<_> = r
            .records
            .iter()
            .map(|rec| (rec.req, rec.kind, rec.class, rec.ok, rec.sim))
            .collect();
        recs.sort_by_key(|t| t.0);
        (r.value, recs)
    };
    let (o1, r1) = sweep(1);
    let (o4, r4) = sweep(4);
    assert_eq!(o1.established, sessions as u64, "handshakes failed: {o1:?}");
    assert_eq!(o1.failed, 0);
    assert_eq!(o1, o4, "attested outcome changed with shard count");
    assert_eq!(r1, r4, "per-request records changed with shard count");
}
