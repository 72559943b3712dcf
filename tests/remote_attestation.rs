//! Remote attestation end to end — the trusted enclave the paper defers
//! to future work (§4), running for real on the machine model.
//!
//! Flow:
//! 1. The RA enclave generates its Schnorr keypair *inside the enclave*
//!    (`GetRandom` + guest-code `g^x mod p`) and publishes `pub` plus a
//!    local-attestation MAC binding `pub` to its measurement.
//! 2. A verifier who trusts the platform checks the binding (predicting
//!    the RA enclave's measurement from its image) and records `pub`.
//! 3. Any party asks the enclave to *quote* report data; the enclave
//!    signs `(R, s)` with guest-code exponentiation and hashing.
//! 4. A **remote** verifier — no platform access, no monitor key — checks
//!    the quote with plain public-key verification.

use komodo::{measure_image, Platform, PlatformConfig};
use komodo_crypto::verifier::{Quote, Verifier, VerifierSession};
use komodo_crypto::{kdf, schnorr, Digest};
use komodo_guest::ra::{ra_image, shared_layout as sl, unpack_u64};
use komodo_os::EnclaveRun;
use komodo_spec::svc::attest_mac;

fn setup() -> (Platform, komodo::Enclave, u64) {
    let mut p = Platform::with_config(
        PlatformConfig::default()
            .with_insecure_size(1 << 20)
            .with_npages(64)
            .with_seed(0xa77e57),
    );
    let img = ra_image();
    let e = p.load(img).unwrap();
    // 1. Init: keypair generated in-enclave.
    assert_eq!(p.run(&e, 0, [0, 0, 0]), EnclaveRun::Exited(0));
    let out = p.read_shared(&e, 3, 8, 10); // pub(2) + mac(8).
    let public = unpack_u64(out[0], out[1]);
    let mac: Vec<u32> = out[2..10].to_vec();
    // 2. Local verification of the key binding.
    let measurement = measure_image(img, 1);
    let mut bound = [0u32; 8];
    bound[0] = out[0];
    bound[1] = out[1];
    let expected = attest_mac(p.monitor.attest_key(), &measurement, &bound);
    assert_eq!(mac, expected.0.to_vec(), "pubkey binding MAC invalid");
    (p, e, public)
}

#[test]
fn quote_signs_and_remote_verifies() {
    let (mut p, e, public) = setup();
    let report = [
        0x1111u32, 0x2222, 0x3333, 0x4444, 0x5555, 0x6666, 0x7777, 0x8888,
    ];
    p.write_shared(&e, 3, 0, &report);
    assert_eq!(p.run(&e, 0, [1, 0, 0]), EnclaveRun::Exited(0));
    let out = p.read_shared(&e, 3, 18, 4); // R(2) + s(2).
    let sig = schnorr::Signature {
        r: unpack_u64(out[0], out[1]),
        s: unpack_u64(out[2], out[3]),
    };
    // 4. Pure offline verification.
    assert!(
        schnorr::verify(public, &report, &sig),
        "quote failed remote verification: R={:#x} s={:#x}",
        sig.r,
        sig.s
    );
    // Tampered report rejected.
    let mut bad = report;
    bad[0] ^= 1;
    assert!(!schnorr::verify(public, &bad, &sig));
}

#[test]
fn quotes_bind_their_reports() {
    let (mut p, e, public) = setup();
    let mut sigs = Vec::new();
    for r in [[1u32; 8], [2u32; 8]] {
        p.write_shared(&e, 3, 0, &r);
        assert_eq!(p.run(&e, 0, [1, 0, 0]), EnclaveRun::Exited(0));
        let out = p.read_shared(&e, 3, 18, 4);
        let sig = schnorr::Signature {
            r: unpack_u64(out[0], out[1]),
            s: unpack_u64(out[2], out[3]),
        };
        assert!(schnorr::verify(public, &r, &sig));
        sigs.push(sig);
    }
    // Distinct nonces → distinct signatures; cross-verification fails.
    assert_ne!(sigs[0], sigs[1]);
    assert!(!schnorr::verify(public, &[2u32; 8], &sigs[0]));
    assert!(!schnorr::verify(public, &[1u32; 8], &sigs[1]));
}

#[test]
fn secret_key_never_reaches_the_os() {
    let (mut p, e, public) = setup();
    // Sweep all insecure RAM and the OS-visible registers for any word
    // pair that would reveal the discrete log... directly: the secret is
    // 59 bits; check that no aligned pair of insecure words w (interpreted
    // either endianness) satisfies g^w = pub.
    let _ = &e;
    let insecure_words = p.os.read_insecure(&mut p.machine, 1, 0, 1024); // Sample several pages.
    for pfn in 1..8u32 {
        let words = p.os.read_insecure(&mut p.machine, pfn, 0, 1024);
        for pair in words.windows(2) {
            for cand in [unpack_u64(pair[0], pair[1]), unpack_u64(pair[1], pair[0])] {
                if cand != 0 && cand < schnorr::Q {
                    assert_ne!(
                        schnorr::pow_mod(schnorr::G, cand, schnorr::P),
                        public,
                        "secret key found in insecure RAM (pfn {pfn})"
                    );
                }
            }
        }
    }
    let _ = insecure_words;
}

/// Drives the in-enclave handshake (`op 2`) against a host-side
/// [`VerifierSession`] and returns the enclave's quote.
fn run_handshake(p: &mut Platform, e: &komodo::Enclave, vs: &VerifierSession) -> Quote {
    p.write_shared(e, 3, sl::NONCE, &vs.nonce);
    p.write_shared(
        e,
        3,
        sl::VSHARE,
        &[vs.share as u32, (vs.share >> 32) as u32],
    );
    assert_eq!(
        p.run(e, 0, [2, 0, 0]),
        EnclaveRun::Exited(0),
        "handshake op failed"
    );
    let pub_words = p.read_shared(e, 3, sl::PUB, 2);
    let mac = p.read_shared(e, 3, sl::MAC, 8);
    let rs = p.read_shared(e, 3, sl::R, 4);
    let eshare = p.read_shared(e, 3, sl::ESHARE, 2);
    let confirm = p.read_shared(e, 3, sl::CONFIRM, 8);
    Quote {
        public: unpack_u64(pub_words[0], pub_words[1]),
        binding_mac: Digest(mac.try_into().unwrap()),
        enclave_share: unpack_u64(eshare[0], eshare[1]),
        sig: schnorr::Signature {
            r: unpack_u64(rs[0], rs[1]),
            s: unpack_u64(rs[2], rs[3]),
        },
        confirm: Digest(confirm.try_into().unwrap()),
    }
}

#[test]
fn handshake_establishes_matching_session_keys() {
    let (mut p, e, public) = setup();
    let verifier = Verifier::new(p.monitor.attest_key(), measure_image(ra_image(), 1));
    let vs = VerifierSession::new([0xaaa1, 0xaaa2, 0xaaa3, 0xaaa4], 0x1234_5678, 0x9abc_def0);
    let quote = run_handshake(&mut p, &e, &vs);
    assert_eq!(quote.public, public);
    let est = verifier
        .check_quote(&vs, &quote)
        .expect("quote must verify");

    // The enclave accepts the verifier's confirmation tag (op 4)...
    p.write_shared(&e, 3, sl::MSG, &est.confirm.0);
    assert_eq!(
        p.run(&e, 0, [4, 0, 0]),
        EnclaveRun::Exited(0),
        "C_v rejected"
    );
    // ...and rejects a tampered one.
    let mut bad = est.confirm.0;
    bad[3] ^= 1;
    p.write_shared(&e, 3, sl::MSG, &bad);
    assert_eq!(
        p.run(&e, 0, [4, 0, 0]),
        EnclaveRun::Exited(1),
        "tampered C_v accepted"
    );

    // MAC'd application traffic under the established key: the enclave's
    // tag (op 3) verifies under the verifier's independently-derived key.
    let payload = [0xd00d_0001u32, 2, 3, 4, 5, 6, 7, 8];
    p.write_shared(&e, 3, sl::SEQ, &[7]);
    p.write_shared(&e, 3, sl::MSG, &payload);
    assert_eq!(p.run(&e, 0, [3, 0, 0]), EnclaveRun::Exited(0));
    let tag = Digest(p.read_shared(&e, 3, sl::TAG, 8).try_into().unwrap());
    assert!(kdf::verify_app_tag(&est.key, 7, &payload, &tag));
    assert!(!kdf::verify_app_tag(&est.key, 8, &payload, &tag));
}

#[test]
fn handshake_rejects_replay_and_forgery() {
    let (mut p, e, _) = setup();
    let verifier = Verifier::new(p.monitor.attest_key(), measure_image(ra_image(), 1));
    let vs = VerifierSession::new([1, 2, 3, 4], 0xfeed, 0xbeef);
    let quote = run_handshake(&mut p, &e, &vs);
    assert!(verifier.check_quote(&vs, &quote).is_ok());

    // Replay against a fresh verifier session: rejected (nonce + share
    // are signed).
    let fresh = VerifierSession::new([5, 6, 7, 8], 0xfeed, 0xbeef);
    assert!(verifier.check_quote(&fresh, &quote).is_err());

    // Forged binding MAC: rejected.
    let mut forged = quote;
    forged.binding_mac.0[0] ^= 1;
    assert_eq!(
        verifier.check_quote(&vs, &forged),
        Err(komodo_crypto::VerifyError::BadBinding)
    );

    // Wrong expected measurement: rejected.
    let wrong = Verifier::new(p.monitor.attest_key(), Digest([0x1bad_b002; 8]));
    assert_eq!(
        wrong.check_quote(&vs, &quote),
        Err(komodo_crypto::VerifyError::BadBinding)
    );
}

#[test]
fn handshake_secrets_never_reach_the_os() {
    // Same sweep as `secret_key_never_reaches_the_os`, but after a full
    // handshake: neither the DH secret b nor (via the public check
    // below) the session-key material may appear in insecure RAM.
    let (mut p, e, _) = setup();
    let vs = VerifierSession::new([11, 12, 13, 14], 0x5eed, 0xf00d);
    let quote = run_handshake(&mut p, &e, &vs);
    for pfn in 1..8u32 {
        let words = p.os.read_insecure(&mut p.machine, pfn, 0, 1024);
        for pair in words.windows(2) {
            for cand in [unpack_u64(pair[0], pair[1]), unpack_u64(pair[1], pair[0])] {
                if cand != 0 && cand < schnorr::Q {
                    assert_ne!(
                        schnorr::pow_mod(schnorr::G, cand, schnorr::P),
                        quote.enclave_share,
                        "DH secret found in insecure RAM (pfn {pfn})"
                    );
                }
            }
        }
    }
}

#[test]
fn quoting_is_reasonably_cheap() {
    let (mut p, e, _) = setup();
    p.write_shared(&e, 3, 0, &[7u32; 8]);
    let before = p.cycles();
    assert_eq!(p.run(&e, 0, [1, 0, 0]), EnclaveRun::Exited(0));
    let cycles = p.cycles() - before;
    // One guest exponentiation + hash + response: should be well under
    // 10M simulated cycles (~11 ms at 900 MHz) — usable for real systems.
    assert!(cycles < 10_000_000, "quote took {cycles} cycles");
}
