//! Remote attestation via a trusted enclave — implementing the future
//! work the paper defers ("Komodo ... defers remote attestation to a
//! trusted enclave (that we have yet to implement)", §4).
//!
//! ```sh
//! cargo run --example remote_attestation
//! ```

use komodo::{measure_image, Platform, PlatformConfig};
use komodo_crypto::schnorr;
use komodo_guest::ra::{ra_image, unpack_u64};
use komodo_os::EnclaveRun;
use komodo_spec::svc::attest_mac;

fn main() {
    let mut p = Platform::with_config(PlatformConfig::default());
    let img = ra_image();
    let ra = p.load(img).expect("RA enclave builds");
    println!("remote-attestation enclave loaded");

    // Phase 1: the enclave generates its keypair *inside* — GetRandom for
    // the secret, g^x computed by guest-code modular exponentiation — and
    // binds the public key to its measurement with local attestation.
    let before = p.cycles();
    assert_eq!(p.run(&ra, 0, [0, 0, 0]), EnclaveRun::Exited(0));
    println!(
        "keypair generated in-enclave ({} simulated cycles)",
        p.cycles() - before
    );
    let out = p.read_shared(&ra, 3, 8, 10);
    let public = unpack_u64(out[0], out[1]);
    println!("published pubkey: {public:#018x}");

    // A local verifier checks the binding: MAC over [pub] under the
    // platform key, tied to the RA enclave's *predicted* measurement.
    let measurement = measure_image(img, 1);
    let mut bound = [0u32; 8];
    bound[0] = out[0];
    bound[1] = out[1];
    let expected = attest_mac(p.monitor.attest_key(), &measurement, &bound);
    assert_eq!(&out[2..10], &expected.0, "binding MAC invalid");
    println!("pubkey binding verified against the RA enclave's measurement");

    // Phase 2: anyone asks for a quote over report data (say, another
    // enclave's measurement + a channel-binding nonce).
    let report = [0xfeed_0001u32, 2, 3, 4, 5, 6, 7, 0xfeed_0008];
    p.write_shared(&ra, 3, 0, &report);
    let before = p.cycles();
    assert_eq!(p.run(&ra, 0, [1, 0, 0]), EnclaveRun::Exited(0));
    println!(
        "quote signed in-enclave ({} simulated cycles: guest-code g^k, SHA-256 challenge, response)",
        p.cycles() - before
    );
    let out = p.read_shared(&ra, 3, 18, 4);
    let sig = schnorr::Signature {
        r: unpack_u64(out[0], out[1]),
        s: unpack_u64(out[2], out[3]),
    };

    // Phase 3: a *remote* verifier — no platform, no monitor key — checks
    // the quote with the public key alone.
    assert!(schnorr::verify(public, &report, &sig));
    println!("remote verifier accepted the quote offline");
    let mut bad = report;
    bad[3] ^= 1;
    assert!(!schnorr::verify(public, &bad, &sig));
    println!("tampered report correctly rejected");
    println!();
    println!(
        "(Group parameters are a 61-bit toy instance sized for the simulator —\n\
         the protocol structure, in-enclave key custody, and the local→remote\n\
         trust chain are the artifact; swap in a standard curve for strength.)"
    );
}
