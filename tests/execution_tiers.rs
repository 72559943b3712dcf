//! The real guest across the four execution tiers.
//!
//! The differential suites in `komodo-armv7` pin the micro-op tier,
//! superblocks, the fetch accelerator and plain per-instruction stepping
//! to one another on synthetic kernels. This test does the same for the
//! code the tiers exist for: the remote-attestation enclave's full
//! protocol (keygen, DH and quote, key confirmation, two MAC'd sends)
//! and one notary attestation, on four platforms that differ only in
//! their host-side stepping configuration. Every quote word, tag, MAC
//! and cycle count, and the final machines, must be identical.

use komodo::{measure_image, Platform, PlatformConfig};
use komodo_crypto::{device_attest_key, kdf, schnorr, Digest, Quote, Verifier, VerifierSession};
use komodo_guest::notary::notary_image;
use komodo_guest::ra::ra_image;
use komodo_os::EnclaveRun;
use komodo_service::protocol::{Attested, AttestedStep, StepCtx};
use komodo_service::{Protocol, QuoteWords, Response};

const SEED: u64 = 0x7e57_71e5;
const NONCE: [u32; 4] = [0x1234_5678, 0x9abc_def0, 0x0f1e_2d3c, 0x4b5a_6978];

/// `(name, fetch accelerator, superblocks, micro-op traces)`.
const TIERS: [(&str, bool, bool, bool); 4] = [
    ("uop", true, true, true),
    ("superblock", true, true, false),
    ("accel-only", true, false, false),
    ("baseline", false, false, false),
];

/// Everything a client or the cycle model can observe of one run.
#[derive(Debug, PartialEq, Eq)]
struct Transcript {
    quote: QuoteWords,
    tags: Vec<(u32, [u32; 8])>,
    notary_counter: u32,
    notary_mac: [u32; 8],
    /// The platform's cycle counter after each protocol step.
    cycles: Vec<u64>,
}

fn to_quote(q: &QuoteWords) -> Quote {
    Quote {
        public: q.public,
        binding_mac: Digest(q.binding_mac),
        enclave_share: q.enclave_share,
        sig: schnorr::Signature {
            r: q.sig_r,
            s: q.sig_s,
        },
        confirm: Digest(q.confirm),
    }
}

fn run(accel: bool, superblocks: bool, uops: bool) -> (Transcript, Platform) {
    let mut p = Platform::with_config(
        PlatformConfig::default()
            .with_insecure_size(2 << 20)
            .with_npages(256)
            .with_seed(SEED),
    );
    p.machine.set_fetch_accel(accel);
    p.machine.set_superblocks(superblocks);
    p.machine.set_uop_traces(uops);
    let mut cycles = Vec::new();

    // Handshake: the enclave generates its key, runs DH and quotes.
    let e = p.load(&Attested::image()).unwrap();
    let vs = VerifierSession::new(NONCE, 0x1357, 0x2468);
    let quote = Attested::begin(&mut p, &e, 1, &NONCE, vs.share).unwrap();
    cycles.push(p.cycles());
    let est = Verifier::new(&device_attest_key(SEED), measure_image(&ra_image(), 1))
        .check_quote(&vs, &to_quote(&quote))
        .expect("genuine quote must verify");

    // Key confirmation, then two MAC'd application messages.
    let ctx = StepCtx {
        session: 1,
        now_req: 2,
        handshake_ttl: 1 << 20,
    };
    let mut state = Attested::open(1);
    let (res, _) = Attested::step(
        &mut state,
        &mut p,
        &e,
        AttestedStep::Confirm { tag: est.confirm.0 },
        &ctx,
    );
    assert_eq!(res.unwrap(), Response::SessionEstablished);
    cycles.push(p.cycles());
    let mut tags = Vec::new();
    for round in 0..2u32 {
        let payload = [0x5eed_0000 | round; 8];
        let (res, _) = Attested::step(&mut state, &mut p, &e, AttestedStep::Send { payload }, &ctx);
        let Ok(Response::AttestedTag { seq, tag }) = res else {
            panic!("send {round} did not tag: {res:?}");
        };
        assert!(kdf::verify_app_tag(&est.key, seq, &payload, &Digest(tag)));
        tags.push((seq, tag));
        cycles.push(p.cycles());
    }
    p.destroy(&e).unwrap();

    // One notary attestation over a one-block document.
    let notary = p.load(&notary_image(1)).unwrap();
    let mut doc = [0xa77e_5700u32; 16].to_vec();
    doc[0] = 0xd0c;
    p.write_shared(&notary, 3, 0, &doc);
    let EnclaveRun::Exited(notary_counter) = p.run(&notary, 0, [1, 0, 0]) else {
        panic!("notary did not exit");
    };
    let notary_mac: [u32; 8] = p.read_shared(&notary, 4, 0, 8).try_into().unwrap();
    cycles.push(p.cycles());
    p.destroy(&notary).unwrap();

    let t = Transcript {
        quote,
        tags,
        notary_counter,
        notary_mac,
        cycles,
    };
    (t, p)
}

#[test]
fn ra_protocol_and_notary_agree_across_all_four_tiers() {
    let runs: Vec<_> = TIERS
        .iter()
        .map(|&(name, accel, sb, uop)| (name, run(accel, sb, uop)))
        .collect();
    let (_, (base_t, base_p)) = runs.last().unwrap();
    for (name, (t, p)) in &runs {
        assert_eq!(t, base_t, "{name}: transcript diverged from baseline");
        assert!(
            p.machine == base_p.machine,
            "{name}: final machine diverged from baseline"
        );
        assert_eq!(
            p.machine.metrics_snapshot().architectural(),
            base_p.machine.metrics_snapshot().architectural(),
            "{name}: architectural counters diverged"
        );
    }
    // Each tier really ran: the micro-op runner hopped between the
    // enclave's traces, superblocks ran without it, and the baseline
    // touched no block at all.
    let stats = |i: usize| runs[i].1 .1.machine.superblock_stats();
    assert!(stats(0).uop_linked > 0, "uop: {:?}", stats(0));
    assert!(
        stats(1).hits > 0 && stats(1).uop_hits == 0,
        "superblock: {:?}",
        stats(1)
    );
    assert_eq!(stats(2).hits, 0, "accel-only: {:?}", stats(2));
    assert_eq!(stats(3).hits, 0, "baseline: {:?}", stats(3));
    assert!(runs[2].1 .1.machine.accel.served() > 0);
    assert_eq!(runs[3].1 .1.machine.accel.served(), 0);
}
