//! Noninterference at scale (paper §6, Theorem 6.1).
//!
//! The `komodo-ni` crate's unit tests run small bisimulations; this suite
//! runs the theorem harder (more seeds, longer traces, proptest-driven)
//! and adds machine-level games the unit tests don't cover.

use komodo_ni::bisim::{confidentiality, integrity_frame};
use komodo_ni::concrete::adversary_view;
use komodo_ni::gen::{scenario, trace, twin};
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;

/// Pre-generates the exact `(seed, tseed)` episode set the sequential
/// `proptest!` form of `name` would draw — same per-test RNG, same
/// strategy, same order — so the parallel runner below tests the
/// identical episodes, just across worker threads.
fn episodes(name: &str, cases: u32) -> Vec<(u64, u64)> {
    let mut rng = TestRng::for_test(name);
    (0..cases)
        .map(|_| {
            let seed = (0u64..10_000).generate(&mut rng);
            let tseed = (0u64..10_000).generate(&mut rng);
            (seed, tseed)
        })
        .collect()
}

/// Theorem 6.1, confidentiality: for randomized scenarios, secret twins,
/// and adversary traces (including runs of the victim), all declassified
/// outputs agree and states remain ≈adv-related. Episodes are generated
/// sequentially and executed in parallel ([`komodo_ni::par`]).
#[test]
fn prop_confidentiality() {
    let cases = episodes("prop_confidentiality", 24);
    komodo_ni::par::run_indexed(cases.len(), |i| {
        let (seed, tseed) = cases[i];
        let s = scenario(seed);
        let t = twin(&s, seed ^ 0xdead_beef);
        let actions = trace(&s, tseed, 30, true);
        if let Err(e) = confidentiality(&s, &t, &actions, tseed) {
            panic!("confidentiality violated (seed {seed}/{tseed}): {e}");
        }
    });
}

/// Theorem 6.1, integrity (frame form): adversary traces that do not
/// run/extend/reclaim the victim leave it bit-for-bit unchanged.
#[test]
fn prop_integrity() {
    let cases = episodes("prop_integrity", 24);
    komodo_ni::par::run_indexed(cases.len(), |i| {
        let (seed, tseed) = cases[i];
        let s = scenario(seed);
        let actions = trace(&s, tseed, 40, false);
        if let Err(e) = integrity_frame(&s, &actions, tseed) {
            panic!("integrity violated (seed {seed}/{tseed}): {e}");
        }
    });
}

/// Machine-level confidentiality under an *attacking* OS: two platforms
/// differing only in the victim's stored secret are subjected to the same
/// attack barrage; the adversary views stay identical throughout.
#[test]
fn concrete_confidentiality_under_attack() {
    use komodo::{Platform, PlatformConfig};
    use komodo_guest::progs;
    use komodo_os::attacks;
    use komodo_os::EnclaveRun;

    let build = |secret: u32| {
        let mut p = Platform::with_config(
            PlatformConfig::default()
                .with_insecure_size(1 << 20)
                .with_npages(64)
                .with_seed(99),
        );
        let e = p.load(&progs::secret_keeper()).unwrap();
        assert_eq!(p.run(&e, 0, [0, secret, 0]), EnclaveRun::Exited(0));
        (p, e)
    };
    let (mut p1, e1) = build(0x1111_1111);
    let (mut p2, e2) = build(0x2222_2222);

    // Identical attack sequences on both.
    let attack_round = |p: &mut Platform, e: &komodo::Enclave| {
        attacks::sweep_secure_pool(&mut p.machine, &p.monitor);
        let _ = attacks::aliased_init_addrspace(&mut p.machine, &mut p.monitor, &p.os, 40);
        for pg in &e.owned_pages {
            let _ = attacks::remove_live_page(&mut p.machine, &mut p.monitor, &p.os, *pg);
        }
        let _ = attacks::garbage_call(&mut p.machine, &mut p.monitor, 77);
        // Run the victim compute path too (secret-dependent compare with a
        // wrong guess: exits 0 in both since guesses are wrong in both).
        assert_eq!(p.run(e, 0, [2, 0x3333_3333, 0]), EnclaveRun::Exited(0));
    };
    for _ in 0..3 {
        attack_round(&mut p1, &e1);
        attack_round(&mut p2, &e2);
        let v1 = adversary_view(&p1.machine, &p1.monitor.layout);
        let v2 = adversary_view(&p2.machine, &p2.monitor.layout);
        assert_eq!(v1, v2, "attack round distinguished the secrets");
        assert_eq!(p1.cycles(), p2.cycles(), "timing distinguished the secrets");
    }
}

/// Machine-level integrity: the attack barrage never changes the victim's
/// abstracted pages.
#[test]
fn concrete_integrity_under_attack() {
    use komodo::{Platform, PlatformConfig};
    use komodo_guest::progs;
    use komodo_monitor::abs::abstract_pagedb;
    use komodo_os::attacks;
    use komodo_os::EnclaveRun;

    let mut p = Platform::with_config(
        PlatformConfig::default()
            .with_insecure_size(1 << 20)
            .with_npages(64)
            .with_seed(98),
    );
    let e = p.load(&progs::secret_keeper()).unwrap();
    assert_eq!(p.run(&e, 0, [0, 0xfeed_face, 0]), EnclaveRun::Exited(0));

    let restrict = |p: &mut Platform| {
        let d = abstract_pagedb(&mut p.machine, &p.monitor.layout);
        let mut pages = d.pages_of(e.asp);
        pages.push(e.asp);
        pages.sort_unstable();
        pages
            .into_iter()
            .map(|pg| (pg, d.get(pg).unwrap().clone()))
            .collect::<Vec<_>>()
    };
    let before = restrict(&mut p);
    // Everything the OS can throw that isn't a legitimate lifecycle op.
    attacks::sweep_secure_pool(&mut p.machine, &p.monitor);
    for pg in 0..p.monitor.layout.npages {
        let _ = attacks::write_secure_memory(&mut p.machine, &p.monitor, pg);
        let _ = attacks::remove_live_page(&mut p.machine, &mut p.monitor, &p.os, pg);
    }
    for call in [0u32, 13, 20, 999] {
        let _ = attacks::garbage_call(&mut p.machine, &mut p.monitor, call);
    }
    // Spray structural calls with arguments aimed at the victim.
    for call in 2..=8u32 {
        let _ = p.monitor.smc(
            &mut p.machine,
            call,
            [e.asp as u32, e.threads[0] as u32, 0x8000, 7],
        );
    }
    assert_eq!(restrict(&mut p), before, "adversary modified victim state");
    // And the secret is still there.
    assert_eq!(p.run(&e, 0, [1, 0, 0]), EnclaveRun::Exited(0xfeed_face));
}

/// The declassification boundary is tight: two victims that exit with
/// *different* values legitimately produce different OS views (nothing
/// else would explain a difference — negative control for the harness).
#[test]
fn declassified_exit_values_do_differ() {
    use komodo::{Platform, PlatformConfig};
    use komodo_guest::progs;
    use komodo_os::EnclaveRun;

    let run = |secret: u32| {
        let mut p = Platform::with_config(
            PlatformConfig::default()
                .with_insecure_size(1 << 20)
                .with_npages(64)
                .with_seed(97),
        );
        let e = p.load(&progs::secret_keeper()).unwrap();
        p.run(&e, 0, [0, secret, 0]);
        // The enclave *chooses* to reveal: exit value = secret.
        let r = p.run(&e, 0, [1, 0, 0]);
        assert!(matches!(r, EnclaveRun::Exited(_)));
        r
    };
    assert_ne!(run(1), run(2));
}
