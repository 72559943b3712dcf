//! Full-system integration: the enclave lifecycle end to end, across
//! crates, on the real simulator.

use komodo::{measure_image, Platform, PlatformConfig};
use komodo_guest::notary::{notarised_digest, notary_image};
use komodo_guest::progs;
use komodo_os::{EnclaveRun, Segment};
use komodo_spec::svc::attest_mac;
use komodo_spec::KomErr;

fn platform() -> Platform {
    Platform::with_config(
        PlatformConfig::default()
            .with_insecure_size(2 << 20)
            .with_npages(128)
            .with_seed(21),
    )
}

#[test]
fn many_enclaves_full_lifecycle() {
    let mut p = platform();
    // Build as many small enclaves as the pool allows, run them all, then
    // tear them all down and do it again: exercises allocation churn.
    let mut enclaves = Vec::new();
    loop {
        match p.load(&progs::adder()) {
            Ok(e) => enclaves.push(e),
            Err(KomErr::PageInUse) => break, // OS allocator exhausted.
            Err(e) => panic!("unexpected build failure: {e:?}"),
        }
        if enclaves.len() >= 16 {
            break;
        }
    }
    assert!(enclaves.len() >= 8, "built only {}", enclaves.len());
    for (i, e) in enclaves.iter().enumerate() {
        assert_eq!(
            p.run(e, 0, [i as u32, 1, 0]),
            EnclaveRun::Exited(i as u32 + 1)
        );
    }
    for e in &enclaves {
        p.destroy(e).unwrap();
    }
    // Everything reusable.
    let e = p.load(&progs::adder()).unwrap();
    assert_eq!(p.run(&e, 0, [2, 3, 0]), EnclaveRun::Exited(5));
}

#[test]
fn multi_threaded_enclave() {
    let mut p = platform();
    let e = p.load_with(&progs::secret_keeper(), 3, 0).unwrap();
    assert_eq!(e.threads.len(), 3);
    // Each thread shares the address space: a store via thread 0 is
    // visible to thread 2.
    assert_eq!(p.run(&e, 0, [0, 777, 0]), EnclaveRun::Exited(0));
    assert_eq!(p.run(&e, 2, [1, 0, 0]), EnclaveRun::Exited(777));
}

#[test]
fn notary_counter_is_monotonic_across_documents() {
    let mut p = platform();
    let img = notary_image(1);
    let e = p.load(&img).unwrap();
    let doc_a: Vec<u32> = (0..64).collect();
    let doc_b: Vec<u32> = (100..164).collect();
    for (i, doc) in [&doc_a, &doc_b, &doc_a].iter().enumerate() {
        p.write_shared(&e, 3, 0, doc);
        let r = p.run(&e, 0, [(doc.len() / 16) as u32, 0, 0]);
        assert_eq!(r, EnclaveRun::Exited(i as u32 + 1));
        // Verify the attestation chain for this notarisation.
        let mac_words = p.read_shared(&e, 4, 0, 8);
        let measurement = measure_image(&img, 1);
        let digest = notarised_digest(i as u32 + 1, doc);
        let expected = attest_mac(p.monitor.attest_key(), &measurement, &digest);
        assert_eq!(mac_words, expected.0.to_vec(), "doc {i}");
    }
}

#[test]
fn notary_rejects_oversized_documents() {
    let mut p = platform();
    let e = p.load(&notary_image(1)).unwrap();
    // Absurd block count: the guest defensively faults instead of reading
    // out of bounds.
    assert_eq!(p.run(&e, 0, [u32::MAX, 0, 0]), EnclaveRun::Faulted);
}

#[test]
fn enclave_to_enclave_attestation() {
    // Enclave A attests a claim; enclave B verifies it via the three-step
    // Verify SVC — the local-attestation trust chain of §4, fully inside
    // guest code.
    use komodo_armv7::regs::Reg;
    use komodo_guest::{svc, GuestSegment, Image};

    let mut p = platform();

    // A: attest over data loaded from its shared page, publish the MAC.
    let mut a = komodo_armv7::Assembler::new(0x8000);
    a.mov_imm32(Reg::R(12), 0x0010_0000);
    for i in 0..8u16 {
        a.ldr_imm(Reg::R(1 + i as u8), Reg::R(12), i * 4);
    }
    svc::attest(&mut a);
    a.mov_imm32(Reg::R(12), 0x0010_0000);
    for i in 0..8u16 {
        a.str_imm(Reg::R(1 + i as u8), Reg::R(12), 32 + i * 4);
    }
    svc::exit_imm(&mut a, 0);
    let img_a = Image {
        segments: vec![
            GuestSegment {
                va: 0x8000,
                words: a.words(),
                w: false,
                x: true,
                shared: false,
            },
            GuestSegment {
                va: 0x0010_0000,
                words: vec![0; 1024],
                w: true,
                x: false,
                shared: true,
            },
        ],
        entry: 0x8000,
    };

    // B: read (data, measure, mac) from its shared page, run the verify
    // steps, exit with the result.
    let mut b = komodo_armv7::Assembler::new(0x8000);
    let load8 = |b: &mut komodo_armv7::Assembler, off: u16| {
        b.mov_imm32(Reg::R(12), 0x0010_0000);
        for i in 0..8u16 {
            b.ldr_imm(Reg::R(1 + i as u8), Reg::R(12), off + i * 4);
        }
    };
    load8(&mut b, 0);
    svc::verify_step0(&mut b);
    load8(&mut b, 32);
    svc::verify_step1(&mut b);
    load8(&mut b, 64);
    svc::verify_step2(&mut b);
    svc::exit(&mut b); // R1 already holds the verdict.
    let img_b = Image {
        segments: vec![
            GuestSegment {
                va: 0x8000,
                words: b.words(),
                w: false,
                x: true,
                shared: false,
            },
            GuestSegment {
                va: 0x0010_0000,
                words: vec![0; 1024],
                w: true,
                x: false,
                shared: true,
            },
        ],
        entry: 0x8000,
    };

    let ea = p.load(&img_a).unwrap();
    let eb = p.load(&img_b).unwrap();

    // The OS relays A's claim to B (untrusted channel — fine: integrity
    // comes from the MAC).
    let claim = [3u32, 1, 4, 1, 5, 9, 2, 6];
    p.write_shared(&ea, 1, 0, &claim);
    assert_eq!(p.run(&ea, 0, [0; 3]), EnclaveRun::Exited(0));
    let mac = p.read_shared(&ea, 1, 8, 8);

    let measure_a = measure_image(&img_a, 1);
    let mut relay = Vec::new();
    relay.extend_from_slice(&claim);
    relay.extend_from_slice(&measure_a.0);
    relay.extend_from_slice(&mac);
    p.write_shared(&eb, 1, 0, &relay);
    assert_eq!(
        p.run(&eb, 0, [0; 3]),
        EnclaveRun::Exited(1),
        "verify must accept"
    );

    // A tampered claim must be rejected.
    let mut bad = relay.clone();
    bad[0] ^= 1;
    p.write_shared(&eb, 1, 0, &bad);
    assert_eq!(
        p.run(&eb, 0, [0; 3]),
        EnclaveRun::Exited(0),
        "verify must reject"
    );

    // A forged measurement must be rejected.
    let mut forged = relay;
    forged[8] ^= 1;
    p.write_shared(&eb, 1, 0, &forged);
    assert_eq!(p.run(&eb, 0, [0; 3]), EnclaveRun::Exited(0));
}

#[test]
fn dynamic_memory_full_cycle_with_reclaim() {
    let mut p = platform();
    let e = p.load_with(&progs::dynamic_memory_user(), 1, 2).unwrap();
    let spare = e.spares[0] as u32;
    assert_eq!(p.run(&e, 0, [spare, 0, 0]), EnclaveRun::Exited(0x5eed_f00d));
    // After UnmapData the page is spare again; the OS may reclaim it.
    let r = p.os.remove(&mut p.machine, &mut p.monitor, spare as usize);
    assert_eq!(r.err, KomErr::Ok);
    // The second spare is untouched and still reclaimable too.
    let r = p.os.remove(&mut p.machine, &mut p.monitor, e.spares[1]);
    assert_eq!(r.err, KomErr::Ok);
}

#[test]
fn interrupt_storm_preserves_results() {
    // Run a compute enclave under constant preemption: the result must be
    // identical to an uninterrupted run.
    let mut p = platform();
    let img = progs::echo();
    let e = p.load(&img).unwrap();
    let data: Vec<u32> = (0..256).map(|i| i * 7).collect();
    p.write_shared(&e, 1, 0, &data);
    let expected: u32 = data.iter().copied().fold(0u32, u32::wrapping_add);
    p.monitor.step_budget = 300; // Preempt every 300 instructions.
    let r = p.run(&e, 0, [256, 0, 0]);
    assert_eq!(r, EnclaveRun::Exited(expected));
    assert_eq!(p.read_shared(&e, 1, 512, 256), data);
}

#[test]
fn os_and_enclave_share_memory_coherently() {
    let mut p = platform();
    let e = p.load(&progs::echo()).unwrap();
    for round in 0..5u32 {
        let data: Vec<u32> = (0..32).map(|i| i + round * 100).collect();
        p.write_shared(&e, 1, 0, &data);
        let expected: u32 = data.iter().sum();
        assert_eq!(p.run(&e, 0, [32, 0, 0]), EnclaveRun::Exited(expected));
        assert_eq!(p.read_shared(&e, 1, 512, 32), data);
    }
}

#[test]
fn builder_rejects_overlapping_segments() {
    let mut p = platform();
    let img = komodo_guest::Image {
        segments: vec![
            komodo_guest::GuestSegment {
                va: 0x8000,
                words: vec![0xe320f000],
                w: false,
                x: true,
                shared: false,
            },
            komodo_guest::GuestSegment {
                va: 0x8000, // Same VA.
                words: vec![1, 2, 3],
                w: true,
                x: false,
                shared: false,
            },
        ],
        entry: 0x8000,
    };
    assert!(matches!(p.load(&img), Err(KomErr::AddrInUse)));
}

#[test]
fn segments_spanning_l1_slots() {
    // Code in slot 0, data in slot 1 (VA 4 MB+): two L2 tables needed.
    let mut p = platform();
    let mut a = komodo_armv7::Assembler::new(0x8000);
    a.mov_imm32(komodo_armv7::Reg::R(4), 0x0040_0000);
    a.ldr_imm(komodo_armv7::Reg::R(1), komodo_armv7::Reg::R(4), 0);
    komodo_guest::svc::exit(&mut a);
    let img = komodo_guest::Image {
        segments: vec![
            komodo_guest::GuestSegment {
                va: 0x8000,
                words: a.words(),
                w: false,
                x: true,
                shared: false,
            },
            komodo_guest::GuestSegment {
                va: 0x0040_0000,
                words: vec![0xabcd],
                w: true,
                x: false,
                shared: false,
            },
        ],
        entry: 0x8000,
    };
    let e = p.load(&img).unwrap();
    assert_eq!(p.run(&e, 0, [0; 3]), EnclaveRun::Exited(0xabcd));
}

#[test]
fn native_process_isolated_from_enclave() {
    // A native process and an enclave coexist; the process cannot see the
    // enclave's pages, the enclave runs unaffected. With the §8.1 flush
    // elision on, the enclave re-enters without a TLB flush, so the TLB
    // itself must keep the process's translations out of the enclave's.
    struct ExitOnly;
    impl komodo_os::native::Syscalls for ExitOnly {
        fn handle(&mut self, m: &mut komodo::Machine, _: &komodo::Os) -> Option<u32> {
            use komodo_armv7::regs::Reg;
            (m.reg(Reg::R(0)) == 0).then(|| m.reg(Reg::R(1)))
        }
    }
    // `(name, fetch accelerator)`: the host-side caches must keep the two
    // address spaces apart too, compiled as well as interpreted.
    const TIERS: [(&str, bool); 2] = [("compiled", true), ("baseline", false)];
    for always_flush_tlb in [true, false] {
        let mut finals = Vec::new();
        for (tier, accel) in TIERS {
            let mut p = platform();
            p.machine.set_fetch_accel(accel);
            p.monitor.always_flush_tlb = always_flush_tlb;
            let e = p.load(&progs::secret_keeper()).unwrap();
            p.run(&e, 0, [0, 0xfeed, 0]);
            let np = p.load_native(&progs::adder());
            let r = np.run(&mut p.machine, &p.os, &mut ExitOnly, [1, 2, 0], 100_000);
            assert_eq!(r, komodo_os::native::NativeRun::Exited(3));
            let exit = p.run(&e, 0, [1, 0, 0]);
            assert_eq!(
                exit,
                EnclaveRun::Exited(0xfeed),
                "always_flush_tlb = {always_flush_tlb}, tier {tier}"
            );
            finals.push((tier, exit, p.machine));
        }
        let (_, base_exit, base) = finals.last().unwrap();
        for (tier, exit, m) in &finals {
            assert_eq!(
                exit, base_exit,
                "always_flush_tlb = {always_flush_tlb}, tier {tier}"
            );
            assert!(
                m == base,
                "always_flush_tlb = {always_flush_tlb}: tier {tier}'s machine diverged from baseline"
            );
        }
    }
}

#[test]
fn segment_type_constructors() {
    let s = Segment::code(0x1000, vec![1]);
    assert!(s.x && !s.w && !s.shared);
    let s = Segment::data(0x1000, vec![1]);
    assert!(!s.x && s.w && !s.shared);
    let s = Segment::shared(0x1000, vec![1]);
    assert!(!s.x && s.w && s.shared);
}
