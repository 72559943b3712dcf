//! Security integration suite: the §3.1 threat model, adversarially.
//!
//! "We assume a software attacker who controls privileged software" plus
//! malicious enclaves. Every attack here must be defeated by the monitor
//! or the hardware, and — the stronger claim — must leave the victim's
//! secrets and execution unaffected.

use komodo::{Platform, PlatformConfig};
use komodo_guest::progs;
use komodo_os::attacks::{self, AttackOutcome};
use komodo_os::{EnclaveRun, Segment};
use komodo_spec::KomErr;

fn platform() -> Platform {
    Platform::with_config(
        PlatformConfig::default()
            .with_insecure_size(1 << 20)
            .with_npages(64)
            .with_seed(13),
    )
}

#[test]
fn normal_world_cannot_touch_any_secure_page() {
    let mut p = platform();
    // Load a victim so the pool holds real secrets.
    let e = p.load(&progs::secret_keeper()).unwrap();
    p.run(&e, 0, [0, 0x5ec2e7, 0]);
    let probed = attacks::sweep_secure_pool(&mut p.machine, &p.monitor);
    assert_eq!(probed, 64);
    // Writes are blocked too, and the secret survives.
    for pg in 0..p.monitor.layout.npages {
        assert_eq!(
            attacks::write_secure_memory(&mut p.machine, &p.monitor, pg),
            AttackOutcome::BlockedByHardware
        );
    }
    assert_eq!(p.run(&e, 0, [1, 0, 0]), EnclaveRun::Exited(0x5ec2e7));
}

#[test]
fn distrusting_enclaves_cannot_double_map() {
    let mut p = platform();
    // Victim with a data page.
    let victim = p.load(&progs::secret_keeper()).unwrap();
    p.run(&victim, 0, [0, 42, 0]);
    // The victim's data page is one of its owned pages; find it.
    let d = komodo_monitor::abs::abstract_pagedb(&mut p.machine, &p.monitor.layout);
    let victim_data = d
        .pages_of(victim.asp)
        .into_iter()
        .find(|pg| matches!(d.get(*pg), Some(komodo_spec::PageEntry::Data { .. })))
        .expect("victim has a data page");

    // Attacker enclave under construction tries to claim that page.
    let asp = p.os.alloc_secure().unwrap();
    let l1 = p.os.alloc_secure().unwrap();
    assert_eq!(
        p.os.init_addrspace(&mut p.machine, &mut p.monitor, asp, l1)
            .err,
        KomErr::Ok
    );
    let l2 = p.os.alloc_secure().unwrap();
    assert_eq!(
        p.os.init_l2ptable(&mut p.machine, &mut p.monitor, asp, l2, 0)
            .err,
        KomErr::Ok
    );
    let r = attacks::double_map_secure_page(
        &mut p.machine,
        &mut p.monitor,
        &p.os,
        asp,
        victim_data,
        0x9000,
    );
    assert_eq!(r, AttackOutcome::RejectedByMonitor(KomErr::PageInUse));
    // Victim unaffected.
    assert_eq!(p.run(&victim, 0, [1, 0, 0]), EnclaveRun::Exited(42));
}

#[test]
fn monitor_pages_rejected_as_insecure_sources() {
    let mut p = platform();
    let asp = p.os.alloc_secure().unwrap();
    let l1 = p.os.alloc_secure().unwrap();
    p.os.init_addrspace(&mut p.machine, &mut p.monitor, asp, l1);
    let l2 = p.os.alloc_secure().unwrap();
    p.os.init_l2ptable(&mut p.machine, &mut p.monitor, asp, l2, 0);
    let data = p.os.alloc_secure().unwrap();
    let r = attacks::map_secure_from_monitor_page(
        &mut p.machine,
        &mut p.monitor,
        &p.os,
        asp,
        data,
        0x9000,
    );
    assert_eq!(r, AttackOutcome::RejectedByMonitor(KomErr::InvalidInsecure));
    let r = attacks::map_insecure_aliasing_pool(&mut p.machine, &mut p.monitor, &p.os, asp, 0xa000);
    assert_eq!(r, AttackOutcome::RejectedByMonitor(KomErr::InvalidInsecure));
}

#[test]
fn suspended_thread_cannot_be_reentered() {
    let mut p = platform();
    let e = p.load(&progs::spinner()).unwrap();
    p.monitor.step_budget = 200;
    assert_eq!(p.enter(&e, 0, [0; 3]), EnclaveRun::Interrupted);
    let r = attacks::reenter_suspended_thread(&mut p.machine, &mut p.monitor, &p.os, &e);
    assert_eq!(r, AttackOutcome::RejectedByMonitor(KomErr::AlreadyEntered));
}

#[test]
fn live_pages_cannot_be_removed() {
    let mut p = platform();
    let e = p.load(&progs::secret_keeper()).unwrap();
    for pg in &e.owned_pages {
        let r = attacks::remove_live_page(&mut p.machine, &mut p.monitor, &p.os, *pg);
        assert!(
            matches!(r, AttackOutcome::RejectedByMonitor(KomErr::NotStopped))
                || matches!(r, AttackOutcome::RejectedByMonitor(KomErr::PagesRemain)),
            "page {pg}: {r:?}"
        );
    }
    // The enclave still runs.
    assert_eq!(p.run(&e, 0, [0, 1, 0]), EnclaveRun::Exited(0));
}

#[test]
fn garbage_calls_and_arguments_rejected() {
    let mut p = platform();
    for call in [0u32, 13, 99, u32::MAX] {
        assert_eq!(
            attacks::garbage_call(&mut p.machine, &mut p.monitor, call),
            AttackOutcome::RejectedByMonitor(KomErr::InvalidCall)
        );
    }
    // Saturated page-number arguments on every real call: never panics,
    // never succeeds into a bad state.
    for call in 2..=12u32 {
        let r = p.monitor.smc(
            &mut p.machine,
            call,
            [u32::MAX, u32::MAX, u32::MAX, u32::MAX],
        );
        assert_ne!(r.err, KomErr::Ok, "call {call} accepted garbage");
    }
    // The PageDB is still pristine.
    let d = komodo_monitor::abs::abstract_pagedb(&mut p.machine, &p.monitor.layout);
    assert_eq!(d.free_pages().len(), 64);
}

#[test]
fn malicious_enclave_cannot_escalate() {
    let mut p = platform();
    let e = p.load(&progs::privilege_escalator()).unwrap();
    // SMC/MCR from enclave user mode: the thread dies with Fault, nothing
    // else happens.
    assert_eq!(p.run(&e, 0, [0; 3]), EnclaveRun::Faulted);
    // The platform is intact: other enclaves build and run.
    let e2 = p.load(&progs::adder()).unwrap();
    assert_eq!(p.run(&e2, 0, [2, 2, 0]), EnclaveRun::Exited(4));
}

#[test]
fn malicious_enclave_probing_addresses_only_kills_itself() {
    let mut p = platform();
    let victim = p.load(&progs::secret_keeper()).unwrap();
    p.run(&victim, 0, [0, 0xdead, 0]);
    let prober = p.load(&progs::prober()).unwrap();
    // Probe unmapped VAs, the monitor's VA range, other enclaves' likely
    // VAs: every probe faults the prober; the victim's secret survives.
    for va in [0x0u32, 0x9000, 0x3fff_f000, 0x2000_0000] {
        let r = p.run(&prober, 0, [va, 0, 0]);
        assert_eq!(r, EnclaveRun::Faulted, "probe of {va:#x}");
    }
    assert_eq!(p.run(&victim, 0, [1, 0, 0]), EnclaveRun::Exited(0xdead));
}

#[test]
fn os_observes_only_exception_type_on_enclave_fault() {
    // §4: "If the enclave takes an exception, the thread simply exits with
    // an error code (but no other information, to avoid side-channel
    // leaks)". Two different fault causes (bad load vs undefined
    // instruction) must be indistinguishable to the OS.
    let mut p1 = platform();
    let mut p2 = platform();
    let bad_load = {
        let mut a = komodo_armv7::Assembler::new(0x8000);
        a.mov_imm32(komodo_armv7::Reg::R(1), 0x3000_0000);
        a.ldr_imm(komodo_armv7::Reg::R(0), komodo_armv7::Reg::R(1), 0);
        komodo_guest::Image {
            segments: vec![komodo_guest::GuestSegment {
                va: 0x8000,
                words: a.words(),
                w: false,
                x: true,
                shared: false,
            }],
            entry: 0x8000,
        }
    };
    let undef = {
        let mut a = komodo_armv7::Assembler::new(0x8000);
        a.mov_imm32(komodo_armv7::Reg::R(1), 0x3000_0000); // Same length.
        a.udf(7);
        komodo_guest::Image {
            segments: vec![komodo_guest::GuestSegment {
                va: 0x8000,
                words: a.words(),
                w: false,
                x: true,
                shared: false,
            }],
            entry: 0x8000,
        }
    };
    let e1 = p1.load(&bad_load).unwrap();
    let e2 = p2.load(&undef).unwrap();
    let r1 = p1
        .os
        .enter(&mut p1.machine, &mut p1.monitor, e1.threads[0], [0; 3]);
    let r2 = p2
        .os
        .enter(&mut p2.machine, &mut p2.monitor, e2.threads[0], [0; 3]);
    assert_eq!(r1.err, KomErr::Fault);
    assert_eq!((r1.err, r1.retval), (r2.err, r2.retval));
    // Registers after the SMC are identical (scrubbed + result only).
    use komodo_armv7::mode::Mode;
    for r in komodo_armv7::Reg::all() {
        assert_eq!(
            p1.machine.regs.get(Mode::User, r),
            p2.machine.regs.get(Mode::User, r),
            "register {r:?} distinguishes fault causes"
        );
    }
}

#[test]
fn shared_pages_are_the_only_channel() {
    // An enclave with no shared mappings can influence nothing the OS
    // sees except its exit value.
    let mut p1 = platform();
    let mut p2 = platform();
    let e1 = p1.load(&progs::secret_keeper()).unwrap();
    let e2 = p2.load(&progs::secret_keeper()).unwrap();
    p1.run(&e1, 0, [0, 1, 0]);
    p2.run(&e2, 0, [0, 2, 0]);
    let v1 = komodo_ni::concrete::adversary_view(&p1.machine, &p1.monitor.layout);
    let v2 = komodo_ni::concrete::adversary_view(&p2.machine, &p2.monitor.layout);
    assert_eq!(v1, v2);
    // Whereas with a shared page, the enclave can (legitimately) talk.
    let e3 = p1.load(&progs::echo()).unwrap();
    p1.write_shared(&e3, 1, 0, &[9]);
    p1.run(&e3, 0, [1, 0, 0]);
    let v3 = komodo_ni::concrete::adversary_view(&p1.machine, &p1.monitor.layout);
    assert_ne!(v1, v3);
}

#[test]
fn stopped_enclave_never_runs_again() {
    let mut p = platform();
    let e = p.load(&progs::adder()).unwrap();
    assert_eq!(p.run(&e, 0, [1, 1, 0]), EnclaveRun::Exited(2));
    p.os.stop(&mut p.machine, &mut p.monitor, e.asp);
    let r =
        p.os.enter(&mut p.machine, &mut p.monitor, e.threads[0], [0; 3]);
    assert_eq!(r.err, KomErr::Stopped);
    // And construction calls are refused too.
    let spare = p.os.alloc_secure().unwrap();
    let r =
        p.os.alloc_spare(&mut p.machine, &mut p.monitor, e.asp, spare);
    assert_eq!(r.err, KomErr::Stopped);
}

#[test]
fn enclave_cannot_write_read_only_shared_page() {
    // A read-only insecure mapping: enclave writes must fault.
    let mut p = platform();
    let mut a = komodo_armv7::Assembler::new(0x8000);
    a.mov_imm32(komodo_armv7::Reg::R(4), 0x0010_0000);
    a.str_imm(komodo_armv7::Reg::R(0), komodo_armv7::Reg::R(4), 0);
    komodo_guest::svc::exit_imm(&mut a, 0);
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
                va: 0x0010_0000,
                words: vec![1, 2, 3],
                w: false, // Read-only.
                x: false,
                shared: true,
            },
        ],
        entry: 0x8000,
    };
    // Build manually since Image→Segment keeps the w flag.
    let e = p.load(&img).unwrap();
    assert_eq!(p.run(&e, 0, [0xbad, 0, 0]), EnclaveRun::Faulted);
    // The OS copy is unmodified.
    assert_eq!(p.read_shared(&e, 1, 0, 3), vec![1, 2, 3]);
    let _ = Segment::shared(0, vec![]); // Silence unused-import pedantry.
}
