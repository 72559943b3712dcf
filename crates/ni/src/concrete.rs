//! Machine-level noninterference checks.
//!
//! The spec-level bisimulation ([`crate::bisim`]) checks the theorem's
//! statement; this module checks it *of the implementation*: two booted
//! platforms whose enclaves hold different secrets are driven by an
//! identical OS, and everything the OS can observe — the register file it
//! sees after each call, all insecure RAM, and the call results — is
//! compared bit-for-bit. Register-scrubbing bugs, secrets parked in
//! banked registers, or monitor writes to insecure memory would all
//! surface here.

use komodo_armv7::mode::Mode;
use komodo_armv7::regs::{Bank, Reg};
use komodo_armv7::word::PAGE_SIZE;
use komodo_armv7::Machine;
use komodo_crypto::{Digest, Sha256};
use komodo_monitor::MonitorLayout;

/// Digest of everything a normal-world adversary can observe about the
/// machine: general-purpose registers, banked `SP`/`LR` (excluding
/// monitor mode, per §6.1), current flags, and all insecure RAM.
///
/// Insecure RAM is hashed as its non-zero pages, each with its page
/// index, read through [`komodo_armv7::mem::PhysMem::resident_frames`]:
/// the cost tracks the pages written, not the RAM size, and no access
/// counter moves. Every other page reads as zero, so two views are equal
/// exactly when insecure RAM is equal, whether a zero page was never
/// written or written and then zeroed back.
pub fn adversary_view(m: &Machine, layout: &MonitorLayout) -> Digest {
    let mut h = Sha256::new();
    for r in Reg::all() {
        h.update(&m.regs.get(Mode::User, r).to_be_bytes());
    }
    for bank in [
        Bank::Usr,
        Bank::Svc,
        Bank::Abt,
        Bank::Und,
        Bank::Irq,
        Bank::Fiq,
    ] {
        h.update(&m.regs.sp_banked(bank).to_be_bytes());
        h.update(&m.regs.lr_banked(bank).to_be_bytes());
    }
    h.update(&m.cpsr.encode().to_be_bytes());
    let mut bytes = [0u8; PAGE_SIZE as usize];
    for (pa, frame) in m.mem.resident_frames() {
        if pa >= layout.insecure_size || frame.iter().all(|&w| w == 0) {
            continue;
        }
        for (b, w) in bytes.chunks_exact_mut(4).zip(frame.iter()) {
            b.copy_from_slice(&w.to_be_bytes());
        }
        h.update(&(pa / PAGE_SIZE).to_be_bytes());
        h.update(&bytes);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use komodo::Platform;
    use komodo_guest::progs;
    use komodo_os::EnclaveRun;

    /// Two platforms, same seed; the victim stores a *different* secret on
    /// each. Afterwards the adversary views must be identical.
    ///
    /// Both flight recorders are armed for the episode, so a failed
    /// comparison can print where the boundary-event streams diverged
    /// instead of only the mismatching digests. Recording is
    /// architecturally invisible, so arming it cannot mask (or cause) an
    /// NI violation.
    fn paired_platforms() -> (Platform, Platform) {
        let cfg = || {
            komodo::PlatformConfig::default()
                .with_insecure_size(1 << 20)
                .with_npages(64)
                .with_seed(7)
        };
        let mut p1 = Platform::with_config(cfg());
        let mut p2 = Platform::with_config(cfg());
        p1.set_trace(256);
        p2.set_trace(256);
        (p1, p2)
    }

    /// Asserts the adversary views coincide; on mismatch, panics with the
    /// side-by-side flight-recorder tails of both machines.
    fn assert_views_equal(p1: &mut Platform, p2: &mut Platform, what: &str) {
        let v1 = adversary_view(&p1.machine, &p1.monitor.layout);
        let v2 = adversary_view(&p2.machine, &p2.monitor.layout);
        if v1 != v2 {
            panic!(
                "{what}\n{}",
                crate::report::divergence_report(
                    "secret-A",
                    &p1.machine,
                    "secret-B",
                    &p2.machine,
                    24
                )
            );
        }
    }

    #[test]
    fn stored_secret_invisible_to_os() {
        let (mut p1, mut p2) = paired_platforms();
        let e1 = p1.load(&progs::secret_keeper()).unwrap();
        let e2 = p2.load(&progs::secret_keeper()).unwrap();
        // Different secrets; the store path's timing is data-independent.
        assert_eq!(p1.run(&e1, 0, [0, 0x1111_1111, 0]), EnclaveRun::Exited(0));
        assert_eq!(p2.run(&e2, 0, [0, 0x2222_2222, 0]), EnclaveRun::Exited(0));
        // Everything the OS can see must coincide...
        assert_views_equal(
            &mut p1,
            &mut p2,
            "enclave secret leaked into OS-visible state",
        );
        // ...including the cycle counter (no data-dependent timing in the
        // monitor paths for same-shaped calls).
        assert_eq!(p1.cycles(), p2.cycles());
    }

    #[test]
    fn secret_visible_to_its_owner() {
        // Sanity: the secret is real — the enclave itself can read it back.
        let (mut p1, _) = paired_platforms();
        let e1 = p1.load(&progs::secret_keeper()).unwrap();
        p1.run(&e1, 0, [0, 0xdead_beef, 0]);
        assert_eq!(p1.run(&e1, 0, [1, 0, 0]), EnclaveRun::Exited(0xdead_beef));
    }

    #[test]
    fn fault_reveals_only_fault() {
        // The page_oracle victim touches a page chosen by a secret bit.
        // Both its pages are mapped, so it exits normally — and the OS
        // view is identical for secret 0 and secret 1 (controlled-channel
        // immunity: the OS cannot induce or observe enclave page faults,
        // §3.1).
        let (mut p1, mut p2) = paired_platforms();
        let e1 = p1.load(&progs::page_oracle()).unwrap();
        let e2 = p2.load(&progs::page_oracle()).unwrap();
        assert_eq!(p1.run(&e1, 0, [0, 0, 0]), EnclaveRun::Exited(0));
        assert_eq!(p2.run(&e2, 0, [1, 0, 0]), EnclaveRun::Exited(0));
        assert_views_equal(&mut p1, &mut p2, "secret-dependent access pattern leaked");
        assert_eq!(p1.cycles(), p2.cycles());
    }

    #[test]
    fn monitor_scrubs_registers_after_enclave_exit() {
        let (mut p1, _) = paired_platforms();
        let e = p1.load(&progs::secret_keeper()).unwrap();
        p1.run(&e, 0, [0, 0x5ec2e7, 0]);
        // After the SMC returns, no user-visible register may carry the
        // secret (R0/R1 are the declassified result).
        for r in Reg::all() {
            let v = p1.machine.regs.get(Mode::User, r);
            assert_ne!(v, 0x5ec2e7, "register {r:?} leaked the secret");
        }
    }

    #[test]
    fn adversary_view_is_sensitive() {
        // Negative control: a *public* difference must change the view.
        let (mut p1, mut p2) = paired_platforms();
        let e1 = p1.load(&progs::echo()).unwrap();
        let _e2 = p2.load(&progs::echo()).unwrap();
        p1.write_shared(&e1, 1, 0, &[42]);
        let v1 = adversary_view(&p1.machine, &p1.monitor.layout);
        let v2 = adversary_view(&p2.machine, &p2.monitor.layout);
        assert_ne!(v1, v2);
    }

    /// An insecure page written and then zeroed back is, to the
    /// adversary, the page never written: the view hashes non-zero pages
    /// only, and reading it moves no access counter.
    #[test]
    fn zeroed_back_page_gives_the_never_written_view() {
        let (mut p1, p2) = paired_platforms();
        let pa = 0x3000;
        let resident = p1.machine.mem.resident_pages();
        p1.machine
            .mem
            .write(pa, 0xdead_beef, komodo_armv7::mem::AccessAttrs::NORMAL)
            .unwrap();
        assert_ne!(
            adversary_view(&p1.machine, &p1.monitor.layout),
            adversary_view(&p2.machine, &p2.monitor.layout),
            "a non-zero insecure word must change the view"
        );
        p1.machine
            .mem
            .write(pa, 0, komodo_armv7::mem::AccessAttrs::NORMAL)
            .unwrap();
        assert_eq!(p1.machine.mem.resident_pages(), resident + 1);
        let (reads, writes) = (p1.machine.mem.reads, p1.machine.mem.writes);
        assert_eq!(
            adversary_view(&p1.machine, &p1.monitor.layout),
            adversary_view(&p2.machine, &p2.monitor.layout)
        );
        assert_eq!(
            (p1.machine.mem.reads, p1.machine.mem.writes),
            (reads, writes),
            "the view must not count accesses"
        );
    }
}
