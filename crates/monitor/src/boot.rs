//! Bootloader (paper §7.2, §8.1).
//!
//! "We implemented a simple bootloader that loads the monitor in secure
//! world, setting up its memory map and exception vectors ... The
//! bootloader also reserves a configurable amount of RAM as secure memory,
//! before switching to normal world to boot Linux." Here the bootloader
//! builds the machine's memory regions, derives the boot-time attestation
//! secret from the (modelled) hardware RNG, and leaves the machine in
//! normal-world supervisor mode, ready for the OS.

use komodo_armv7::mode::Mode;
use komodo_armv7::psr::Psr;
use komodo_armv7::Machine;

use crate::layout::MonitorLayout;
use crate::monitor::Monitor;

/// Cycle cost of the boot sequence (image copy, vector setup, key
/// derivation); charged once.
const BOOT_COST: u64 = 20_000;

/// Boots the platform: returns the machine (in normal-world supervisor
/// mode, as if Linux were about to start) and the initialised monitor.
///
/// `seed` seeds the modelled hardware RNG, from which the attestation
/// secret is derived; experiments pass a fixed seed for reproducibility.
pub fn boot(layout: MonitorLayout, seed: u64) -> (Machine, Monitor) {
    let mut m = Machine::new();
    layout.build_memory(&mut m);
    let monitor = Monitor::new(layout, seed);
    m.charge(BOOT_COST);
    // Leave secure world configured and switch to the normal world OS.
    m.set_scr_ns(true);
    m.cpsr = Psr::privileged(Mode::Supervisor);
    (m, monitor)
}

/// Re-boots an already-constructed machine in place: the fast pooling
/// path. The machine's memory regions must have been built for `layout`
/// (by a prior [`boot`] / [`MonitorLayout::build_memory`]); they are kept
/// and their written page frames dropped, and every architectural field
/// ends bit-for-bit equal to a fresh [`boot`] with the same arguments —
/// same boot-cost charge, same world switch, same seed-derived
/// attestation key.
pub fn reboot(m: &mut Machine, layout: MonitorLayout, seed: u64) -> Monitor {
    debug_assert!(
        m.mem.is_mapped(layout.monitor_base) && m.mem.is_mapped(layout.page_pa(0)),
        "reboot requires a machine built for this layout"
    );
    m.reboot();
    let monitor = Monitor::new(layout, seed);
    m.charge(BOOT_COST);
    m.set_scr_ns(true);
    m.cpsr = Psr::privileged(Mode::Supervisor);
    monitor
}

#[cfg(test)]
mod tests {
    use super::*;
    use komodo_armv7::mode::World;

    #[test]
    fn boot_leaves_machine_in_normal_world() {
        let (m, _) = boot(MonitorLayout::new(1 << 20, 16), 42);
        assert_eq!(m.world(), World::Normal);
        assert_eq!(m.cpsr.mode, Mode::Supervisor);
        assert!(m.cycles >= BOOT_COST);
    }

    #[test]
    fn attestation_key_is_seed_deterministic() {
        let (_, a) = boot(MonitorLayout::new(1 << 20, 16), 7);
        let (_, b) = boot(MonitorLayout::new(1 << 20, 16), 7);
        let (_, c) = boot(MonitorLayout::new(1 << 20, 16), 8);
        assert_eq!(a.attest_key(), b.attest_key());
        assert_ne!(a.attest_key(), c.attest_key());
    }

    #[test]
    fn reboot_equals_fresh_boot_bit_for_bit() {
        use komodo_armv7::mem::AccessAttrs;
        let layout = MonitorLayout::new(1 << 20, 16);
        let (mut m, _) = boot(layout.clone(), 3);
        // Dirty insecure RAM, secure RAM, and the cycle counter.
        m.mem.write(0x100, 5, AccessAttrs::NORMAL).unwrap();
        m.mem
            .write(layout.page_pa(2), 9, AccessAttrs::MONITOR)
            .unwrap();
        m.charge(1234);
        let mon = reboot(&mut m, layout.clone(), 7);
        let (fresh_m, fresh_mon) = boot(layout, 7);
        assert!(m == fresh_m, "reboot must equal a fresh boot");
        assert_eq!(mon.attest_key(), fresh_mon.attest_key());
    }

    #[test]
    fn secure_memory_invisible_to_normal_world() {
        use komodo_armv7::mem::AccessAttrs;
        let layout = MonitorLayout::new(1 << 20, 16);
        let (mut m, mon) = boot(layout, 1);
        let pa = mon.layout.page_pa(0);
        assert!(m.mem.read(pa, AccessAttrs::NORMAL).is_err());
        assert!(m.mem.read(pa, AccessAttrs::MONITOR).is_ok());
    }
}
