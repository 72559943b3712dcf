//! Ablation bench for the §8.1 optimisation discussion.
//!
//! "The prototype monitor is entirely unoptimised. It conservatively saves
//! and restores every non-volatile register ... it also saves and restores
//! every banked register, although some are known to be preserved, and
//! flushes the TLB, although this could be avoided for repeated invocation
//! of the same enclave. These are all optimisations that we aim to add,
//! but only after proving their correctness."
//!
//! This bench toggles the two modelled optimisation knobs and prints the
//! simulated cycles of a warm crossing under all four settings,
//! quantifying the headroom the authors describe; every crossing must
//! exit 0. Its output depends only on the simulation, so two runs print
//! byte-identical tables.

use komodo::{Platform, PlatformConfig};
use komodo_guest::progs;
use komodo_os::EnclaveRun;

fn crossing_cycles(conservative: bool, flush: bool) -> u64 {
    let mut p = Platform::with_config(
        PlatformConfig::default()
            .with_insecure_size(1 << 20)
            .with_npages(64)
            .with_seed(3),
    );
    p.monitor.conservative_save = conservative;
    p.monitor.always_flush_tlb = flush;
    let e = p.load(&progs::null_enclave()).unwrap();
    // Warm crossing (second entry: TLB may stay warm when flushes are
    // elided, since the same enclave re-enters).
    assert_eq!(p.enter(&e, 0, [0; 3]), EnclaveRun::Exited(0));
    let before = p.machine.cycles;
    assert_eq!(p.enter(&e, 0, [0; 3]), EnclaveRun::Exited(0));
    p.machine.cycles - before
}

fn main() {
    println!("Ablation (simulated cycles, warm repeated crossing):");
    for (name, cons, flush) in [
        ("baseline (conservative+flush)", true, true),
        ("no banked save/restore", false, true),
        ("no unconditional TLB flush", true, false),
        ("both optimisations", false, false),
    ] {
        println!("  {name:<32} {:>6}", crossing_cycles(cons, flush));
    }
}
