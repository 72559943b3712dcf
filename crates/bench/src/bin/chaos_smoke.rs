//! Chaos campaign smoke: the fault-injection harness at scale, gated.
//!
//! Three checks, each asserted (a failure exits non-zero) and then
//! printed as a verdict line:
//!
//! 1. **Scale + oracles.** A seeded campaign (10k cases by default, 1k
//!    under `KOMODO_BENCH_QUICK=1`) fans across 4 fleet shards; every
//!    case must pass both the noninterference and the refinement
//!    oracle against the correct monitor, and every fault kind must
//!    have been injected.
//! 2. **Determinism.** The identical campaign re-runs single-sharded;
//!    the two verdict digests must match bit-for-bit — case outcomes
//!    depend only on `(master seed, case index)`, never on scheduling.
//! 3. **Oracle validation.** The same campaign against a monitor with a
//!    deliberately planted register-scrub bug must *fail*; the first
//!    failing case is then delta-debugged to a minimal schedule, which
//!    must still fail when re-run from scratch.

use komodo::Platform;
use komodo_chaos::schedule::{CaseSpec, Fault};
use komodo_chaos::{
    run_campaign, run_case_spec, shrink_case, CampaignConfig, CampaignReport, ChaosConfig,
};
use komodo_monitor::PlantedBugs;

/// Master seed for the smoke's campaigns — fixed so the verdict digest
/// is reproducible on any host.
const CHAOS_SEED: u64 = 0xc4a0_5eed;

/// `cases` seeded fault-injection cases fanned across `shards` fleet
/// shards under the default chaos config.
fn campaign(cases: u64, shards: usize) -> CampaignReport {
    run_campaign(&CampaignConfig {
        master_seed: CHAOS_SEED,
        cases,
        shards,
        ..CampaignConfig::default()
    })
}

fn main() {
    let quick = std::env::var("KOMODO_BENCH_QUICK").is_ok_and(|v| v == "1");
    let cases: u64 = if quick { 1_000 } else { 10_000 };

    // (1) Scale: the full campaign on 4 shards.
    println!("chaos campaign: {cases} cases, master seed {CHAOS_SEED:#x}, 4 shards");
    let wide = campaign(cases, 4);
    println!(
        "  {} passed / {} cases, {} faults injected over {} slots, {:.0} cases/s",
        wide.passed,
        wide.cases,
        wide.injected.iter().sum::<u64>(),
        wide.slots,
        wide.cases_per_sec()
    );
    println!("  fault mix: {}", wide.fault_mix_line());
    for f in &wide.failures {
        println!(
            "  FAILURE case {} seed {:#x}: {}",
            f.index,
            f.seed,
            f.verdict.name()
        );
    }
    assert!(
        wide.all_green(),
        "oracle violations against correct monitor"
    );
    for (kind, &n) in wide.injected.iter().enumerate() {
        assert!(
            n > 0,
            "fault kind {} never injected in {} cases",
            Fault::kind_name(kind as u8),
            wide.cases
        );
    }
    println!(
        "chaos smoke ok: {} cases, 0 oracle violations, all {} fault kinds injected",
        wide.cases,
        Fault::KINDS
    );

    // (2) Determinism: same campaign, one shard, digest must match.
    let narrow = campaign(cases, 1);
    assert_eq!(
        wide.verdict_digest, narrow.verdict_digest,
        "verdict digest changed with shard count"
    );
    assert_eq!(wide.passed, narrow.passed);
    assert_eq!(wide.injected, narrow.injected);
    println!(
        "chaos determinism ok: digest {}.. identical at 1 and 4 shards",
        &wide.verdict_digest[..16]
    );

    // (3) Oracle validation: a planted bug must be caught and shrunk.
    let buggy = ChaosConfig {
        planted: PlantedBugs {
            leak_regs_on_interrupt: true,
            ..PlantedBugs::default()
        },
        ..ChaosConfig::default()
    };
    let report = run_campaign(&CampaignConfig {
        master_seed: CHAOS_SEED,
        cases: if quick { 200 } else { 1_000 },
        shards: 4,
        chaos: buggy.clone(),
        ..CampaignConfig::default()
    });
    assert!(
        !report.all_green(),
        "planted register-scrub bug escaped a {}-case campaign",
        report.cases
    );
    let first = &report.failures[0];
    println!(
        "chaos planted-bug: case {} seed {:#x} failed ({}) out of {} cases",
        first.index,
        first.seed,
        first.verdict.name(),
        report.cases
    );

    let case = CaseSpec::generate(first.seed);
    let mut p = Platform::with_config(buggy.platform.clone());
    let shrunk = shrink_case(&mut p, &buggy, &case).expect("failing case must shrink");
    println!(
        "  shrunk {} -> {} faults in {} probes",
        case.faults.len(),
        shrunk.minimal.faults.len(),
        shrunk.probes
    );
    print!("{}", shrunk.minimal);
    // The minimal schedule reproduces from scratch.
    let again = run_case_spec(&mut p, &buggy, &shrunk.minimal);
    assert_eq!(again.verdict.code(), shrunk.report.verdict.code());
    assert!(again.verdict.is_failure());
    println!(
        "chaos shrink ok: minimal schedule has {} faults and reproduces ({})",
        shrunk.minimal.faults.len(),
        again.verdict.name()
    );
}
