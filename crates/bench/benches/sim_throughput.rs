//! Host wall-time throughput of the simulator hot path in the two
//! stepping configurations — compiled micro-op traces and the uncached
//! baseline interpreter (see `komodo_armv7::dcache`, `komodo_armv7::uop`
//! and `komodo_bench::throughput`).
//!
//! Run with `cargo bench -p komodo-bench --bench sim_throughput`. It
//! measures 50k simulated instructions per workload and configuration,
//! asserts both final machines are architecturally identical per
//! workload, times the armed flight recorder against the disabled one,
//! and builds one [`BenchReport`]. The report must pass every row of
//! [`GATES`] before it is written to `BENCH_sim_throughput.json` at the
//! repository root; a failed row panics, so the bench exits non-zero
//! and nothing is written.

use komodo_bench::report::{BenchReport, GATES};
use komodo_bench::throughput::{measure_all, trace_overhead, workloads};

/// Simulated instructions per workload run.
const STEPS: u64 = 50_000;

fn main() {
    // measure_all asserts compiled == baseline final machines for every
    // workload.
    let results = measure_all(STEPS);
    println!(
        "machine-equality check: {} workloads x 2 configurations verified identical",
        results.len()
    );

    // Flight-recorder overhead: armed tracing against the disabled
    // recorder on every workload. Recording only happens at boundary
    // events (block builds, exceptions, flushes), so the hot loop's only
    // cost is carrying the instrumentation at all. Chained compiled
    // traces retire 50k steps in a couple hundred microseconds,
    // inside scheduler jitter, so this check times 1M steps to get a
    // millisecond-scale region a 2% difference shows in, and takes the
    // median of 101 pairs: with 9 pairs, or with longer runs, host
    // noise alone moved some workload's median past 2% in some runs
    // (EXPERIMENTS.md). The median pair's overhead is reported signed:
    // below zero, the armed run was the faster one of that pair.
    let overhead_steps: u64 = 1_000_000;
    let mut worst = f64::NEG_INFINITY;
    for (name, code) in workloads() {
        let (off_ips, on_ips) = trace_overhead(&code, overhead_steps, 101);
        let overhead_pct = ((off_ips / on_ips) - 1.0) * 100.0;
        worst = worst.max(overhead_pct);
        println!(
            "trace overhead: {name} traced-off {off_ips:.0} insn/s, traced-on {on_ips:.0} insn/s \
             ({overhead_pct:.2}% overhead)"
        );
    }

    let report = BenchReport::stamped(results, worst);
    println!();
    println!(
        "{STEPS} simulated instructions per workload, nproc {}, git {}:",
        report.nproc, report.git_rev
    );
    print!("{}", report.to_markdown());
    println!();
    let checks = report.check(GATES);
    for check in &checks {
        println!("gate {check}");
    }
    assert!(
        checks.iter().all(|c| c.passed()),
        "BENCH_sim_throughput.json not written: a gate failed"
    );
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sim_throughput.json");
    std::fs::write(&path, report.to_json())
        .unwrap_or_else(|err| panic!("could not write {}: {err}", path.display()));
    println!("wrote {}", path.display());
}
