//! Benchmark harnesses for the paper's evaluation (§8).
//!
//! One regenerating target per table/figure:
//!
//! | Paper artifact | Harness |
//! |---|---|
//! | Table 2 (line counts) | `cargo run -p komodo-bench --bin table2_linecount` |
//! | Table 3 (microbenchmarks) | `cargo run -p komodo-bench --bin table3` |
//! | Figure 5 (notary) | `cargo run --release -p komodo-bench --bin fig5_notary` |
//! | §8.1 SGX comparison | `cargo run -p komodo-bench --bin sgx_compare` |
//! | §7.3 evolution claim | `cargo run -p komodo-bench --bin evolution` |
//!
//! plus the optimisation-ablation bench for the §8.1 discussion
//! (`cargo bench -p komodo-bench --bench ablation`).
//!
//! Beyond the paper, one harness per question:
//!
//! | Question | Harness |
//! |---|---|
//! | Simulator host throughput per stepping configuration; the only writer of `BENCH_sim_throughput.json` ([`report`]) | `cargo bench -p komodo-bench --bench sim_throughput` |
//! | Ingestion conservation at 10⁶ requests under backpressure | `cargo run --release -p komodo-bench --bin ingest_smoke` |
//! | Chaos campaign: oracles green, fault mix, shard-count determinism, planted bug caught and shrunk | `cargo run --release -p komodo-bench --bin chaos_smoke` |
//! | The service node end to end (handshakes, attestation, session traffic) | `svcbench/` (declared in `BENCHMARK.json`) |
//!
//! Cycle numbers are *simulated* cycles from the machine model's cost
//! schedule; the harness prints the paper's measured numbers alongside so
//! the shape (ordering, rough ratios) can be compared directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod micro;
pub mod notary;
pub mod report;
pub mod throughput;

/// Clock frequency of the paper's evaluation platform (Raspberry Pi 2,
/// 900 MHz Cortex-A7) — used to convert simulated cycles to time.
pub const PI2_HZ: f64 = 900.0e6;

/// Converts simulated cycles to milliseconds at the Pi 2 clock.
pub fn cycles_to_ms(cycles: u64) -> f64 {
    cycles as f64 / PI2_HZ * 1e3
}

/// Prints a two-column (paper vs measured) comparison row.
pub fn print_row(name: &str, paper: &str, measured: u64, note: &str) {
    println!("{name:<28} {paper:>12} {measured:>14} {note}");
}
