//! The `BENCH_sim_throughput.json` document: one [`BenchReport`], one
//! serialiser ([`BenchReport::to_json`]), and the gate table
//! ([`GATES`]) a report must pass before the `sim_throughput` bench
//! writes it, so every committed document has passed the gates.
//!
//! Adding a metric means adding one entry to `workload_fields` or
//! `BenchReport::scalars`; gating it means adding one [`GATES`] row.
//! Every gate is a ratio between runs timed interleaved in one process:
//! absolute instructions/second on a shared host swing by up to 2×
//! between runs minutes apart, but the sides of one interleaved
//! measurement see the same host conditions.

use std::fmt;

use crate::throughput::Throughput;

/// The loop workloads the compiled tier targets; their geometric-mean
/// `uop_speedup` is gated as `loop_uop_speedup_geomean`.
const LOOP_WORKLOADS: [&str; 3] = ["tight_loop", "memory_loop", "store_loop"];

/// How a gate compares a report field with its threshold.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// The field must be at least the threshold.
    AtLeast,
    /// The field must be at most the threshold.
    AtMost,
}

impl Op {
    fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            Op::AtLeast => value >= threshold,
            Op::AtMost => value <= threshold,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Op::AtLeast => ">=",
            Op::AtMost => "<=",
        })
    }
}

/// One gate row: a field path (a top-level name such as
/// `trace_overhead_pct`, or `<workload>.<field>` such as
/// `memory_loop.uop_speedup`), the comparison, and the threshold.
pub type Gate = (&'static str, Op, f64);

/// The gates every written report has passed:
///
/// - the data-side fast path keeps memory loads and stores inside
///   compiled traces, so the memory-mixing loop runs at least 3.7× the
///   baseline (the speedup the superblock executor, since deleted,
///   reached on it without micro-op compilation);
/// - compiled traces run the loops they target at a geometric-mean
///   4.5× the baseline (1.3×, the margin micro-op compilation had to
///   keep over the superblock executor, times that executor's 3.46×);
/// - the armed flight recorder costs at most 2% of host throughput.
pub const GATES: &[Gate] = &[
    ("memory_loop.uop_speedup", Op::AtLeast, 3.7),
    ("loop_uop_speedup_geomean", Op::AtLeast, 4.5),
    ("trace_overhead_pct", Op::AtMost, 2.0),
];

/// One gate row evaluated against a report.
#[derive(Clone, Copy, Debug)]
pub struct GateCheck {
    /// The row that was checked.
    pub gate: Gate,
    /// The field's value, or `None` when the path does not resolve.
    pub value: Option<f64>,
}

impl GateCheck {
    /// Whether the row holds. A row whose field does not resolve fails,
    /// so renaming a workload or a field cannot silently disable a gate.
    pub fn passed(&self) -> bool {
        let (_, op, threshold) = self.gate;
        self.value.is_some_and(|v| op.holds(v, threshold))
    }
}

impl fmt::Display for GateCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (field, op, threshold) = self.gate;
        match self.value {
            Some(v) => write!(f, "{field} = {v:.2} (gate: {op} {threshold:.2})")?,
            None => write!(f, "{field} does not resolve (gate: {op} {threshold:.2})")?,
        }
        f.write_str(if self.passed() { ": ok" } else { ": FAILED" })
    }
}

/// One full `sim_throughput` run: what `BENCH_sim_throughput.json`
/// holds.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Cores the run could use (`std::thread::available_parallelism`).
    pub nproc: usize,
    /// `git describe --always --dirty` of the measured tree, or
    /// `unknown` outside a git checkout.
    pub git_rev: String,
    /// One row per workload, in [`crate::throughput::workloads`] order.
    pub workloads: Vec<Throughput>,
    /// Worst-case armed-recorder overhead across the workloads, percent.
    pub trace_overhead_pct: f64,
}

/// A numeric field: JSON name, value, decimals written. Counters pass
/// through `f64` exactly (a 50k-step run counts far below 2^53).
type Field = (&'static str, f64, usize);

/// Every per-workload field of the document, by JSON name.
fn workload_fields(t: &Throughput) -> [Field; 17] {
    let m = &t.metrics;
    [
        ("insns", t.insns as f64, 0),
        ("uop_ips", t.uop_ips, 0),
        ("base_ips", t.base_ips, 0),
        ("uop_speedup", t.uop_speedup(), 2),
        ("uop_promoted", m.uop_promoted as f64, 0),
        ("uop_hits", m.uop_hits as f64, 0),
        ("blocks_built", m.sb_built as f64, 0),
        ("block_hits", m.sb_hits as f64, 0),
        ("block_chained", m.sb_chained as f64, 0),
        ("block_invalidations", m.sb_invalidations() as f64, 0),
        ("block_inval_code_gen", m.sb_inval_code_gen as f64, 0),
        ("block_inval_toggle", m.sb_inval_toggle as f64, 0),
        ("dtlb_hits", m.dtlb_hits as f64, 0),
        ("dtlb_misses", m.dtlb_misses as f64, 0),
        ("dtlb_invalidations", m.dtlb_invalidations() as f64, 0),
        ("tlb_hits", m.tlb_hits as f64, 0),
        ("tlb_misses", m.tlb_misses as f64, 0),
    ]
}

/// `git describe --always --dirty`, accepted only if it is a plain
/// revision name (so it can never break the document's quoting).
fn describe_tree() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '.' | '_'))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

impl BenchReport {
    /// A report of `workloads` and the worst trace overhead, stamped
    /// with this host's core count and the measured tree's revision.
    pub fn stamped(workloads: Vec<Throughput>, trace_overhead_pct: f64) -> Self {
        BenchReport {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            git_rev: describe_tree(),
            workloads,
            trace_overhead_pct,
        }
    }

    /// Geometric mean of `uop_speedup` over [`LOOP_WORKLOADS`], or
    /// `None` if any of them is missing from the report.
    fn loop_uop_speedup_geomean(&self) -> Option<f64> {
        let mut log_sum = 0.0;
        for name in LOOP_WORKLOADS {
            let t = self.workloads.iter().find(|t| t.name == name)?;
            log_sum += t.uop_speedup().ln();
        }
        Some((log_sum / LOOP_WORKLOADS.len() as f64).exp())
    }

    /// The document's top-level numeric fields; `None` is written as
    /// `null`.
    fn scalars(&self) -> [(&'static str, Option<f64>, usize); 3] {
        [
            ("nproc", Some(self.nproc as f64), 0),
            ("trace_overhead_pct", Some(self.trace_overhead_pct), 2),
            (
                "loop_uop_speedup_geomean",
                self.loop_uop_speedup_geomean(),
                2,
            ),
        ]
    }

    /// Resolves a [`Gate`] field path to its unrounded value.
    fn field(&self, path: &str) -> Option<f64> {
        if let Some((workload, name)) = path.split_once('.') {
            let t = self.workloads.iter().find(|t| t.name == workload)?;
            return workload_fields(t)
                .into_iter()
                .find(|f| f.0 == name)
                .map(|f| f.1);
        }
        self.scalars()
            .into_iter()
            .find(|f| f.0 == path)
            .and_then(|f| f.1)
    }

    /// Evaluates every row of `gates` against this report.
    pub fn check(&self, gates: &[Gate]) -> Vec<GateCheck> {
        gates
            .iter()
            .map(|&gate| GateCheck {
                gate,
                value: self.field(gate.0),
            })
            .collect()
    }

    /// Renders the report as the `BENCH_sim_throughput.json` document
    /// (hand-rolled: the hermetic build has no JSON dependency).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"bench\": \"sim_throughput\",\n");
        s.push_str("  \"unit\": \"host_instructions_per_second\",\n");
        s.push_str(&format!("  \"git_rev\": \"{}\",\n", self.git_rev));
        for (name, value, decimals) in self.scalars() {
            match value {
                Some(v) => s.push_str(&format!("  \"{name}\": {v:.decimals$},\n")),
                None => s.push_str(&format!("  \"{name}\": null,\n")),
            }
        }
        s.push_str("  \"workloads\": [\n");
        for (i, t) in self.workloads.iter().enumerate() {
            s.push_str(&format!("    {{\"name\": \"{}\"", t.name));
            for (name, v, decimals) in workload_fields(t) {
                s.push_str(&format!(", \"{name}\": {v:.decimals$}"));
            }
            s.push_str(if i + 1 < self.workloads.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Renders the workloads as the EXPERIMENTS.md "Simulator
    /// throughput" table.
    pub fn to_markdown(&self) -> String {
        let mut s = String::from(
            "| workload | compiled insn/s | base insn/s | compiled/base |\n\
             |---|---:|---:|---:|\n",
        );
        for t in &self.workloads {
            s.push_str(&format!(
                "| {} | ~{}M | ~{}M | ~{:.2}× |\n",
                t.name,
                (t.uop_ips / 1e6).round() as u64,
                (t.base_ips / 1e6).round() as u64,
                t.uop_speedup(),
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use komodo_trace::MetricsSnapshot;

    /// A synthetic workload row: `uop` is a multiple of a 1M insn/s
    /// baseline.
    fn row(name: &'static str, uop: f64) -> Throughput {
        Throughput {
            name,
            insns: 1000,
            uop_ips: uop * 1e6,
            base_ips: 1e6,
            metrics: MetricsSnapshot {
                uop_promoted: 2,
                uop_hits: 30,
                sb_built: 2,
                sb_hits: 40,
                sb_chained: 38,
                sb_inval_code_gen: 1,
                sb_inval_toggle: 2,
                dtlb_hits: 7,
                dtlb_misses: 3,
                dtlb_inval_flush: 2,
                tlb_hits: 900,
                tlb_misses: 11,
                ..Default::default()
            },
        }
    }

    /// A report that passes every gate: loops at 6× the baseline, 0.5%
    /// trace overhead.
    fn passing() -> BenchReport {
        BenchReport {
            nproc: 2,
            git_rev: "abc1234".to_string(),
            workloads: vec![
                row("tight_loop", 6.0),
                row("memory_loop", 6.0),
                row("store_loop", 6.0),
            ],
            trace_overhead_pct: 0.5,
        }
    }

    fn failed_fields(r: &BenchReport, gates: &[Gate]) -> Vec<&'static str> {
        r.check(gates)
            .into_iter()
            .filter(|c| !c.passed())
            .map(|c| c.gate.0)
            .collect()
    }

    #[test]
    fn passing_report_passes_every_gate() {
        let r = passing();
        assert_eq!(r.field("memory_loop.uop_speedup"), Some(6.0));
        assert!((r.field("loop_uop_speedup_geomean").unwrap() - 6.0).abs() < 1e-12);
        assert_eq!(r.field("trace_overhead_pct"), Some(0.5));
        assert_eq!(failed_fields(&r, GATES), Vec::<&str>::new());
    }

    #[test]
    fn each_failing_row_is_reported_by_that_row() {
        // memory_loop at 3.6×: its own row fails, the geomean (5.06)
        // still holds.
        let mut r = passing();
        r.workloads[1] = row("memory_loop", 3.6);
        assert_eq!(failed_fields(&r, GATES), ["memory_loop.uop_speedup"]);

        // Every loop at 4.4×: the geomean fails, memory_loop's own row
        // still holds.
        let mut r = passing();
        for t in &mut r.workloads {
            *t = row(t.name, 4.4);
        }
        assert_eq!(failed_fields(&r, GATES), ["loop_uop_speedup_geomean"]);

        let mut r = passing();
        r.trace_overhead_pct = 2.01;
        assert_eq!(failed_fields(&r, GATES), ["trace_overhead_pct"]);
        let shown = r.check(GATES)[2].to_string();
        assert_eq!(shown, "trace_overhead_pct = 2.01 (gate: <= 2.00): FAILED");

        // A NaN (say, a zero-time division upstream) fails every op.
        let mut r = passing();
        r.trace_overhead_pct = f64::NAN;
        assert_eq!(failed_fields(&r, GATES), ["trace_overhead_pct"]);
    }

    #[test]
    fn a_row_whose_field_does_not_resolve_fails() {
        let r = passing();
        let typos: &[Gate] = &[
            ("memory_lop.uop_speedup", Op::AtLeast, 0.0),
            ("memory_loop.uop_sped", Op::AtLeast, 0.0),
            ("trace_overhead", Op::AtMost, 100.0),
        ];
        assert_eq!(failed_fields(&r, typos).len(), 3);
        assert!(r.check(typos)[0].to_string().contains("does not resolve"));

        // Dropping a loop workload leaves the geomean unresolved rather
        // than averaging over what is left.
        let mut r = passing();
        r.workloads.retain(|t| t.name != "store_loop");
        assert_eq!(r.loop_uop_speedup_geomean(), None);
        assert_eq!(failed_fields(&r, GATES), ["loop_uop_speedup_geomean"]);
        assert!(r.to_json().contains("\"loop_uop_speedup_geomean\": null"));
    }

    #[test]
    fn document_carries_every_field_and_balances() {
        let j = passing().to_json();
        for field in [
            "\"bench\": \"sim_throughput\"",
            "\"nproc\": 2,",
            "\"git_rev\": \"abc1234\"",
            "\"trace_overhead_pct\": 0.50",
            "\"loop_uop_speedup_geomean\": 6.00",
            "\"name\": \"tight_loop\"",
            "\"uop_ips\": 6000000",
            "\"base_ips\": 1000000",
            "\"uop_speedup\": 6.00",
            "\"uop_promoted\": 2",
            "\"uop_hits\": 30",
            "\"blocks_built\": 2",
            "\"block_hits\": 40",
            "\"block_chained\": 38",
            "\"block_invalidations\": 3",
            "\"block_inval_code_gen\": 1",
            "\"block_inval_toggle\": 2",
            "\"dtlb_hits\": 7",
            "\"dtlb_misses\": 3",
            "\"dtlb_invalidations\": 2",
            "\"tlb_hits\": 900",
            "\"tlb_misses\": 11",
        ] {
            assert!(j.contains(field), "missing {field} in\n{j}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        // Rows are comma-separated with no trailing comma.
        assert_eq!(j.matches("},\n").count(), 2);
        assert!(j.ends_with("}\n  ]\n}\n"));
    }

    #[test]
    fn markdown_rows_render_from_the_report() {
        let md = passing().to_markdown();
        assert!(md.contains("| tight_loop | ~6M | ~1M | ~6.00× |"));
        assert_eq!(md.lines().count(), 2 + 3);
    }

    #[test]
    fn stamped_reports_carry_host_facts() {
        let r = BenchReport::stamped(Vec::new(), 0.0);
        assert!(r.nproc >= 1);
        assert!(!r.git_rev.is_empty());
        assert!(r
            .to_json()
            .contains(&format!("\"git_rev\": \"{}\"", r.git_rev)));
    }
}
