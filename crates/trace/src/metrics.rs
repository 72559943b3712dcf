//! The unified metrics schema.
//!
//! Before this crate, the simulator's observability was three bespoke
//! surfaces read separately: `superblock_stats` (host block engine),
//! `dtlb_stats` (software data-TLB), and the raw `Tlb` / `PhysMem`
//! counters. [`MetricsSnapshot`] is the single schema they all fold
//! into; `Machine::metrics_snapshot` populates it and the bench JSON
//! emitter reads through it. The JSON rendering is hand-rolled (the
//! build is hermetic — no serde) in the same style as
//! `BENCH_sim_throughput.json`.

use core::fmt::Write as _;

/// One machine's counters at a point in time, across every layer:
/// architectural (cycles, memory, TLB), host-side accelerators
/// (compiled blocks, data-TLB), and the flight recorder itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Simulated cycle counter.
    pub cycles: u64,
    /// Architectural physical-memory reads.
    pub mem_reads: u64,
    /// Architectural physical-memory writes.
    pub mem_writes: u64,
    /// Architectural TLB hits.
    pub tlb_hits: u64,
    /// Architectural TLB misses (hardware walks).
    pub tlb_misses: u64,
    /// Architectural TLB flushes.
    pub tlb_flushes: u64,
    /// Blocks built, each compiled to its micro-op trace.
    pub sb_built: u64,
    /// Block dispatch hits.
    pub sb_hits: u64,
    /// Block chained dispatches (block-to-block without re-probe).
    pub sb_chained: u64,
    /// Block cache drops caused by code-generation bumps (self-modifying
    /// or newly written code).
    pub sb_inval_code_gen: u64,
    /// Block cache drops caused by switching the fetch accelerator on or
    /// off. A TLB flush, `TTBR0` load or page-table store keeps the
    /// blocks: it starts a new translation epoch, in which kept blocks
    /// are re-validated.
    pub sb_inval_toggle: u64,
    /// Data-TLB lookups served.
    pub dtlb_hits: u64,
    /// Data-TLB lookups that fell back to the exact path.
    pub dtlb_misses: u64,
    /// Data-TLB drops caused by TLB flushes.
    pub dtlb_inval_flush: u64,
    /// Data-TLB drops caused by `TTBR0` loads / page-table stores.
    pub dtlb_inval_ttbr: u64,
    /// Data-TLB drops caused by world switches.
    pub dtlb_inval_world: u64,
    /// Blocks compiled to micro-op traces. Every block is compiled when
    /// it is built, so this equals `sb_built`.
    pub uop_promoted: u64,
    /// Dispatches executed through a compiled micro-op trace.
    pub uop_hits: u64,
    /// Flight-recorder capacity (0 = disabled).
    pub trace_capacity: u64,
    /// Events recorded over the capture's lifetime.
    pub trace_recorded: u64,
    /// Events lost to ring wraparound.
    pub trace_dropped: u64,
}

impl MetricsSnapshot {
    /// Total block-cache invalidations across causes.
    pub fn sb_invalidations(&self) -> u64 {
        self.sb_inval_code_gen + self.sb_inval_toggle
    }

    /// Total data-TLB invalidations across causes.
    pub fn dtlb_invalidations(&self) -> u64 {
        self.dtlb_inval_flush + self.dtlb_inval_ttbr + self.dtlb_inval_world
    }

    /// The architectural projection: only the counters the cycle model
    /// defines (cycles, memory accesses, TLB activity), with every
    /// host-side accelerator and recorder counter zeroed. Runs of the
    /// same guest under different host stepping configurations must
    /// agree on this projection bit-for-bit — the differential harness
    /// compares snapshots through it.
    pub fn architectural(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            cycles: self.cycles,
            mem_reads: self.mem_reads,
            mem_writes: self.mem_writes,
            tlb_hits: self.tlb_hits,
            tlb_misses: self.tlb_misses,
            tlb_flushes: self.tlb_flushes,
            ..Default::default()
        }
    }

    /// Adds every counter of `other` into `self` — the cross-machine
    /// merge used by fleet aggregation. All fields sum, including
    /// `trace_capacity` (for an aggregate it reads as total ring
    /// capacity across the folded machines).
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        self.cycles += other.cycles;
        self.mem_reads += other.mem_reads;
        self.mem_writes += other.mem_writes;
        self.tlb_hits += other.tlb_hits;
        self.tlb_misses += other.tlb_misses;
        self.tlb_flushes += other.tlb_flushes;
        self.sb_built += other.sb_built;
        self.sb_hits += other.sb_hits;
        self.sb_chained += other.sb_chained;
        self.sb_inval_code_gen += other.sb_inval_code_gen;
        self.sb_inval_toggle += other.sb_inval_toggle;
        self.dtlb_hits += other.dtlb_hits;
        self.dtlb_misses += other.dtlb_misses;
        self.dtlb_inval_flush += other.dtlb_inval_flush;
        self.dtlb_inval_ttbr += other.dtlb_inval_ttbr;
        self.dtlb_inval_world += other.dtlb_inval_world;
        self.uop_promoted += other.uop_promoted;
        self.uop_hits += other.uop_hits;
        self.trace_capacity += other.trace_capacity;
        self.trace_recorded += other.trace_recorded;
        self.trace_dropped += other.trace_dropped;
    }

    /// Field-wise difference `self - earlier` (saturating at zero): the
    /// counters accrued *between* two snapshots of the same machine.
    /// The service node uses this to attribute a long-lived session
    /// machine's work to the individual requests that drove it.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            cycles: self.cycles.saturating_sub(earlier.cycles),
            mem_reads: self.mem_reads.saturating_sub(earlier.mem_reads),
            mem_writes: self.mem_writes.saturating_sub(earlier.mem_writes),
            tlb_hits: self.tlb_hits.saturating_sub(earlier.tlb_hits),
            tlb_misses: self.tlb_misses.saturating_sub(earlier.tlb_misses),
            tlb_flushes: self.tlb_flushes.saturating_sub(earlier.tlb_flushes),
            sb_built: self.sb_built.saturating_sub(earlier.sb_built),
            sb_hits: self.sb_hits.saturating_sub(earlier.sb_hits),
            sb_chained: self.sb_chained.saturating_sub(earlier.sb_chained),
            sb_inval_code_gen: self
                .sb_inval_code_gen
                .saturating_sub(earlier.sb_inval_code_gen),
            sb_inval_toggle: self.sb_inval_toggle.saturating_sub(earlier.sb_inval_toggle),
            dtlb_hits: self.dtlb_hits.saturating_sub(earlier.dtlb_hits),
            dtlb_misses: self.dtlb_misses.saturating_sub(earlier.dtlb_misses),
            dtlb_inval_flush: self
                .dtlb_inval_flush
                .saturating_sub(earlier.dtlb_inval_flush),
            dtlb_inval_ttbr: self.dtlb_inval_ttbr.saturating_sub(earlier.dtlb_inval_ttbr),
            dtlb_inval_world: self
                .dtlb_inval_world
                .saturating_sub(earlier.dtlb_inval_world),
            uop_promoted: self.uop_promoted.saturating_sub(earlier.uop_promoted),
            uop_hits: self.uop_hits.saturating_sub(earlier.uop_hits),
            // Capacity is a configuration, not an accrual: a fixed-size
            // ring would otherwise always delta to zero, hiding whether
            // tracing was on during the window.
            trace_capacity: self.trace_capacity,
            trace_recorded: self.trace_recorded.saturating_sub(earlier.trace_recorded),
            trace_dropped: self.trace_dropped.saturating_sub(earlier.trace_dropped),
        }
    }

    /// Renders the snapshot as a JSON object, `indent` spaces deep (the
    /// opening brace is not indented; nested lines are `indent + 2`).
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent + 2);
        let mut out = String::from("{\n");
        let fields: [(&str, u64); 23] = [
            ("cycles", self.cycles),
            ("mem_reads", self.mem_reads),
            ("mem_writes", self.mem_writes),
            ("tlb_hits", self.tlb_hits),
            ("tlb_misses", self.tlb_misses),
            ("tlb_flushes", self.tlb_flushes),
            ("sb_built", self.sb_built),
            ("sb_hits", self.sb_hits),
            ("sb_chained", self.sb_chained),
            ("sb_invalidations", self.sb_invalidations()),
            ("sb_inval_code_gen", self.sb_inval_code_gen),
            ("sb_inval_toggle", self.sb_inval_toggle),
            ("dtlb_hits", self.dtlb_hits),
            ("dtlb_misses", self.dtlb_misses),
            ("dtlb_invalidations", self.dtlb_invalidations()),
            ("dtlb_inval_flush", self.dtlb_inval_flush),
            ("dtlb_inval_ttbr", self.dtlb_inval_ttbr),
            ("dtlb_inval_world", self.dtlb_inval_world),
            ("uop_promoted", self.uop_promoted),
            ("uop_hits", self.uop_hits),
            ("trace_capacity", self.trace_capacity),
            ("trace_recorded", self.trace_recorded),
            ("trace_dropped", self.trace_dropped),
        ];
        for (i, (k, v)) in fields.iter().enumerate() {
            let comma = if i + 1 == fields.len() { "" } else { "," };
            let _ = writeln!(out, "{pad}\"{k}\": {v}{comma}");
        }
        let _ = write!(out, "{}}}", " ".repeat(indent));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_sum_per_cause_counters() {
        let s = MetricsSnapshot {
            sb_inval_code_gen: 2,
            sb_inval_toggle: 3,
            dtlb_inval_flush: 1,
            dtlb_inval_ttbr: 4,
            dtlb_inval_world: 5,
            ..Default::default()
        };
        assert_eq!(s.sb_invalidations(), 5);
        assert_eq!(s.dtlb_invalidations(), 10);
    }

    #[test]
    fn delta_since_inverts_absorb() {
        let base = MetricsSnapshot {
            cycles: 100,
            mem_reads: 10,
            tlb_hits: 5,
            trace_capacity: 256,
            trace_recorded: 40,
            ..Default::default()
        };
        let step = MetricsSnapshot {
            cycles: 23,
            mem_reads: 4,
            dtlb_hits: 9,
            trace_capacity: 256,
            trace_recorded: 6,
            ..Default::default()
        };
        let mut later = base;
        later.absorb(&step);
        later.trace_capacity = 256; // capacity is config, not an accrual
        let d = later.delta_since(&base);
        assert_eq!(d.cycles, 23);
        assert_eq!(d.mem_reads, 4);
        assert_eq!(d.dtlb_hits, 9);
        assert_eq!(d.trace_recorded, 6);
        assert_eq!(d.trace_capacity, 256, "capacity carries, not deltas");
        // Saturates rather than wrapping if counters ever regress.
        let d = base.delta_since(&later);
        assert_eq!(d.cycles, 0);
    }

    #[test]
    fn json_has_every_field_once_and_no_trailing_comma() {
        let s = MetricsSnapshot {
            cycles: 123,
            tlb_hits: 7,
            ..Default::default()
        };
        let j = s.to_json(0);
        for key in [
            "cycles",
            "mem_reads",
            "mem_writes",
            "tlb_hits",
            "tlb_misses",
            "tlb_flushes",
            "sb_built",
            "sb_hits",
            "sb_chained",
            "sb_invalidations",
            "sb_inval_code_gen",
            "sb_inval_toggle",
            "dtlb_hits",
            "dtlb_misses",
            "dtlb_invalidations",
            "dtlb_inval_flush",
            "dtlb_inval_ttbr",
            "dtlb_inval_world",
            "uop_promoted",
            "uop_hits",
            "trace_capacity",
            "trace_recorded",
            "trace_dropped",
        ] {
            assert_eq!(
                j.matches(&format!("\"{key}\":")).count(),
                1,
                "field {key} in {j}"
            );
        }
        assert!(j.contains("\"cycles\": 123"));
        assert!(!j.contains(",\n}"), "{j}");
        assert!(j.ends_with('}'), "{j}");
    }
}
