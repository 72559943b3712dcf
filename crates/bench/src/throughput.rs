//! Host-side simulator throughput: how many *simulated* instructions the
//! machine model retires per *host* second, in the two stepping
//! configurations (`komodo_armv7::dcache` and `komodo_armv7::uop`):
//!
//! - **uop** — the fetch accelerator with compiled blocks (the
//!   default): each block is compiled when it is built into a
//!   const-folded, dead-flag-eliminated, branch-fused micro-op trace with
//!   per-site inlined translations, and traces chain into each other;
//! - **base** — the uncached per-instruction interpreter.
//!
//! This measures wall-clock speed of the simulator itself, not simulated
//! cycles — the compiled tier is bit-for-bit neutral on the cycle model,
//! so the only observable difference is here. Each measurement runs the
//! same workload in both configurations from identical initial machines
//! and asserts the final architectural states (registers, flags, cycle
//! counter, TLB and memory statistics) are equal, making every benchmark
//! run double as a preservation check.

use komodo_armv7::insn::DpOp;
use komodo_armv7::regs::Reg;
use komodo_armv7::{Assembler, Cond, ExitReason, Insn, Machine, Op2, Word};
use komodo_guest::user::{CODE_VA, DATA_VA};
use komodo_trace::MetricsSnapshot;
use std::time::Instant;

/// The sandbox machine the workloads run on — re-exported from
/// `komodo_guest::user` (it moved there so the service node can drive
/// the same workloads without depending on the bench harness).
pub use komodo_guest::user::sandbox as guest;

/// Straight-line workload: a near-page-full run of data-processing
/// instructions, looped — long sequential fetch runs on one code page,
/// forming one near-page-sized block.
pub fn straight_line() -> Vec<Word> {
    let mut a = Assembler::new(CODE_VA);
    let top = a.label();
    for i in 0..900u32 {
        a.add_imm(Reg::R((i % 8) as u8), Reg::R((i % 8) as u8), 1);
    }
    a.b_to(Cond::Al, top);
    a.words()
}

/// Tight-loop workload: a four-instruction hot loop — the compiled trace
/// chains back into itself through its taken-branch link.
pub fn tight_loop() -> Vec<Word> {
    let mut a = Assembler::new(CODE_VA);
    a.mov_imm(Reg::R(0), 0);
    let top = a.label();
    a.add_imm(Reg::R(0), Reg::R(0), 1);
    a.eor_reg(Reg::R(1), Reg::R(1), Reg::R(0));
    a.b_to(Cond::Al, top);
    a.words()
}

/// Memory-mixing workload: loads and stores interleaved with ALU work.
/// The whole loop body forms a single memory-inclusive block whose
/// accesses go through its trace's per-site translations.
pub fn memory_loop() -> Vec<Word> {
    let mut a = Assembler::new(CODE_VA);
    a.mov_imm32(Reg::R(8), DATA_VA);
    let top = a.label();
    a.add_imm(Reg::R(0), Reg::R(0), 3);
    a.str_imm(Reg::R(0), Reg::R(8), 0);
    a.ldr_imm(Reg::R(1), Reg::R(8), 0);
    a.add_reg(Reg::R(2), Reg::R(2), Reg::R(1));
    a.b_to(Cond::Al, top);
    a.words()
}

/// Store-heavy workload: a hot loop that is mostly stores to one data
/// page — the worst case for any engine that ends traces at stores, and
/// a direct measure of the store half of the data-TLB hit path.
pub fn store_loop() -> Vec<Word> {
    let mut a = Assembler::new(CODE_VA);
    a.mov_imm32(Reg::R(8), DATA_VA);
    let top = a.label();
    a.add_imm(Reg::R(0), Reg::R(0), 1);
    a.str_imm(Reg::R(0), Reg::R(8), 0);
    a.str_imm(Reg::R(0), Reg::R(8), 4);
    a.str_imm(Reg::R(0), Reg::R(8), 8);
    a.str_imm(Reg::R(0), Reg::R(8), 12);
    a.b_to(Cond::Al, top);
    a.words()
}

/// Strided copy: word and byte loads/stores marching through four source
/// and four destination pages with a `0x404` stride, restarting when the
/// inner count runs out. Crosses page boundaries constantly, so the
/// direct-mapped data-TLB sees conflict misses and refills, not just
/// steady-state hits.
pub fn strided_copy() -> Vec<Word> {
    let mut a = Assembler::new(CODE_VA);
    let restart = a.label();
    a.mov_imm32(Reg::R(8), DATA_VA);
    a.mov_imm32(Reg::R(9), DATA_VA + 0x4000);
    a.mov_imm(Reg::R(7), 15);
    let inner = a.label();
    a.ldr_imm(Reg::R(0), Reg::R(8), 0);
    a.str_imm(Reg::R(0), Reg::R(9), 0);
    a.ldrb_imm(Reg::R(1), Reg::R(8), 5);
    a.strb_imm(Reg::R(1), Reg::R(9), 9);
    // Stride 0x404 is not an encodable rotated immediate: split it.
    a.add_imm(Reg::R(8), Reg::R(8), 0x400);
    a.add_imm(Reg::R(8), Reg::R(8), 4);
    a.add_imm(Reg::R(9), Reg::R(9), 0x400);
    a.add_imm(Reg::R(9), Reg::R(9), 4);
    a.subs_imm(Reg::R(7), Reg::R(7), 1);
    a.b_to(Cond::Ne, inner);
    a.b_to(Cond::Al, restart);
    a.words()
}

/// Mixed hot loop: loads, stores, a dead flag-setter, a live compare
/// steering a conditional add, and a fused compare-and-branch exit — one
/// iteration exercises every specialisation the micro-op compiler performs
/// (const folding via the hoisted base, dead-flag elimination on the
/// `ADDS`, compare+branch fusion on the `SUBS`/`BNE` pair, and inlined
/// data-TLB sites on the load and store).
pub fn hot_mixed() -> Vec<Word> {
    let mut a = Assembler::new(CODE_VA);
    a.mov_imm32(Reg::R(8), DATA_VA);
    let top = a.label();
    a.ldr_imm(Reg::R(1), Reg::R(8), 0);
    a.add_reg(Reg::R(0), Reg::R(0), Reg::R(1));
    a.str_imm(Reg::R(0), Reg::R(8), 4);
    // Flags die immediately at the CMP below: dead-flag elimination fodder.
    a.dp(DpOp::Add, true, Reg::R(2), Reg::R(2), Op2::imm(1));
    a.cmp_imm(Reg::R(2), 7);
    a.emit(Insn::Dp {
        cond: Cond::Eq,
        op: DpOp::Add,
        s: false,
        rd: Reg::R(3),
        rn: Reg::R(3),
        op2: Op2::imm(1),
    });
    a.eor_reg(Reg::R(4), Reg::R(4), Reg::R(0));
    a.subs_imm(Reg::R(5), Reg::R(5), 1);
    a.b_to(Cond::Ne, top);
    a.b_to(Cond::Al, top);
    a.words()
}

/// The named workloads the `sim_throughput` bench measures.
pub fn workloads() -> Vec<(&'static str, Vec<Word>)> {
    vec![
        ("straight_line", straight_line()),
        ("tight_loop", tight_loop()),
        ("memory_loop", memory_loop()),
        ("store_loop", store_loop()),
        ("strided_copy", strided_copy()),
        ("hot_mixed", hot_mixed()),
    ]
}

/// One workload's measurement in both configurations.
#[derive(Clone, Debug)]
pub struct Throughput {
    /// Workload name.
    pub name: &'static str,
    /// Simulated instructions retired per run.
    pub insns: u64,
    /// Host instructions/second compiled (the default configuration).
    pub uop_ips: f64,
    /// Host instructions/second on the uncached interpreter.
    pub base_ips: f64,
    /// Unified counter snapshot ([`Machine::metrics_snapshot`]) from the
    /// compiled run: block, trace, data-TLB, TLB and memory counters in
    /// one place.
    pub metrics: MetricsSnapshot,
}

impl Throughput {
    /// Compiled over baseline host throughput.
    pub fn uop_speedup(&self) -> f64 {
        self.uop_ips / self.base_ips
    }
}

fn timed_run(code: &[Word], steps: u64, accel: bool) -> (f64, Machine) {
    let mut m = guest(code);
    m.set_fetch_accel(accel);
    let t0 = Instant::now();
    let exit = m.run_user(steps).expect("workload violated model contract");
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(exit, ExitReason::StepLimit, "workloads must run to budget");
    (dt, m)
}

/// Best-of-N timing with the two configurations interleaved: each rep
/// times a compiled run, then a baseline run, so host-side noise
/// (frequency scaling, scheduling, cache warmup) hits both sides alike;
/// the fastest rep per side is kept. Every repeat produces the same final
/// machine — the simulator is deterministic — so any of them serves for
/// the preservation check.
fn best_of(reps: u32, code: &[Word], steps: u64) -> ((f64, Machine), (f64, Machine)) {
    let mut best_on = timed_run(code, steps, true);
    let mut best_off = timed_run(code, steps, false);
    for _ in 1..reps {
        let on = timed_run(code, steps, true);
        if on.0 < best_on.0 {
            best_on = on;
        }
        let off = timed_run(code, steps, false);
        if off.0 < best_off.0 {
            best_off = off;
        }
    }
    (best_on, best_off)
}

/// Measures one workload for `steps` simulated instructions in both
/// configurations, asserting the two final machines are architecturally
/// identical (the preservation guarantee: same registers, flags, cycle
/// counter, TLB statistics and memory access counters).
pub fn measure(name: &'static str, code: &[Word], steps: u64) -> Throughput {
    let ((dt_on, m_on), (dt_off, m_off)) = best_of(5, code, steps);
    assert!(
        m_on == m_off,
        "{name}: compiled traces changed architectural state"
    );
    Throughput {
        name,
        insns: steps,
        uop_ips: steps as f64 / dt_on.max(1e-9),
        base_ips: steps as f64 / dt_off.max(1e-9),
        metrics: m_on.metrics_snapshot(),
    }
}

/// Runs `code` in the default (compiled) configuration with the flight
/// recorder armed to `trace_cap` (0 =
/// disabled) and an IRQ scheduled early in the run. The interrupt is
/// taken, returned from, and the workload then runs to its step budget —
/// so the execution crosses exception entry/exit boundaries instead of
/// staying in straight user code, and a traced run has real events to
/// capture. Used by the trace-neutrality differential test.
pub fn run_with_interrupt(code: &[Word], steps: u64, trace_cap: usize) -> Machine {
    let mut m = guest(code);
    m.set_trace_capacity(trace_cap);
    m.irq_at = Some(500);
    let exit = m.run_user(steps).expect("workload violated model contract");
    assert_eq!(exit, ExitReason::Irq, "IRQ must preempt the workload");
    m.irq_at = None;
    m.exception_return().expect("IRQ mode has an SPSR");
    let exit = m.run_user(steps).expect("workload violated model contract");
    assert_eq!(exit, ExitReason::StepLimit, "workloads must run to budget");
    m
}

/// Paired host throughput of one workload in the default (compiled)
/// configuration with the flight recorder disabled vs armed, returned as
/// `(off_ips, on_ips)`. The workloads only cross recording sites at
/// boundary events (block builds, exceptions, flushes), so the two should
/// be indistinguishable — the `sim_throughput` bench gates the worst case
/// at the instrumentation overhead budget ([`crate::report::GATES`]).
///
/// Each of `reps` pairs times the disabled and armed recorder
/// back-to-back, and the pair with the median armed/disabled ratio is
/// returned. A sustained host slowdown (frequency step, noisy neighbour)
/// hits both halves of a pair roughly equally, so a pair's ratio cancels
/// it where independent best-of minima would compare times from
/// different host conditions; the median, unlike the minimum, does not
/// select the one pair whose noise happened to favour the armed half, so
/// a real armed-path cost shows in it.
pub fn trace_overhead(code: &[Word], steps: u64, reps: u32) -> (f64, f64) {
    let timed = |trace_cap: usize| -> f64 {
        let mut m = guest(code);
        m.set_trace_capacity(trace_cap);
        let t0 = Instant::now();
        let exit = m.run_user(steps).expect("workload violated model contract");
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(exit, ExitReason::StepLimit, "workloads must run to budget");
        dt.max(1e-9)
    };
    let mut pairs: Vec<(f64, f64)> = (0..reps.max(1))
        .map(|_| {
            let off = timed(0);
            (off, timed(4096))
        })
        .collect();
    pairs.sort_by(|a, b| (a.1 / a.0).total_cmp(&(b.1 / b.0)));
    let (off, on) = pairs[pairs.len() / 2];
    (steps as f64 / off, steps as f64 / on)
}

/// Measures every workload in [`workloads`].
pub fn measure_all(steps: u64) -> Vec<Throughput> {
    workloads()
        .into_iter()
        .map(|(name, code)| measure(name, &code, steps))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_run_and_preserve_state() {
        for (name, code) in workloads() {
            let t = measure(name, &code, 2_000);
            assert_eq!(t.insns, 2_000);
            assert!(t.uop_ips > 0.0 && t.base_ips > 0.0);
            assert!(
                t.metrics.sb_built > 0 && t.metrics.sb_hits > 0 && t.metrics.uop_hits > 0,
                "{name}: compiled traces never engaged"
            );
            if matches!(
                name,
                "memory_loop" | "store_loop" | "strided_copy" | "hot_mixed"
            ) {
                assert!(
                    t.metrics.dtlb_hits > 0,
                    "{name}: data-TLB fast path never engaged"
                );
            }
            // The measured (compiled) machine never had its recorder
            // armed; the snapshot must say so.
            assert_eq!(t.metrics.trace_capacity, 0);
            assert_eq!(t.metrics.trace_recorded, 0);
        }
    }

    #[test]
    fn tracing_is_architecturally_invisible_on_all_workloads() {
        for (name, code) in workloads() {
            let m_off = run_with_interrupt(&code, 2_000, 0);
            let m_on = run_with_interrupt(&code, 2_000, 1024);
            // Bit-for-bit: registers, flags, PC, cycle counter, TLB and
            // memory access counters (Machine equality covers them all).
            assert!(
                m_on == m_off,
                "{name}: tracing perturbed architectural state"
            );
            assert_eq!(m_off.trace.total_recorded(), 0);
            assert!(
                m_on.trace.total_recorded() > 0,
                "{name}: traced run captured nothing"
            );
            // The run crossed an exception boundary; both edges must be in
            // the capture, and stamps must be monotone.
            let evs: Vec<String> = m_on.trace.iter().map(|s| s.event.to_string()).collect();
            assert!(
                evs.iter().any(|e| e.starts_with("exn-entry irq")),
                "{name}: {evs:?}"
            );
            assert!(
                evs.iter().any(|e| e.starts_with("exn-exit")),
                "{name}: {evs:?}"
            );
            assert!(
                evs.iter().any(|e| e.starts_with("sb-build")),
                "{name}: {evs:?}"
            );
            let cycles: Vec<u64> = m_on.trace.iter().map(|s| s.cycle).collect();
            assert!(
                cycles.windows(2).all(|w| w[0] <= w[1]),
                "{name}: stamps not monotone: {cycles:?}"
            );
        }
    }
}
