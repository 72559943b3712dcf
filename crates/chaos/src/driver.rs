//! The chaos driver: runs one seeded case against a [`Platform`] and
//! judges it with the NI and refinement oracles.
//!
//! A case runs **twice** on the same platform — pass A and pass B differ
//! only in the victim enclave's secret. Both passes execute the
//! identical backbone and fault schedule, so by Komodo's noninterference
//! theorem everything the OS can observe must be bit-for-bit identical
//! between them: the register file after every burst, every call result,
//! the cycle counter, and finally all insecure RAM. Any divergence is a
//! secret leak. Independently, the refinement oracle abstracts the final
//! concrete memory into the specification [`komodo_spec::PageDb`] and
//! checks its invariants — fault-path state corruption surfaces here
//! even when nothing leaks.
//!
//! The two-pass design (rather than two live platforms) is what lets a
//! fleet shard run cases on one pooled platform: pass B starts from
//! [`Platform::reset_with_seed`], which is verified bit-for-bit equal to
//! a fresh boot.

use komodo::{GuestSegment, Image, Platform, PlatformConfig};
use komodo_armv7::mem::AccessAttrs;
use komodo_armv7::mode::Mode;
use komodo_armv7::regs::{Bank, Reg};
use komodo_armv7::{Assembler, Cond, Machine};
use komodo_crypto::{Digest, Sha256};
use komodo_monitor::PlantedBugs;
use komodo_ni::concrete::adversary_view;
use komodo_ni::report::side_by_side_tails;
use komodo_os::EnclaveRun;
use komodo_spec::invariants::pagedb_violations;
use komodo_trace::{Event, FlightRecorder};

use crate::schedule::{CaseSpec, Fault, Target, Tier};

/// Victim secret in pass A. Chosen so no backbone value collides with
/// either secret.
pub const SECRET_A: u32 = 0x5ec7_a111;
/// Victim secret in pass B.
pub const SECRET_B: u32 = 0x5ec7_b222;

const CODE_VA: u32 = 0x8000;
const DATA_VA: u32 = 0x9000;
/// Worker countdown iterations: long enough that most armed interrupts
/// land mid-burst.
const WORKER_ITERS: u32 = 1200;
/// Victim busy-loop iterations while the secret is live in r5–r7.
const VICTIM_WINDOW: u32 = 400;

/// How the driver runs cases: platform shape, planted bugs, and failure
/// reporting depth.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Platform parameters for case execution. The default is smaller
    /// than [`PlatformConfig::default`] — the NI oracle hashes all
    /// insecure RAM once per pass, so campaign throughput scales with
    /// this size.
    pub platform: PlatformConfig,
    /// Deliberately planted monitor bugs (oracle validation; default
    /// none).
    pub planted: PlantedBugs,
    /// Flight-recorder capacity while a case runs (0 disables tracing).
    pub trace_capacity: usize,
    /// Flight-recorder tail depth in failure reports — deliberately
    /// deeper than [`Platform::DEFAULT_FLIGHT_DUMP_TAIL`]; a chaos
    /// failure's cause is often many faults back.
    pub deep_tail: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            platform: PlatformConfig::default()
                .with_insecure_size(1 << 18)
                .with_npages(64),
            planted: PlantedBugs::default(),
            trace_capacity: 512,
            deep_tail: 96,
        }
    }
}

/// The oracle verdict for one case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// All oracles held.
    Pass,
    /// Noninterference violation: the OS-observable state diverged
    /// between the secret-A and secret-B passes.
    Ni {
        /// Backbone slot at which the divergence was detected
        /// (`u32::MAX` = only the final state diverged).
        slot: u32,
        /// What diverged (cycles, outcome, registers, final view).
        detail: String,
        /// Side-by-side flight-recorder tails of both passes (empty
        /// when tracing was off).
        report: String,
    },
    /// Refinement/invariant violation: the final concrete state does
    /// not abstract to a valid specification PageDb.
    Invariant {
        /// The invariant checker's findings.
        violations: Vec<String>,
    },
    /// The monitor panicked (the executable analogue of a failed
    /// verification condition).
    MonitorFault {
        /// The panic message.
        message: String,
    },
}

impl Verdict {
    /// Stable code for campaign digests: 0 pass, 1 NI, 2 invariant,
    /// 3 monitor fault.
    pub fn code(&self) -> u32 {
        match self {
            Verdict::Pass => 0,
            Verdict::Ni { .. } => 1,
            Verdict::Invariant { .. } => 2,
            Verdict::MonitorFault { .. } => 3,
        }
    }

    /// Whether this verdict is a failure.
    pub fn is_failure(&self) -> bool {
        !matches!(self, Verdict::Pass)
    }

    /// Short stable name.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Ni { .. } => "ni-violation",
            Verdict::Invariant { .. } => "invariant-violation",
            Verdict::MonitorFault { .. } => "monitor-fault",
        }
    }
}

/// Everything a case run reports.
#[derive(Clone, Debug)]
pub struct CaseReport {
    /// Campaign job index (`u64::MAX` when run standalone).
    pub index: u64,
    /// The case seed (regenerate with [`CaseSpec::generate`]).
    pub seed: u64,
    /// Execution tier the case ran on.
    pub tier: Tier,
    /// Backbone length.
    pub slots: u32,
    /// Injected faults by kind code.
    pub injected: [u32; Fault::KINDS],
    /// Pass-A cycle count at case end (0 if the pass died early).
    pub cycles: u64,
    /// The oracle verdict.
    pub verdict: Verdict,
}

/// One backbone slot's OS-observable outcome.
#[derive(Clone, PartialEq, Eq)]
struct SlotObs {
    cycles: u64,
    /// Burst outcome: tag (1 exited, 2 interrupted, 3 faulted,
    /// 4 refused) and value (exit value / error code).
    tag: u32,
    val: u32,
    /// Fault-op observables (SMC error codes, churn/destroy results).
    aux: (u32, u32),
    /// Digest of the OS-visible register file (the cheap per-slot NI
    /// probe; insecure RAM is hashed once at case end).
    regs: Digest,
}

struct PassObs {
    slots: Vec<SlotObs>,
    final_cycles: u64,
    final_view: Digest,
    violations: Vec<String>,
    trace: FlightRecorder,
}

/// Runs the case derived from `seed` on `p` (standalone entry point —
/// campaigns use the same path with the fleet's per-job seed).
pub fn run_case(p: &mut Platform, cfg: &ChaosConfig, seed: u64) -> CaseReport {
    run_case_spec(p, cfg, &CaseSpec::generate(seed))
}

/// Runs a fully-specified case (the shrinker's entry point: backbone
/// from the seed, schedule possibly reduced).
pub fn run_case_spec(p: &mut Platform, cfg: &ChaosConfig, spec: &CaseSpec) -> CaseReport {
    run_case_spec_with(p, cfg, spec, cfg.trace_capacity)
}

/// [`run_case_spec`] with tracing off — the shrinker probes with this so
/// reduction attempts don't emit flight dumps.
pub fn run_case_spec_quiet(p: &mut Platform, cfg: &ChaosConfig, spec: &CaseSpec) -> CaseReport {
    run_case_spec_with(p, cfg, spec, 0)
}

fn run_case_spec_with(
    p: &mut Platform,
    cfg: &ChaosConfig,
    spec: &CaseSpec,
    trace_capacity: usize,
) -> CaseReport {
    let mut report = CaseReport {
        index: u64::MAX,
        seed: spec.seed,
        tier: spec.tier,
        slots: spec.targets.len() as u32,
        injected: spec.fault_mix(),
        cycles: 0,
        verdict: Verdict::Pass,
    };

    let a = match run_pass(p, cfg, spec, SECRET_A, trace_capacity) {
        Ok(a) => a,
        Err(message) => {
            report.verdict = Verdict::MonitorFault { message };
            return report;
        }
    };
    report.cycles = a.final_cycles;
    let b = match run_pass(p, cfg, spec, SECRET_B, trace_capacity) {
        Ok(b) => b,
        Err(message) => {
            report.verdict = Verdict::MonitorFault { message };
            return report;
        }
    };

    if let Some((slot, detail)) = first_divergence(&a, &b) {
        let trace_report = if trace_capacity > 0 {
            side_by_side_tails("secret-A", &a.trace, "secret-B", &b.trace, cfg.deep_tail)
        } else {
            String::new()
        };
        report.verdict = Verdict::Ni {
            slot,
            detail,
            report: trace_report,
        };
        return report;
    }

    // Passes agree; check the refinement oracle (identical in both by
    // the comparison above having covered the whole observable state —
    // but a violation in either is a monitor bug regardless).
    let mut violations = a.violations;
    for v in b.violations {
        if !violations.contains(&v) {
            violations.push(v);
        }
    }
    if !violations.is_empty() {
        report.verdict = Verdict::Invariant { violations };
    }
    report
}

/// One pass of the case. Returns the observation stream, or the panic
/// message if the monitor faulted.
fn run_pass(
    p: &mut Platform,
    cfg: &ChaosConfig,
    spec: &CaseSpec,
    secret: u32,
    trace_capacity: usize,
) -> Result<PassObs, String> {
    p.reset_with_seed(spec.seed);
    if trace_capacity > 0 {
        p.set_trace(trace_capacity);
        p.set_flight_dump_tail(cfg.deep_tail);
    }
    p.monitor.planted = cfg.planted;
    apply_tier(&mut p.machine, spec.tier);

    let body = std::panic::AssertUnwindSafe(|| run_pass_body(p, spec, secret));
    match std::panic::catch_unwind(body) {
        Ok(obs) => Ok(obs),
        Err(payload) => Err(komodo_fleet::panic_message(payload)),
    }
}

fn run_pass_body(p: &mut Platform, spec: &CaseSpec, secret: u32) -> PassObs {
    let victim = p
        .load_with(&victim_image(), 1, 2)
        .expect("victim enclave builds");
    let worker = p.load(&worker_image()).expect("worker enclave builds");
    let default_budget = p.monitor.step_budget;
    let insecure_words = p.monitor.layout.insecure_size / 4;

    let mut victim_alive = true;
    let mut victim_susp = false;
    let mut worker_susp = false;
    let mut slots = Vec::with_capacity(spec.targets.len());

    for (i, target) in spec.targets.iter().enumerate() {
        let mut aux = (0u32, 0u32);
        let mut entry_xor: Option<(u8, u32)> = None;
        if let Some((_, fault)) = spec.faults.iter().find(|(s, _)| *s == i) {
            p.machine.trace.record(
                p.machine.cycles,
                Event::ChaosInject {
                    kind: fault.kind_code(),
                    arg: fault.arg(),
                },
            );
            match *fault {
                Fault::IrqWithin { delta } => {
                    p.machine.schedule_irq_in(delta);
                }
                Fault::FiqWithin { delta } => {
                    p.machine.schedule_fiq_in(delta);
                }
                Fault::StepBudget { steps } => {
                    p.monitor.step_budget = steps;
                }
                Fault::BadSmc { call } => {
                    let r = p.monitor.smc(&mut p.machine, call, [0xffff_ffff; 4]);
                    aux = (r.err.code(), r.retval);
                }
                Fault::PageChurn => {
                    aux = churn(p);
                }
                Fault::DestroyUnderLoad => {
                    if victim_alive {
                        aux = match p.destroy(&victim) {
                            Ok(()) => (0, 0),
                            Err(e) => (1, e.code()),
                        };
                        victim_alive = false;
                        victim_susp = false;
                    } else {
                        aux = (2, 0);
                    }
                }
                Fault::RegPerturb { reg, val } => {
                    p.machine.set_reg(Reg::R(reg), val);
                }
                Fault::MemPerturb { word, val } => {
                    let pa = (word % insecure_words) * 4;
                    let ok = p.machine.mem.write(pa, val, AccessAttrs::NORMAL).is_ok();
                    aux = (u32::from(ok), 0);
                }
                Fault::EntryPerturb { arg, val } => {
                    // Applied at the enter below; a resumed burst has no
                    // entry arguments to tamper with.
                    entry_xor = Some((arg % 3, val));
                }
            }
        }

        let perturbed = |mut args: [u32; 3]| {
            if let Some((a, v)) = entry_xor {
                args[a as usize] ^= v;
            }
            args
        };
        let run = match target {
            Target::Worker => {
                if worker_susp {
                    p.resume(&worker, 0)
                } else {
                    p.enter(&worker, 0, perturbed([WORKER_ITERS, 0, 0]))
                }
            }
            Target::Victim => {
                if victim_susp {
                    p.resume(&victim, 0)
                } else {
                    p.enter(&victim, 0, perturbed([0, secret, 0]))
                }
            }
        };
        let (tag, val) = encode_run(run);
        match target {
            Target::Worker => worker_susp = run == EnclaveRun::Interrupted,
            Target::Victim => victim_susp = victim_alive && run == EnclaveRun::Interrupted,
        }
        p.machine.clear_pending_interrupts();
        p.monitor.step_budget = default_budget;

        slots.push(SlotObs {
            cycles: p.cycles(),
            tag,
            val,
            aux,
            regs: reg_digest(&p.machine),
        });
    }

    // No teardown: the next pass/case resets the platform, and leaving
    // the enclaves live means the refinement oracle also checks the
    // mid-flight PageDb shape, not just the post-destroy one.
    let final_cycles = p.cycles();
    let final_view = adversary_view(&p.machine, &p.monitor.layout);
    let violations = invariant_violations(p);
    PassObs {
        slots,
        final_cycles,
        final_view,
        violations,
        trace: p.machine.trace.clone(),
    }
}

/// Builds and immediately destroys a single-page throwaway enclave —
/// page churn that recycles secure pages (and a PageDb build/teardown
/// cycle) in the middle of the victim's lifetime.
fn churn(p: &mut Platform) -> (u32, u32) {
    match p.load(&churn_image()) {
        Ok(enc) => match p.destroy(&enc) {
            Ok(()) => (0, 0),
            Err(e) => (1, e.code()),
        },
        Err(e) => (2, e.code()),
    }
}

/// Abstraction + invariant check of the platform's current state. A
/// panic inside `abstract_pagedb` means the concrete state is not even
/// abstractable — itself a refinement violation, reported as such
/// rather than as a crash.
fn invariant_violations(p: &mut Platform) -> Vec<String> {
    let machine = &mut p.machine;
    let layout = p.monitor.layout.clone();
    let body = std::panic::AssertUnwindSafe(move || {
        komodo_monitor::abs::abstract_pagedb(machine, &layout)
    });
    match std::panic::catch_unwind(body) {
        Ok(db) => pagedb_violations(&db, &p.monitor.params),
        Err(payload) => vec![format!(
            "abstract_pagedb panicked (state unabstractable): {}",
            komodo_fleet::panic_message(payload)
        )],
    }
}

fn apply_tier(m: &mut Machine, tier: Tier) {
    m.set_fetch_accel(tier == Tier::Compiled);
}

fn encode_run(r: EnclaveRun) -> (u32, u32) {
    match r {
        EnclaveRun::Exited(v) => (1, v),
        EnclaveRun::Interrupted => (2, 0),
        EnclaveRun::Faulted => (3, 0),
        EnclaveRun::Refused(e) => (4, e.code()),
    }
}

/// Digest of the OS-visible register file: the register/flags portion
/// of [`adversary_view`], without the insecure-RAM sweep (hashed once
/// per pass at case end instead of per slot, for throughput).
fn reg_digest(m: &Machine) -> Digest {
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
    h.finish()
}

/// First observable divergence between the two passes, if any.
fn first_divergence(a: &PassObs, b: &PassObs) -> Option<(u32, String)> {
    for (i, (sa, sb)) in a.slots.iter().zip(&b.slots).enumerate() {
        if sa != sb {
            let what = if sa.cycles != sb.cycles {
                format!("cycles {} vs {}", sa.cycles, sb.cycles)
            } else if (sa.tag, sa.val) != (sb.tag, sb.val) {
                format!(
                    "burst outcome ({},{:#x}) vs ({},{:#x})",
                    sa.tag, sa.val, sb.tag, sb.val
                )
            } else if sa.aux != sb.aux {
                format!("fault-op result {:?} vs {:?}", sa.aux, sb.aux)
            } else {
                "OS-visible registers differ (secret-dependent register state)".to_string()
            };
            return Some((i as u32, format!("slot {i}: {what}")));
        }
    }
    if a.final_cycles != b.final_cycles {
        return Some((
            u32::MAX,
            format!(
                "final cycles {} vs {} (secret-dependent timing)",
                a.final_cycles, b.final_cycles
            ),
        ));
    }
    if a.final_view != b.final_view {
        return Some((
            u32::MAX,
            "final adversary view differs (secret-dependent OS-visible state)".to_string(),
        ));
    }
    None
}

/// The victim guest: parks the secret (arg `r1`) in callee-saved
/// registers r5–r7, busy-loops with it live — the window a preemption
/// catches — then stores it to its private data page and scrubs its own
/// registers before exiting voluntarily. A careful enclave defends its
/// voluntary exits; only the monitor can defend its preemptions — which
/// is exactly what the NI oracle checks.
fn victim_image() -> Image {
    let mut a = Assembler::new(CODE_VA);
    a.mov_imm32(Reg::R(4), DATA_VA);
    a.mov_reg(Reg::R(5), Reg::R(1));
    a.mov_reg(Reg::R(6), Reg::R(1));
    a.mov_reg(Reg::R(7), Reg::R(1));
    a.mov_imm32(Reg::R(3), VICTIM_WINDOW);
    let top = a.label();
    a.subs_imm(Reg::R(3), Reg::R(3), 1);
    a.b_to(Cond::Ne, top);
    a.str_imm(Reg::R(1), Reg::R(4), 0);
    for r in [1u8, 5, 6, 7] {
        a.mov_imm(Reg::R(r), 0);
    }
    a.mov_imm(Reg::R(0), 0); // SVC Exit, retval r1 = 0.
    a.svc(0);
    Image {
        segments: vec![
            GuestSegment {
                va: CODE_VA,
                words: a.words(),
                w: false,
                x: true,
                shared: false,
            },
            GuestSegment {
                va: DATA_VA,
                words: vec![0; 16],
                w: true,
                x: false,
                shared: false,
            },
        ],
        entry: CODE_VA,
    }
}

/// The worker guest: a secret-independent countdown (arg `r0`
/// iterations), the long burst most interrupt faults land in.
fn worker_image() -> Image {
    let mut a = Assembler::new(CODE_VA);
    let top = a.label();
    a.subs_imm(Reg::R(0), Reg::R(0), 1);
    a.b_to(Cond::Ne, top);
    a.mov_imm(Reg::R(0), 0);
    a.mov_imm(Reg::R(1), 7);
    a.svc(0);
    code_only(a.words())
}

/// The churn guest: exits immediately (it is built and destroyed, not
/// run).
fn churn_image() -> Image {
    let mut a = Assembler::new(CODE_VA);
    a.mov_imm(Reg::R(0), 0);
    a.mov_imm(Reg::R(1), 0);
    a.svc(0);
    code_only(a.words())
}

fn code_only(words: Vec<u32>) -> Image {
    Image {
        segments: vec![GuestSegment {
            va: CODE_VA,
            words,
            w: false,
            x: true,
            shared: false,
        }],
        entry: CODE_VA,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform(cfg: &ChaosConfig) -> Platform {
        Platform::with_config(cfg.platform.clone())
    }

    #[test]
    fn faultless_case_passes() {
        let cfg = ChaosConfig::default();
        let mut p = platform(&cfg);
        let spec = CaseSpec::generate(3).with_faults(Vec::new());
        let r = run_case_spec(&mut p, &cfg, &spec);
        assert_eq!(r.verdict, Verdict::Pass, "{:?}", r.verdict);
        assert!(r.cycles > 0);
    }

    #[test]
    fn seeded_cases_pass_on_a_correct_monitor() {
        let cfg = ChaosConfig::default();
        let mut p = platform(&cfg);
        for seed in 0..24 {
            let r = run_case(&mut p, &cfg, seed);
            assert_eq!(r.verdict, Verdict::Pass, "seed {seed}: {:?}", r.verdict);
        }
    }

    #[test]
    fn case_report_is_reproducible_from_seed() {
        let cfg = ChaosConfig::default();
        let mut p = platform(&cfg);
        let r1 = run_case(&mut p, &cfg, 17);
        let r2 = run_case(&mut p, &cfg, 17);
        assert_eq!(r1.verdict, r2.verdict);
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(r1.injected, r2.injected);
    }

    /// The planted register-scrub bug must be caught by the NI oracle
    /// when a preemption lands in the victim's secret-live window.
    #[test]
    fn planted_reg_leak_is_caught() {
        let mut cfg = ChaosConfig {
            planted: PlantedBugs {
                leak_regs_on_interrupt: true,
                ..PlantedBugs::default()
            },
            ..ChaosConfig::default()
        };
        let mut p = platform(&cfg);
        // A hand-built single-fault schedule: one victim burst preempted
        // mid-window.
        let mut spec = CaseSpec::generate(0).with_faults(Vec::new());
        spec.targets = vec![Target::Victim];
        spec.faults = vec![(0, Fault::IrqWithin { delta: 700 })];
        let r = run_case_spec(&mut p, &cfg, &spec);
        match &r.verdict {
            Verdict::Ni { slot, detail, .. } => {
                assert_eq!(*slot, 0, "{detail}");
            }
            other => panic!("expected NI violation, got {other:?}"),
        }
        // The same schedule on a correct monitor passes.
        cfg.planted = PlantedBugs::default();
        let r = run_case_spec(&mut p, &cfg, &spec);
        assert_eq!(r.verdict, Verdict::Pass, "{:?}", r.verdict);
    }

    /// The planted refcount bug must be caught by the refinement oracle
    /// when the victim (which holds spare pages) is destroyed under
    /// load.
    #[test]
    fn planted_refcount_leak_is_caught() {
        let mut cfg = ChaosConfig {
            planted: PlantedBugs {
                refcount_leak_on_remove: true,
                ..PlantedBugs::default()
            },
            ..ChaosConfig::default()
        };
        let mut p = platform(&cfg);
        let mut spec = CaseSpec::generate(0).with_faults(Vec::new());
        spec.targets = vec![Target::Worker];
        spec.faults = vec![(0, Fault::DestroyUnderLoad)];
        let r = run_case_spec(&mut p, &cfg, &spec);
        match &r.verdict {
            Verdict::Invariant { violations } => {
                assert!(
                    violations.iter().any(|v| v.contains("refcount")),
                    "{violations:?}"
                );
            }
            other => panic!("expected invariant violation, got {other:?}"),
        }
        cfg.planted = PlantedBugs::default();
        let r = run_case_spec(&mut p, &cfg, &spec);
        assert_eq!(r.verdict, Verdict::Pass, "{:?}", r.verdict);
    }

    /// Interrupt faults must actually preempt bursts (the injection seam
    /// works) and the case must still pass on a correct monitor.
    #[test]
    fn interrupts_preempt_and_still_pass() {
        let cfg = ChaosConfig::default();
        let mut p = platform(&cfg);
        let mut spec = CaseSpec::generate(0).with_faults(Vec::new());
        spec.targets = vec![Target::Worker, Target::Worker];
        spec.faults = vec![(0, Fault::IrqWithin { delta: 500 })];
        let r = run_case_spec(&mut p, &cfg, &spec);
        assert_eq!(r.verdict, Verdict::Pass, "{:?}", r.verdict);
    }
}
