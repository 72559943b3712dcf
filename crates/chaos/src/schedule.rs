//! Seeded fault schedules: what a chaos case does, derived entirely from
//! one integer.
//!
//! A case is a fixed *backbone* of enclave operations (the slots, each
//! targeting the victim or the worker enclave) plus a *fault schedule*
//! mapping some slots to an injected fault. Both are pure functions of
//! the case seed via [`komodo_spec::seed`], so a case is reproducible
//! from its printed seed alone, and the shrinker can delete faults from
//! the schedule while holding the backbone fixed — the delta-debugging
//! invariant that makes minimal failing schedules meaningful.

use komodo_spec::seed::SplitMix64;

/// One injected fault, applied immediately before its slot's enclave
/// burst.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Arm an IRQ `delta` cycles from the injection point — lands
    /// mid-burst when `delta` is shorter than the burst.
    IrqWithin {
        /// Cycles from injection to the IRQ deadline.
        delta: u64,
    },
    /// Arm an FIQ `delta` cycles from the injection point.
    FiqWithin {
        /// Cycles from injection to the FIQ deadline.
        delta: u64,
    },
    /// Clamp the monitor's user-execution step budget for this slot's
    /// burst (the OS timer preempting aggressively).
    StepBudget {
        /// Steps allowed before the burst is treated as interrupted.
        steps: u64,
    },
    /// Issue an SMC with a garbage call number and all-ones arguments.
    BadSmc {
        /// The bogus call number.
        call: u32,
    },
    /// Adversarial page churn: build and immediately destroy a
    /// throwaway enclave, recycling secure pages mid-case.
    PageChurn,
    /// Destroy the victim enclave under load: stop it and remove its
    /// pages, even while a thread is suspended mid-burst.
    DestroyUnderLoad,
    /// Malicious-OS register perturbation at the world-switch boundary:
    /// scribble an OS-visible register before the burst.
    RegPerturb {
        /// Register index (r5–r11: the range SMC returns don't scrub).
        reg: u8,
        /// Value written.
        val: u32,
    },
    /// Malicious-OS memory perturbation: scribble a word of insecure
    /// RAM before the burst.
    MemPerturb {
        /// Word index, reduced modulo the insecure RAM size.
        word: u32,
        /// Value written.
        val: u32,
    },
    /// SVC-level entry perturbation, the one fault the *enclave* sees:
    /// XOR a value into one of the SVC-visible entry arguments (r0–r2
    /// at enclave entry) before the burst — a malicious OS tampering
    /// with the inputs it relays, e.g. the challenge words of a
    /// handshake in flight. Applied identically in both NI passes (and
    /// only to fresh entries; resumes carry no arguments).
    EntryPerturb {
        /// Which entry argument (reduced modulo 3).
        arg: u8,
        /// XOR mask applied to the argument.
        val: u32,
    },
}

impl Fault {
    /// Number of fault kinds.
    pub const KINDS: usize = 9;

    /// Stable kind code, `0..Self::KINDS` (the [`komodo_trace::Event::ChaosInject`]
    /// `kind` field and the campaign fault-mix index).
    pub fn kind_code(&self) -> u8 {
        match self {
            Fault::IrqWithin { .. } => 0,
            Fault::FiqWithin { .. } => 1,
            Fault::StepBudget { .. } => 2,
            Fault::BadSmc { .. } => 3,
            Fault::PageChurn => 4,
            Fault::DestroyUnderLoad => 5,
            Fault::RegPerturb { .. } => 6,
            Fault::MemPerturb { .. } => 7,
            Fault::EntryPerturb { .. } => 8,
        }
    }

    /// Short stable name for a kind code (reports and the bench JSON).
    pub fn kind_name(code: u8) -> &'static str {
        match code {
            0 => "irq",
            1 => "fiq",
            2 => "step_budget",
            3 => "bad_smc",
            4 => "page_churn",
            5 => "destroy_under_load",
            6 => "reg_perturb",
            7 => "mem_perturb",
            8 => "entry_perturb",
            _ => "?",
        }
    }

    /// Fault-specific payload word recorded in the injection trace
    /// event.
    pub fn arg(&self) -> u32 {
        match *self {
            Fault::IrqWithin { delta } | Fault::FiqWithin { delta } => delta as u32,
            Fault::StepBudget { steps } => steps as u32,
            Fault::BadSmc { call } => call,
            Fault::PageChurn | Fault::DestroyUnderLoad => 0,
            Fault::RegPerturb { reg, val } => (u32::from(reg) << 24) ^ (val & 0x00ff_ffff),
            Fault::MemPerturb { word, .. } => word,
            Fault::EntryPerturb { arg, val } => (u32::from(arg) << 24) ^ (val & 0x00ff_ffff),
        }
    }
}

impl core::fmt::Display for Fault {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            Fault::IrqWithin { delta } => write!(f, "irq delta={delta}"),
            Fault::FiqWithin { delta } => write!(f, "fiq delta={delta}"),
            Fault::StepBudget { steps } => write!(f, "step-budget steps={steps}"),
            Fault::BadSmc { call } => write!(f, "bad-smc call={call:#010x}"),
            Fault::PageChurn => write!(f, "page-churn"),
            Fault::DestroyUnderLoad => write!(f, "destroy-under-load"),
            Fault::RegPerturb { reg, val } => write!(f, "reg-perturb r{reg}={val:#010x}"),
            Fault::MemPerturb { word, val } => write!(f, "mem-perturb word={word} val={val:#010x}"),
            Fault::EntryPerturb { arg, val } => {
                write!(f, "entry-perturb arg=r{arg} xor={val:#010x}")
            }
        }
    }
}

/// Which enclave a backbone slot drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// The worker: a long secret-independent countdown burst, the canvas
    /// interrupts and preemptions land on.
    Worker,
    /// The victim: a burst that carries the enclave secret live in
    /// registers for a window — what register-scrubbing bugs leak.
    Victim,
}

/// Which execution tier the case's machine runs on, so campaigns
/// exercise both under fire. Both tiers are cycle-model-preserving, and
/// both passes of a case use the same tier, so the choice never affects
/// verdicts — only which engine is stressed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// The uncached per-instruction interpreter.
    Baseline,
    /// The fetch accelerator with compiled micro-op traces (the default).
    Compiled,
}

impl Tier {
    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Baseline => "baseline",
            Tier::Compiled => "compiled",
        }
    }
}

/// A fully-specified chaos case: seed, tier, backbone, and fault
/// schedule. [`CaseSpec::generate`] derives all of it from the seed;
/// [`CaseSpec::with_faults`] swaps the schedule while keeping the
/// backbone — the shrinker's move.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaseSpec {
    /// The case seed everything below derives from.
    pub seed: u64,
    /// Execution tier for the case's machine.
    pub tier: Tier,
    /// The backbone: one enclave burst per slot.
    pub targets: Vec<Target>,
    /// The fault schedule: `(slot, fault)`, at most one fault per slot,
    /// sorted by slot.
    pub faults: Vec<(usize, Fault)>,
}

impl CaseSpec {
    /// Derives the complete case from `seed`.
    pub fn generate(seed: u64) -> CaseSpec {
        let mut rng = SplitMix64::new(seed);
        // One draw whatever the bound, so the backbone and the fault
        // schedule below do not depend on how many tiers there are.
        let tier = match rng.below(2) {
            0 => Tier::Baseline,
            _ => Tier::Compiled,
        };
        let slots = 5 + rng.below(6) as usize; // 5..=10
        let mut targets = Vec::with_capacity(slots);
        let mut faults = Vec::new();
        for slot in 0..slots {
            targets.push(if rng.below(3) == 0 {
                Target::Victim
            } else {
                Target::Worker
            });
            if rng.below(2) == 0 {
                faults.push((slot, draw_fault(&mut rng)));
            }
        }
        CaseSpec {
            seed,
            tier,
            targets,
            faults,
        }
    }

    /// The same backbone with a different fault schedule (the shrinker's
    /// reduction step).
    pub fn with_faults(&self, faults: Vec<(usize, Fault)>) -> CaseSpec {
        CaseSpec {
            faults,
            ..self.clone()
        }
    }

    /// Per-kind injected-fault counts for this schedule.
    pub fn fault_mix(&self) -> [u32; Fault::KINDS] {
        let mut mix = [0u32; Fault::KINDS];
        for (_, f) in &self.faults {
            mix[f.kind_code() as usize] += 1;
        }
        mix
    }
}

impl core::fmt::Display for CaseSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "case seed={:#018x} tier={} slots={} faults={}",
            self.seed,
            self.tier.name(),
            self.targets.len(),
            self.faults.len()
        )?;
        for (i, t) in self.targets.iter().enumerate() {
            let tname = match t {
                Target::Worker => "worker",
                Target::Victim => "victim",
            };
            match self.faults.iter().find(|(s, _)| *s == i) {
                Some((_, fault)) => writeln!(f, "  slot {i:>2} {tname:<6} <- {fault}")?,
                None => writeln!(f, "  slot {i:>2} {tname:<6}")?,
            }
        }
        Ok(())
    }
}

/// Draws one fault. Delay-style draws are bimodal: a short mode that
/// lands inside even the victim's brief secret-live window, and a long
/// mode that lands across worker bursts — both interesting, neither
/// reachable from a single uniform range.
fn draw_fault(rng: &mut SplitMix64) -> Fault {
    match rng.below(Fault::KINDS as u64) {
        0 => Fault::IrqWithin {
            delta: bimodal(rng, 256, 8192),
        },
        1 => Fault::FiqWithin {
            delta: bimodal(rng, 256, 8192),
        },
        2 => Fault::StepBudget {
            steps: bimodal(rng, 128, 4096),
        },
        3 => Fault::BadSmc {
            // High bit set: never collides with a real SMC call number.
            call: 0x4000_0000 | rng.next_u64() as u32,
        },
        4 => Fault::PageChurn,
        5 => Fault::DestroyUnderLoad,
        6 => Fault::RegPerturb {
            // r5–r11: the callee-saved range that survives SMC returns
            // into the adversary's view.
            reg: 5 + rng.below(7) as u8,
            val: rng.next_u64() as u32,
        },
        7 => Fault::MemPerturb {
            word: rng.next_u64() as u32,
            val: rng.next_u64() as u32,
        },
        _ => Fault::EntryPerturb {
            arg: rng.below(3) as u8,
            // Bounded mask: keeps perturbed loop counts finite (the
            // worker's countdown stays in a few-thousand-iteration
            // range) while still visibly corrupting enclave inputs.
            val: 1 + rng.below(1023) as u32,
        },
    }
}

fn bimodal(rng: &mut SplitMix64, short: u64, long: u64) -> u64 {
    if rng.below(2) == 0 {
        1 + rng.below(short)
    } else {
        1 + rng.below(long)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 7, 0xdead_beef] {
            assert_eq!(CaseSpec::generate(seed), CaseSpec::generate(seed));
        }
        assert_ne!(CaseSpec::generate(1), CaseSpec::generate(2));
    }

    #[test]
    fn backbone_shape_is_bounded() {
        for seed in 0..500 {
            let c = CaseSpec::generate(seed);
            assert!((5..=10).contains(&c.targets.len()));
            assert!(c.faults.len() <= c.targets.len());
            // At most one fault per slot, sorted.
            for w in c.faults.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
        }
    }

    #[test]
    fn every_fault_kind_is_drawn() {
        let mut mix = [0u32; Fault::KINDS];
        for seed in 0..2000 {
            for (i, n) in CaseSpec::generate(seed).fault_mix().iter().enumerate() {
                mix[i] += n;
            }
        }
        for (i, n) in mix.iter().enumerate() {
            assert!(
                *n > 0,
                "fault kind {} never drawn",
                Fault::kind_name(i as u8)
            );
        }
    }

    #[test]
    fn with_faults_keeps_backbone() {
        let c = CaseSpec::generate(42);
        let reduced = c.with_faults(Vec::new());
        assert_eq!(reduced.targets, c.targets);
        assert_eq!(reduced.tier, c.tier);
        assert_eq!(reduced.seed, c.seed);
        assert!(reduced.faults.is_empty());
    }

    #[test]
    fn display_names_every_slot() {
        let c = CaseSpec::generate(9);
        let s = c.to_string();
        for i in 0..c.targets.len() {
            assert!(s.contains(&format!("slot {i:>2}")), "{s}");
        }
    }
}
