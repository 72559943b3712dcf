//! Bisimulation drivers (paper §6.3).
//!
//! "Our proofs use bisimulation; we reason about two executions beginning
//! from initial states that are related by ≈L and our proof goal is to
//! show that the final states are also related by ≈L." Here the two
//! executions actually run, through the specification's `smchandler`, and
//! the relations are checked after every call — over randomized states and
//! traces instead of all of them.

use komodo_spec::handler::{smc_handler, HandlerEnv};
use komodo_spec::{KomErr, PageDb, PageEntry, PageNr, SmcCall};

use crate::equiv::{obs_equiv_adv, AdvState};
use crate::gen::{Action, MapMem, Scenario};
use crate::seeded::SeededExec;

/// One side of the bisimulation.
struct Side {
    d: PageDb,
    insecure: MapMem,
}

/// The declassified outputs of one step — what the adversary legitimately
/// learns (§6.2): the result code ("the type of exception or interrupt
/// that ends enclave execution"), and the value passed to `Exit`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Declassified {
    /// Result code.
    pub err: KomErr,
    /// Return value.
    pub retval: u32,
}

/// Runs a full confidentiality bisimulation: the scenario against its
/// secret-twin, under the given adversary trace. Fails with a description
/// of the first violated obligation.
///
/// Obligations checked at every step:
/// 1. both runs produce identical declassified outputs, and
/// 2. the post-states remain `≈adv`-related (for the colluding enclave).
pub fn confidentiality(
    s: &Scenario,
    t: &Scenario,
    actions: &[Action],
    exec_seed: u64,
) -> Result<(), String> {
    let mut side1 = Side {
        d: s.d.clone(),
        insecure: s.insecure.clone(),
    };
    let mut side2 = Side {
        d: t.d.clone(),
        insecure: t.insecure.clone(),
    };
    check_adv(&side1, &side2, s.adversary, &[], 0)?;

    for (i, a) in actions.iter().enumerate() {
        let seed = exec_seed
            .wrapping_mul(komodo_spec::seed::GOLDEN_GAMMA)
            .wrapping_add(i as u64);
        let (o1, o2) = match a {
            Action::ScribbleInsecure(pfn, idx, val) => {
                use komodo_spec::enter::InsecureMem;
                side1.insecure.write_word(*pfn, *idx, *val);
                side2.insecure.write_word(*pfn, *idx, *val);
                (
                    Declassified {
                        err: KomErr::Ok,
                        retval: 0,
                    },
                    Declassified {
                        err: KomErr::Ok,
                        retval: 0,
                    },
                )
            }
            Action::Smc(call, args) => (
                step(&mut side1, s, seed, *call, *args, None),
                step(&mut side2, t, seed, *call, *args, None),
            ),
            Action::EnterVictim(idx, args) => {
                let call = SmcCall::Enter as u32;
                let a4 = [s.victim_threads[*idx] as u32, args[0], args[1], args[2]];
                (
                    step(&mut side1, s, seed, call, a4, s.victim_spare),
                    step(&mut side2, t, seed, call, a4, t.victim_spare),
                )
            }
            Action::ResumeVictim(idx) => {
                let call = SmcCall::Resume as u32;
                let a4 = [s.victim_threads[*idx] as u32, 0, 0, 0];
                (
                    step(&mut side1, s, seed, call, a4, s.victim_spare),
                    step(&mut side2, t, seed, call, a4, t.victim_spare),
                )
            }
            Action::EnterAdversary(args) => {
                let call = SmcCall::Enter as u32;
                let a4 = [s.adversary_threads[0] as u32, args[0], args[1], args[2]];
                (
                    step(&mut side1, s, seed, call, a4, None),
                    step(&mut side2, t, seed, call, a4, None),
                )
            }
        };
        if o1 != o2 {
            return Err(format!(
                "step {i} ({a:?}): declassified outputs diverged: {o1:?} vs {o2:?}"
            ));
        }
        check_adv(
            &side1,
            &side2,
            s.adversary,
            &[o1.err.code(), o1.retval],
            i + 1,
        )?;
    }
    Ok(())
}

fn step(
    side: &mut Side,
    s: &Scenario,
    seed: u64,
    call: u32,
    args: [u32; 4],
    spare: Option<usize>,
) -> Declassified {
    let mut rng_state = seed ^ 0xdead_beef;
    let mut rng = move || {
        // Deterministic platform RNG, same on both sides (same hardware).
        rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (rng_state >> 32) as u32
    };
    let mut exec = SeededExec::new(seed, 3);
    exec.spare_page = spare.map(|p| p as u32);
    let mut env = HandlerEnv {
        params: &s.params,
        attest_key: b"bisim attestation key",
        rng: &mut rng,
        exec: &mut exec,
        insecure: &mut side.insecure,
        max_svcs: 8,
    };
    let (d, err, retval) = smc_handler(side.d.clone(), &mut env, call, args);
    side.d = d;
    Declassified { err, retval }
}

fn check_adv(
    s1: &Side,
    s2: &Side,
    adversary: PageNr,
    regs: &[u32],
    step: usize,
) -> Result<(), String> {
    let a1 = AdvState {
        pagedb: s1.d.clone(),
        regs: regs.to_vec(),
        insecure: s1.insecure.0.clone(),
    };
    let a2 = AdvState {
        pagedb: s2.d.clone(),
        regs: regs.to_vec(),
        insecure: s2.insecure.0.clone(),
    };
    if !obs_equiv_adv(&a1, &a2, adversary) {
        return Err(format!("states not ≈adv after step {step}"));
    }
    Ok(())
}

/// The integrity frame property: a trace that never runs the victim and
/// never stops/removes/extends it leaves the victim's pages bit-for-bit
/// unchanged. Returns the victim restriction before/after for inspection.
pub fn integrity_frame(s: &Scenario, actions: &[Action], exec_seed: u64) -> Result<(), String> {
    let before = victim_restriction(&s.d, s.victim);
    let mut side = Side {
        d: s.d.clone(),
        insecure: s.insecure.clone(),
    };
    for (i, a) in actions.iter().enumerate() {
        let seed = exec_seed.wrapping_add(i as u64);
        match a {
            Action::EnterVictim(..) | Action::ResumeVictim(..) => {
                return Err("integrity trace must not run the victim".into())
            }
            Action::ScribbleInsecure(pfn, idx, val) => {
                use komodo_spec::enter::InsecureMem;
                side.insecure.write_word(*pfn, *idx, *val);
            }
            Action::Smc(call, args) => {
                step(&mut side, s, seed, *call, *args, None);
            }
            Action::EnterAdversary(args) => {
                let a4 = [s.adversary_threads[0] as u32, args[0], args[1], args[2]];
                step(&mut side, s, seed, SmcCall::Enter as u32, a4, None);
            }
        }
        let after = victim_restriction(&side.d, s.victim);
        if after != before {
            return Err(format!(
                "victim state modified by adversary at step {i}: {a:?}"
            ));
        }
        if !komodo_spec::invariants::valid_pagedb(&side.d, &s.params) {
            return Err(format!("invariants broken at step {i}"));
        }
    }
    Ok(())
}

/// The victim's pages, exactly.
fn victim_restriction(d: &PageDb, victim: PageNr) -> Vec<(PageNr, PageEntry)> {
    let mut pages = d.pages_of(victim);
    pages.push(victim);
    pages.sort_unstable();
    pages
        .into_iter()
        .map(|pg| (pg, d.get(pg).expect("in range").clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{scenario, trace, twin};

    #[test]
    fn confidentiality_holds_across_seeds() {
        komodo_fleet::run_indexed(6, |i| {
            let seed = i as u64;
            let s = scenario(seed);
            let t = twin(&s, seed ^ 0xffff);
            let actions = trace(&s, seed.wrapping_add(100), 40, true);
            confidentiality(&s, &t, &actions, seed).unwrap_or_else(|e| {
                panic!("confidentiality violated (seed {seed}): {e}");
            });
        });
    }

    #[test]
    fn integrity_frame_holds_across_seeds() {
        komodo_fleet::run_indexed(6, |i| {
            let seed = i as u64;
            let s = scenario(seed);
            let actions = trace(&s, seed.wrapping_add(200), 60, false);
            integrity_frame(&s, &actions, seed).unwrap_or_else(|e| {
                panic!("integrity violated (seed {seed}): {e}");
            });
        });
    }

    /// Negative control: a leaky victim (exit value = secret word) must
    /// break the bisimulation — proving the relation is not vacuous and
    /// locating the declassification boundary of §6.2.
    #[test]
    fn leaky_victim_detected() {
        let s = scenario(1);
        let t = twin(&s, 0x5ec3e7);
        let mut side1 = Side {
            d: s.d.clone(),
            insecure: s.insecure.clone(),
        };
        let mut side2 = Side {
            d: t.d.clone(),
            insecure: t.insecure.clone(),
        };
        let run = |side: &mut Side, sc: &Scenario| {
            let mut rng = || 0u32;
            let mut exec = SeededExec::leaky(7);
            let mut env = HandlerEnv {
                params: &sc.params,
                attest_key: b"bisim attestation key",
                rng: &mut rng,
                exec: &mut exec,
                insecure: &mut side.insecure,
                max_svcs: 8,
            };
            let (d, err, retval) = smc_handler(
                side.d.clone(),
                &mut env,
                SmcCall::Enter as u32,
                [sc.victim_threads[0] as u32, 0, 0, 0],
            );
            side.d = d;
            (err, retval)
        };
        let (e1, v1) = run(&mut side1, &s);
        let (e2, v2) = run(&mut side2, &t);
        assert_eq!(e1, KomErr::Ok);
        assert_eq!(e2, KomErr::Ok);
        assert_ne!(v1, v2, "the leaky enclave's exit values must differ");
    }

    /// The victim's measurement (hence its attestations) must be identical
    /// across twins: runtime secrets never feed the measurement.
    #[test]
    fn twin_measurements_agree() {
        let s = scenario(2);
        let t = twin(&s, 42);
        assert_eq!(
            s.d.measurement_of(s.victim).unwrap().digest(),
            t.d.measurement_of(t.victim).unwrap().digest()
        );
    }
}
