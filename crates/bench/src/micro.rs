//! Table 3 microbenchmark measurements (simulated cycles).

use komodo::{Platform, PlatformConfig};
use komodo_armv7::regs::Reg;
use komodo_guest::{progs, svc, GuestSegment, Image};
use komodo_os::EnclaveRun;
use komodo_spec::SmcCall;

/// One measured operation.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Operation name, as in Table 3.
    pub name: &'static str,
    /// The paper's measured cycles on the Pi 2.
    pub paper_cycles: u64,
    /// Our simulated cycles.
    pub cycles: u64,
    /// Note mirroring the table's annotation.
    pub note: &'static str,
}

fn platform() -> Platform {
    Platform::with_config(
        PlatformConfig::default()
            .with_insecure_size(1 << 20)
            .with_npages(64)
            .with_seed(3),
    )
}

/// Cycles consumed by one SMC.
fn smc_cost(p: &mut Platform, call: SmcCall, args: [u32; 4]) -> u64 {
    let before = p.machine.cycles;
    let _ = p.monitor.smc(&mut p.machine, call as u32, args);
    p.machine.cycles - before
}

/// `GetPhysPages`: the null SMC.
pub fn null_smc() -> u64 {
    let mut p = platform();
    smc_cost(&mut p, SmcCall::GetPhysPages, [0; 4])
}

/// Full `Enter`+`Exit` crossing on the null enclave.
pub fn enter_exit() -> u64 {
    let mut p = platform();
    let e = p.load(&progs::null_enclave()).unwrap();
    let before = p.machine.cycles;
    assert_eq!(p.enter(&e, 0, [0; 3]), EnclaveRun::Exited(0));
    let total = p.machine.cycles - before;
    // Subtract the null guest's own work (three instructions plus the
    // code-page TLB fill) so only the crossing remains, as the paper's
    // "full enclave crossing (call & return)" row intends.
    use komodo_armv7::machine::cost;
    total - (3 * cost::INSN + cost::TLB_WALK)
}

/// `Enter` only: cycles from the SMC until the first enclave instruction.
pub fn enter_only() -> u64 {
    let mut p = platform();
    let e = p.load(&progs::spinner()).unwrap();
    p.monitor.step_budget = 1000;
    p.machine.first_user_insn_cycle = None;
    let before = p.machine.cycles;
    let r = p.enter(&e, 0, [0; 3]);
    assert_eq!(r, EnclaveRun::Interrupted);
    p.machine.first_user_insn_cycle.expect("guest ran") - before
}

/// `Resume` only: cycles from the SMC until the first resumed instruction.
pub fn resume_only() -> u64 {
    let mut p = platform();
    let e = p.load(&progs::spinner()).unwrap();
    p.monitor.step_budget = 1000;
    assert_eq!(p.enter(&e, 0, [0; 3]), EnclaveRun::Interrupted);
    p.machine.first_user_insn_cycle = None;
    let before = p.machine.cycles;
    assert_eq!(p.resume(&e, 0), EnclaveRun::Interrupted);
    p.machine.first_user_insn_cycle.expect("guest ran") - before
}

/// `AllocSpare`: dynamic allocation SMC.
pub fn alloc_spare() -> u64 {
    let mut p = platform();
    let e = p.load(&progs::null_enclave()).unwrap();
    let spare = p.os.alloc_secure().unwrap();
    smc_cost(
        &mut p,
        SmcCall::AllocSpare,
        [e.asp as u32, spare as u32, 0, 0],
    )
}

/// Builds a guest that performs `svcs` before exiting, and returns the
/// whole-crossing cycle cost. Differencing two of these isolates the SVC
/// handler cost.
fn crossing_with(build: impl Fn(&mut komodo_armv7::Assembler)) -> u64 {
    let mut a = komodo_armv7::Assembler::new(progs::CODE_VA);
    build(&mut a);
    svc::exit_imm(&mut a, 0);
    let img = Image {
        segments: vec![GuestSegment {
            va: progs::CODE_VA,
            words: a.words(),
            w: false,
            x: true,
            shared: false,
        }],
        entry: progs::CODE_VA,
    };
    let mut p = platform();
    let e = p.load(&img).unwrap();
    let before = p.machine.cycles;
    assert_eq!(p.enter(&e, 0, [0; 3]), EnclaveRun::Exited(0));
    p.machine.cycles - before
}

/// `Attest` SVC handler cost (crossing-differenced).
pub fn attest() -> u64 {
    let with = crossing_with(|a| {
        for i in 0..8u8 {
            a.mov_imm(Reg::R(1 + i), 0x11 * (i as u32 + 1));
        }
        svc::attest(a);
    });
    let without = crossing_with(|a| {
        for i in 0..8u8 {
            a.mov_imm(Reg::R(1 + i), 0x11 * (i as u32 + 1));
        }
    });
    with - without
}

/// `Verify` (all three steps) SVC cost.
pub fn verify() -> u64 {
    let with = crossing_with(|a| {
        for i in 0..8u8 {
            a.mov_imm(Reg::R(1 + i), 0x11 * (i as u32 + 1));
        }
        svc::verify_step0(a);
        svc::verify_step1(a);
        svc::verify_step2(a);
    });
    let without = crossing_with(|a| {
        for i in 0..8u8 {
            a.mov_imm(Reg::R(1 + i), 0x11 * (i as u32 + 1));
        }
    });
    with - without
}

/// `MapData` SVC cost (dynamic allocation from inside the enclave).
pub fn map_data() -> u64 {
    // The guest maps its spare page (number passed as arg1) then exits.
    let run = |do_map: bool| {
        let mut a = komodo_armv7::Assembler::new(progs::CODE_VA);
        if do_map {
            a.mov_reg(Reg::R(1), Reg::R(0)); // Spare page number.
            a.mov_imm32(Reg::R(2), 0x0020_0000 | 0b011);
            a.mov_imm(Reg::R(0), 7); // MapData.
            a.svc(0);
        } else {
            a.mov_reg(Reg::R(1), Reg::R(0));
            a.mov_imm32(Reg::R(2), 0x0020_0000 | 0b011);
        }
        svc::exit_imm(&mut a, 0);
        let img = Image {
            segments: vec![GuestSegment {
                va: progs::CODE_VA,
                words: a.words(),
                w: false,
                x: true,
                shared: false,
            }],
            entry: progs::CODE_VA,
        };
        let mut p = platform();
        let e = p.load_with(&img, 1, 1).unwrap();
        let spare = e.spares[0] as u32;
        let before = p.machine.cycles;
        assert_eq!(p.enter(&e, 0, [spare, 0, 0]), EnclaveRun::Exited(0));
        p.machine.cycles - before
    };
    run(true) - run(false)
}

/// All Table 3 rows.
pub fn table3() -> Vec<Sample> {
    vec![
        Sample {
            name: "GetPhysPages",
            paper_cycles: 123,
            cycles: null_smc(),
            note: "Null SMC",
        },
        Sample {
            name: "Enter + Exit",
            paper_cycles: 738,
            cycles: enter_exit(),
            note: "Full enclave crossing",
        },
        Sample {
            name: "Enter only (no return)",
            paper_cycles: 496,
            cycles: enter_only(),
            note: "",
        },
        Sample {
            name: "Resume only (no return)",
            paper_cycles: 625,
            cycles: resume_only(),
            note: "",
        },
        Sample {
            name: "Attest",
            paper_cycles: 12_411,
            cycles: attest(),
            note: "Construct attestation",
        },
        Sample {
            name: "Verify",
            paper_cycles: 13_373,
            cycles: verify(),
            note: "Verify attestation",
        },
        Sample {
            name: "AllocSpare",
            paper_cycles: 217,
            cycles: alloc_spare(),
            note: "Dynamic allocation",
        },
        Sample {
            name: "MapData",
            paper_cycles: 5_826,
            cycles: map_data(),
            note: "Dynamic allocation",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_shape_matches_paper() {
        let t = table3();
        let get = |n: &str| t.iter().find(|s| s.name == n).unwrap().cycles;
        let null = get("GetPhysPages");
        let spare = get("AllocSpare");
        let enter = get("Enter only (no return)");
        let resume = get("Resume only (no return)");
        let crossing = get("Enter + Exit");
        let attest = get("Attest");
        let verify = get("Verify");
        let map_data = get("MapData");
        // The paper's ordering: null < spare < enter < resume ≈ crossing
        // < map_data < attest < verify.
        assert!(null < spare, "null={null} spare={spare}");
        assert!(spare < enter, "spare={spare} enter={enter}");
        assert!(enter < resume, "enter={enter} resume={resume}");
        assert!(enter < crossing, "enter={enter} crossing={crossing}");
        assert!(crossing < map_data, "crossing={crossing} map={map_data}");
        assert!(map_data < attest, "map={map_data} attest={attest}");
        assert!(attest < verify, "attest={attest} verify={verify}");
        // Magnitudes within ~3× of the paper's numbers.
        for s in &t {
            let ratio = s.cycles as f64 / s.paper_cycles as f64;
            assert!(
                (0.33..3.0).contains(&ratio),
                "{}: measured {} vs paper {} (ratio {ratio:.2})",
                s.name,
                s.cycles,
                s.paper_cycles
            );
        }
    }

    /// The exact simulated cycles EXPERIMENTS.md publishes for Table 3.
    /// The cycle model is deterministic, so a monitor path whose charge
    /// moves (`MapData` zeroes its page as one batched word range, for
    /// one) fails here even when the ordering and ratios above still hold.
    #[test]
    fn table3_cycles_match_the_published_table() {
        let got: Vec<(&str, u64)> = table3().iter().map(|s| (s.name, s.cycles)).collect();
        assert_eq!(
            got,
            [
                ("GetPhysPages", 119),
                ("Enter + Exit", 654),
                ("Enter only (no return)", 365),
                ("Resume only (no return)", 539),
                ("Attest", 12_049),
                ("Verify", 12_227),
                ("AllocSpare", 149),
                ("MapData", 5_545),
            ]
        );
    }

    #[test]
    fn komodo_crossing_beats_sgx_by_an_order_of_magnitude() {
        // §8.1: "the Komodo result represents an order of magnitude
        // improvement" over SGX's ≈7,100-cycle crossing.
        let crossing = enter_exit();
        assert!(
            crossing * 5 < 7_100,
            "crossing {crossing} not clearly below SGX's 7100"
        );
    }
}
