//! Refinement: the concrete monitor implements the specification.
//!
//! The paper's central verification result is that the assembly monitor
//! satisfies the Dafny specification of every monitor call. The executable
//! analogue: drive the *concrete* monitor (real machine state, hardware
//! page-table formats, incremental measurement) and the *pure
//! specification* with identical call sequences, and check after every
//! call that
//!
//! 1. the error codes agree,
//! 2. the return values agree,
//! 3. the abstraction function applied to concrete memory yields exactly
//!    the specification's PageDB, and
//! 4. the PageDB invariants hold.
//!
//! Sequences are randomized: biased toward well-formed construction but
//! salted with garbage arguments, so both accept and reject paths refine.

use komodo_monitor::abs::abstract_pagedb;
use komodo_monitor::{boot, MonitorLayout};
use komodo_os::Os;
use komodo_spec::handler::{smc_handler, HandlerEnv};
use komodo_spec::invariants::{pagedb_violations, valid_pagedb};
use komodo_spec::{KomErr, Mapping, PageDb, SmcCall};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Spec-side insecure memory backed by the *same* simulated RAM the
/// concrete monitor reads, so `MapSecure` contents agree.
struct MirrorInsecure<'a> {
    machine: &'a mut komodo_armv7::Machine,
}

impl komodo_spec::enter::InsecureMem for MirrorInsecure<'_> {
    fn read_page(&mut self, pfn: u32) -> Box<[u32; 1024]> {
        let mut page = Box::new([0u32; 1024]);
        for (i, w) in page.iter_mut().enumerate() {
            *w = self
                .machine
                .mem
                .read(
                    pfn * 4096 + (i as u32) * 4,
                    komodo_armv7::mem::AccessAttrs::NORMAL,
                )
                .expect("insecure RAM");
        }
        page
    }
    fn write_word(&mut self, _pfn: u32, _index: usize, _value: u32) {
        unreachable!("structural calls never write insecure memory");
    }
}

struct NeverExec;

impl komodo_spec::enter::UserExec for NeverExec {
    fn step(&mut self, _: &komodo_spec::enter::UserVisible) -> komodo_spec::enter::UserStep {
        unreachable!("structural refinement never executes enclaves");
    }
}

/// One random structural call (never Enter/Resume), weighted toward a
/// plausible construction flow.
fn random_call(rng: &mut StdRng, npages: usize) -> (u32, [u32; 4]) {
    let call = loop {
        let c = rng.gen_range(1..=12u32);
        if c != SmcCall::Enter as u32 && c != SmcCall::Resume as u32 {
            break c;
        }
    };
    let pg = |rng: &mut StdRng| {
        if rng.gen_bool(0.9) {
            rng.gen_range(0..npages as u32)
        } else {
            rng.gen_range(0..npages as u32 * 2) // Sometimes out of range.
        }
    };
    let mapping = Mapping {
        vpn: if rng.gen_bool(0.8) {
            rng.gen_range(0..64)
        } else {
            rng.gen_range(0..0x8_0000) // Sometimes out of bounds.
        },
        r: rng.gen_bool(0.9),
        w: rng.gen_bool(0.5),
        x: rng.gen_bool(0.3),
    };
    let pfn = if rng.gen_bool(0.7) {
        rng.gen_range(1..64) // Valid insecure RAM.
    } else {
        rng.gen_range(0..0x600) // May alias monitor/secure regions.
    };
    let args = match SmcCall::from_code(call).unwrap() {
        SmcCall::GetPhysPages => [0; 4],
        SmcCall::InitAddrspace => [pg(rng), pg(rng), 0, 0],
        SmcCall::InitThread => [pg(rng), pg(rng), rng.gen_range(0..0x4000_0000), 0],
        SmcCall::InitL2PTable => [pg(rng), pg(rng), rng.gen_range(0..300), 0],
        SmcCall::AllocSpare => [pg(rng), pg(rng), 0, 0],
        SmcCall::MapSecure => [pg(rng), pg(rng), mapping.pack(), pfn],
        SmcCall::MapInsecure => [pg(rng), mapping.pack(), pfn, 0],
        SmcCall::Finalise | SmcCall::Stop | SmcCall::Remove => [pg(rng), 0, 0, 0],
        SmcCall::Enter | SmcCall::Resume => unreachable!(),
    };
    (call, args)
}

/// Runs one randomized refinement episode.
fn refine_episode(seed: u64, steps: usize) {
    let layout = MonitorLayout::new(1 << 20, 24);
    let (mut machine, mut monitor) = boot(layout, seed);
    let _os = Os::new(&mut machine, &mut monitor);
    let params = monitor.params.clone();
    let mut rng = StdRng::seed_from_u64(seed);

    // Scatter random public data through insecure RAM so MapSecure
    // contents are non-trivial.
    for pfn in 1..8u32 {
        for i in 0..32 {
            machine
                .mem
                .write(
                    pfn * 4096 + i * 4,
                    rng.gen(),
                    komodo_armv7::mem::AccessAttrs::NORMAL,
                )
                .unwrap();
        }
    }

    let mut spec_d = PageDb::new(params.npages);
    for step in 0..steps {
        let (call, args) = random_call(&mut rng, params.npages);
        // Concrete side.
        let concrete = monitor.smc(&mut machine, call, args);
        // Spec side.
        let mut rng_fn = || 0u32;
        let mut exec = NeverExec;
        let mut insecure = MirrorInsecure {
            machine: &mut machine,
        };
        let mut env = HandlerEnv {
            params: &params,
            attest_key: b"unused",
            rng: &mut rng_fn,
            exec: &mut exec,
            insecure: &mut insecure,
            max_svcs: 0,
        };
        let (nd, err, retval) = smc_handler(spec_d.clone(), &mut env, call, args);
        spec_d = nd;

        assert_eq!(
            concrete.err, err,
            "seed {seed} step {step}: error mismatch on call {call} {args:?}"
        );
        assert_eq!(
            concrete.retval, retval,
            "seed {seed} step {step}: retval mismatch on call {call} {args:?}"
        );
        let abstracted = abstract_pagedb(&mut machine, &monitor.layout);
        assert_eq!(
            abstracted, spec_d,
            "seed {seed} step {step}: abstraction diverged after call {call} {args:?}"
        );
        assert!(
            valid_pagedb(&spec_d, &params),
            "seed {seed} step {step}: invariants broken: {:?}",
            pagedb_violations(&spec_d, &params)
        );
    }
}

#[test]
fn structural_calls_refine_spec_many_seeds() {
    // Episodes depend only on their seed, so they fan out across worker
    // threads; the runner re-raises the lowest-seed failure, matching the
    // sequential loop this replaces.
    komodo_fleet::run_indexed(12, |i| refine_episode(i as u64, 120));
}

#[test]
fn long_episode_refines() {
    refine_episode(0xa11ce, 600);
}

/// Enter/Resume refinement: the concrete run of a real guest must land in
/// a state the specification admits — checked on the abstracted PageDB
/// (entered flags, saved context, invariants, measurement immutability).
#[test]
fn enter_resume_refine_spec_postconditions() {
    use komodo::{Platform, PlatformConfig};
    use komodo_guest::progs;
    use komodo_os::EnclaveRun;
    use komodo_spec::PageEntry;

    let mut p = Platform::with_config(
        PlatformConfig::default()
            .with_insecure_size(1 << 20)
            .with_npages(64)
            .with_seed(5),
    );
    let e = p.load(&progs::spinner()).unwrap();
    let before = abstract_pagedb(&mut p.machine, &p.monitor.layout);
    let measurement_before = before.measurement_of(e.asp).unwrap().digest();

    // Interrupted entry: context must be saved, thread marked entered.
    p.monitor.step_budget = 500;
    assert_eq!(p.enter(&e, 0, [7, 8, 9]), EnclaveRun::Interrupted);
    let after = abstract_pagedb(&mut p.machine, &p.monitor.layout);
    assert!(valid_pagedb(&after, &p.monitor.params));
    match after.get(e.threads[0]).unwrap() {
        PageEntry::Thread {
            entered, context, ..
        } => {
            assert!(entered, "interrupt must mark the thread entered (§4)");
            // The spinner never modifies its registers: args preserved in
            // the saved context.
            assert_eq!(&context.regs[..3], &[7, 8, 9]);
            assert!((0x8000..0x8010).contains(&context.pc));
        }
        other => panic!("{other:?}"),
    }
    // The measurement never changes after finalise.
    assert_eq!(
        after.measurement_of(e.asp).unwrap().digest(),
        measurement_before
    );

    // Resume → interrupted again: still entered; re-enter must fail like
    // the spec says.
    assert_eq!(p.resume(&e, 0), EnclaveRun::Interrupted);
    let r =
        p.os.enter(&mut p.machine, &mut p.monitor, e.threads[0], [0; 3]);
    assert_eq!(r.err, KomErr::AlreadyEntered);

    // A voluntary exit clears entered without saving registers.
    let e2 = p.load(&progs::adder()).unwrap();
    assert_eq!(p.run(&e2, 0, [1, 2, 0]), EnclaveRun::Exited(3));
    let after2 = abstract_pagedb(&mut p.machine, &p.monitor.layout);
    match after2.get(e2.threads[0]).unwrap() {
        PageEntry::Thread {
            entered, context, ..
        } => {
            assert!(!entered, "exit leaves the thread re-enterable (§4)");
            assert_eq!(context.regs, [0; 15], "exit must not save registers");
        }
        other => panic!("{other:?}"),
    }
    assert!(valid_pagedb(&after2, &p.monitor.params));
}

/// SVC refinement: the dynamic-memory SVCs return the same error codes as
/// the specification across the argument space, including the invalid
/// shapes (this coverage gap previously hid a check-order divergence in
/// `UnmapData`).
#[test]
fn dynamic_svc_error_codes_refine_spec() {
    use komodo::{Platform, PlatformConfig};
    use komodo_armv7::regs::Reg;
    use komodo_guest::{svc as gsvc, GuestSegment, Image};
    use komodo_os::EnclaveRun;

    // Guest: issue SVC r0=arg1 with r1=arg2, r2=arg3; exit with the SVC's
    // result code.
    let mut a = komodo_armv7::Assembler::new(0x8000);
    a.mov_reg(Reg::R(4), Reg::R(0));
    a.mov_reg(Reg::R(1), Reg::R(1));
    a.mov_reg(Reg::R(2), Reg::R(2));
    a.mov_reg(Reg::R(0), Reg::R(4));
    a.svc(0);
    a.mov_reg(Reg::R(1), Reg::R(0));
    gsvc::exit(&mut a);
    let img = Image {
        segments: vec![GuestSegment {
            va: 0x8000,
            words: a.words(),
            w: false,
            x: true,
            shared: false,
        }],
        entry: 0x8000,
    };

    let mut p = Platform::with_config(
        PlatformConfig::default()
            .with_insecure_size(1 << 20)
            .with_npages(32)
            .with_seed(4),
    );
    let e = p.load_with(&img, 1, 1).unwrap();
    let spare = e.spares[0];
    let thread = e.threads[0];
    let mapping = Mapping {
        vpn: 9,
        r: true,
        w: true,
        x: false,
    };

    // Cases: (svc number, r1, r2) exercising accept and reject shapes of
    // InitL2PTable/MapData/UnmapData.
    let cases: Vec<(u32, u32, u32)> = vec![
        (8, thread as u32, mapping.pack()), // UnmapData on a thread page.
        (8, 99, mapping.pack()),            // UnmapData out of range.
        (7, thread as u32, mapping.pack()), // MapData on non-spare.
        (7, spare as u32, 0xffff_f000 | 1), // MapData out-of-bounds VA.
        (7, spare as u32, mapping.pack()),  // MapData OK.
        (8, spare as u32, 0x0000_c000 | 1), // UnmapData wrong VA.
        (8, spare as u32, mapping.pack()),  // UnmapData OK.
        (6, spare as u32, 300),             // InitL2PTable bad index.
        (6, spare as u32, 1),               // InitL2PTable OK.
        (6, spare as u32, 1),               // ...twice: no longer spare.
    ];

    // Spec side follows along on the abstracted pre-state of each step.
    for (i, (call, a1, a2)) in cases.iter().enumerate() {
        let d_before = abstract_pagedb(&mut p.machine, &p.monitor.layout);
        let r = p.run(&e, 0, [*call, *a1, *a2]);
        let EnclaveRun::Exited(code) = r else {
            panic!("case {i}: {r:?}");
        };
        let expected = match call {
            6 => komodo_spec::svc::svc_init_l2ptable(d_before, e.asp, *a1 as usize, *a2).1,
            7 => {
                komodo_spec::svc::svc_map_data(d_before, e.asp, *a1 as usize, Mapping::unpack(*a2))
                    .1
            }
            8 => {
                komodo_spec::svc::svc_unmap_data(
                    d_before,
                    e.asp,
                    *a1 as usize,
                    Mapping::unpack(*a2),
                )
                .1
            }
            _ => unreachable!(),
        };
        assert_eq!(
            code,
            expected.code(),
            "case {i}: call {call}({a1:#x}, {a2:#x})"
        );
    }
}

/// Measurement refinement: the incremental concrete measurement equals
/// the specification's for identical construction sequences.
#[test]
fn measurement_refines() {
    use komodo_monitor::{boot as mboot, MonitorLayout as ML};

    let layout = ML::new(1 << 20, 16);
    let (mut machine, mut monitor) = mboot(layout, 9);
    let params = monitor.params.clone();

    // Concrete construction.
    let contents_pfn = 2u32;
    for i in 0..1024u32 {
        machine
            .mem
            .write(
                contents_pfn * 4096 + i * 4,
                i * 3,
                komodo_armv7::mem::AccessAttrs::NORMAL,
            )
            .unwrap();
    }
    let m = Mapping {
        vpn: 8,
        r: true,
        w: false,
        x: true,
    };
    for (call, args) in [
        (SmcCall::InitAddrspace, [0u32, 1, 0, 0]),
        (SmcCall::InitL2PTable, [0, 2, 0, 0]),
        (SmcCall::MapSecure, [0, 3, m.pack(), contents_pfn]),
        (SmcCall::InitThread, [0, 4, 0x8000, 0]),
        (
            SmcCall::MapInsecure,
            [
                0,
                Mapping {
                    vpn: 16,
                    r: true,
                    w: true,
                    x: false,
                }
                .pack(),
                5,
                0,
            ],
        ),
        (SmcCall::Finalise, [0, 0, 0, 0]),
    ] {
        let r = monitor.smc(&mut machine, call as u32, args);
        assert_eq!(r.err, KomErr::Ok, "{call:?}");
    }
    let concrete = abstract_pagedb(&mut machine, &monitor.layout);
    let concrete_digest = concrete.measurement_of(0).unwrap().digest().unwrap();

    // Spec construction with the same contents.
    let mut contents = [0u32; 1024];
    for (i, c) in contents.iter_mut().enumerate() {
        *c = (i as u32) * 3;
    }
    let d = PageDb::new(params.npages);
    let (d, _) = komodo_spec::smc::init_addrspace(d, &params, 0, 1);
    let (d, _) = komodo_spec::smc::init_l2ptable(d, &params, 0, 2, 0);
    let (d, _) = komodo_spec::smc::map_secure(d, &params, 0, 3, m, contents_pfn, &contents);
    let (d, _) = komodo_spec::smc::init_thread(d, &params, 0, 4, 0x8000);
    let (d, _) = komodo_spec::smc::map_insecure(
        d,
        &params,
        0,
        Mapping {
            vpn: 16,
            r: true,
            w: true,
            x: false,
        },
        5,
    );
    let (d, _) = komodo_spec::smc::finalise(d, &params, 0);
    assert_eq!(
        d.measurement_of(0).unwrap().digest().unwrap(),
        concrete_digest
    );
}

/// Measurement refinement across repeated construction on one thread.
/// The monitor absorbs whole pages through a memo keyed by the running
/// hash and the page's words, and every construction here reaches
/// `MapSecure` with the same running hash. After the memo has seen the
/// base page, pages that differ from it in the first, a middle or the
/// last word must still measure as the specification does.
#[test]
fn repeated_construction_with_one_word_changed_refines() {
    use komodo_monitor::{boot as mboot, MonitorLayout as ML};

    let base: Vec<u32> = (0..1024u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
    let mut variants = vec![base.clone()];
    for at in [0, 512, 1023] {
        let mut v = base.clone();
        v[at] ^= 1;
        variants.push(v);
        variants.push(base.clone());
    }
    let m = Mapping {
        vpn: 8,
        r: true,
        w: false,
        x: true,
    };
    let contents_pfn = 2u32;
    for (i, contents) in variants.iter().enumerate() {
        let (mut machine, mut monitor) = mboot(ML::new(1 << 20, 16), 9);
        let params = monitor.params.clone();
        machine
            .mem
            .write_words(
                contents_pfn * 4096,
                contents,
                komodo_armv7::mem::AccessAttrs::NORMAL,
            )
            .unwrap();
        for (call, args) in [
            (SmcCall::InitAddrspace, [0u32, 1, 0, 0]),
            (SmcCall::InitL2PTable, [0, 2, 0, 0]),
            (SmcCall::MapSecure, [0, 3, m.pack(), contents_pfn]),
            (SmcCall::Finalise, [0, 0, 0, 0]),
        ] {
            let r = monitor.smc(&mut machine, call as u32, args);
            assert_eq!(r.err, KomErr::Ok, "{call:?}");
        }
        let concrete = abstract_pagedb(&mut machine, &monitor.layout);
        let page: [u32; 1024] = contents.as_slice().try_into().unwrap();
        let d = PageDb::new(params.npages);
        let (d, _) = komodo_spec::smc::init_addrspace(d, &params, 0, 1);
        let (d, _) = komodo_spec::smc::init_l2ptable(d, &params, 0, 2, 0);
        let (d, _) = komodo_spec::smc::map_secure(d, &params, 0, 3, m, contents_pfn, &page);
        let (d, _) = komodo_spec::smc::finalise(d, &params, 0);
        assert_eq!(
            d.measurement_of(0).unwrap().digest().unwrap(),
            concrete.measurement_of(0).unwrap().digest().unwrap(),
            "construction {i}"
        );
    }
}
