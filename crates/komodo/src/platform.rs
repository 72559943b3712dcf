//! The platform: machine + monitor + OS, wired together.

use komodo_armv7::Machine;
use komodo_guest::Image;
use komodo_monitor::{boot, reboot, Monitor, MonitorLayout};
use komodo_os::{Enclave, EnclaveBuilder, EnclaveRun, NativeProcess, Os, Segment};
use komodo_spec::KomErr;

/// Platform construction parameters.
#[derive(Clone, Debug)]
pub struct PlatformConfig {
    /// Bytes of insecure (normal-world) RAM.
    pub insecure_size: u32,
    /// Secure pool pages.
    pub npages: usize,
    /// Seed for the modelled hardware RNG (attestation key, `GetRandom`).
    pub seed: u64,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            insecure_size: 4 << 20,
            npages: 256,
            seed: 0x6b6f_6d6f, // "komo".
        }
    }
}

impl PlatformConfig {
    /// Returns the config with `bytes` of insecure RAM.
    pub fn with_insecure_size(mut self, bytes: u32) -> Self {
        self.insecure_size = bytes;
        self
    }

    /// Returns the config with `npages` secure pool pages.
    pub fn with_npages(mut self, npages: usize) -> Self {
        self.npages = npages;
        self
    }

    /// Returns the config with the given hardware-RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Derives an independent per-stream seed from this config's base
    /// seed — how a fleet gives every job its own deterministic platform
    /// seed: `derive_seed(j)` depends only on `(seed, j)`, never on which
    /// shard runs the job, so job results are shard-count independent.
    /// The mix is splitmix64 over the golden-ratio-separated stream
    /// index, so neighbouring streams decorrelate fully.
    pub fn derive_seed(&self, stream: u64) -> u64 {
        komodo_spec::seed::derive_stream(self.seed, stream)
    }
}

/// A booted platform: simulated machine, Komodo monitor, and the
/// normal-world OS model.
pub struct Platform {
    /// The machine state.
    pub machine: Machine,
    /// The monitor (secure world).
    pub monitor: Monitor,
    /// The OS model (normal world).
    pub os: Os,
    /// The parameters this platform was booted with (re-used by
    /// [`Platform::reset`]).
    config: PlatformConfig,
    /// How many flight-recorder events the monitor-fault dump prints
    /// (see [`Platform::set_flight_dump_tail`]).
    flight_dump_tail: usize,
}

impl Default for Platform {
    fn default() -> Self {
        Self::new()
    }
}

impl Platform {
    /// Boots the default platform (4 MB insecure RAM, 256 secure pages).
    pub fn new() -> Platform {
        Self::with_config(PlatformConfig::default())
    }

    /// Boots with explicit parameters.
    pub fn with_config(cfg: PlatformConfig) -> Platform {
        let layout = MonitorLayout::new(cfg.insecure_size, cfg.npages);
        let (mut machine, mut monitor) = boot(layout, cfg.seed);
        let os = Os::new(&mut machine, &mut monitor);
        Platform {
            machine,
            monitor,
            os,
            config: cfg,
            flight_dump_tail: Platform::DEFAULT_FLIGHT_DUMP_TAIL,
        }
    }

    /// Default number of flight-recorder events printed on a monitor
    /// fault.
    pub const DEFAULT_FLIGHT_DUMP_TAIL: usize = 32;

    /// Sets how many flight-recorder events the monitor-fault dump
    /// prints (default [`Platform::DEFAULT_FLIGHT_DUMP_TAIL`]). Deep
    /// failure reports — the chaos harness's, for one — want a longer
    /// tail than the interactive default.
    pub fn set_flight_dump_tail(&mut self, n: usize) {
        self.flight_dump_tail = n;
    }

    /// The parameters this platform was booted (or last reset) with.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Re-boots the platform in place with its current config: the fast
    /// recycling path for platform pooling. Every architectural field
    /// ends bit-for-bit equal to a fresh [`Platform::with_config`] with
    /// the same parameters — memory contents, counters, cycle charge,
    /// attestation key. RAM is sparse (see [`komodo_armv7::PhysMem`]):
    /// the reset drops the page frames the last job wrote and leaves
    /// none resident, as a fresh boot does. Host-side caches and the
    /// flight recorder return to their construction defaults (re-arm
    /// with [`Platform::set_trace`] if needed).
    pub fn reset(&mut self) {
        self.reset_with_seed(self.config.seed);
    }

    /// [`Platform::reset`] with a new hardware-RNG seed — how a fleet
    /// shard recycles one platform across jobs that each need their own
    /// deterministic seed (see [`PlatformConfig::derive_seed`]). Like
    /// [`Platform::reset`], it frees the written page frames rather than
    /// zero-filling the RAM banks.
    pub fn reset_with_seed(&mut self, seed: u64) {
        self.config.seed = seed;
        let layout = MonitorLayout::new(self.config.insecure_size, self.config.npages);
        self.monitor = reboot(&mut self.machine, layout, seed);
        self.os = Os::new(&mut self.machine, &mut self.monitor);
    }

    /// Converts guest segments to loader segments.
    fn segments(image: &Image) -> Vec<Segment> {
        image
            .segments
            .iter()
            .map(|s| Segment {
                va: s.va,
                words: s.words.clone(),
                w: s.w,
                x: s.x,
                shared: s.shared,
            })
            .collect()
    }

    /// Loads `image` as an enclave with one thread at the image entry.
    pub fn load(&mut self, image: &Image) -> Result<Enclave, KomErr> {
        self.load_with(image, 1, 0)
    }

    /// Loads `image` with `threads` threads (all at the entry point) and
    /// `spares` spare pages for dynamic allocation.
    pub fn load_with(
        &mut self,
        image: &Image,
        threads: usize,
        spares: usize,
    ) -> Result<Enclave, KomErr> {
        let mut b = EnclaveBuilder::new();
        for s in Self::segments(image) {
            b = b.segment(s);
        }
        for _ in 0..threads {
            b = b.thread(image.entry);
        }
        b = b.spares(spares);
        b.build(&mut self.machine, &mut self.monitor, &mut self.os)
    }

    /// Arms the machine's flight recorder to keep the most recent
    /// `capacity` events (0 disables). When armed, a monitor fault (panic)
    /// inside [`Platform::run`] / [`Platform::enter`] / [`Platform::resume`]
    /// prints the recorder tail before propagating.
    pub fn set_trace(&mut self, capacity: usize) {
        self.machine.set_trace_capacity(capacity);
    }

    /// Runs `f`; if it panics (a monitor fault — the executable analogue
    /// of a failed verification condition), dumps the flight recorder's
    /// last events to stderr before resuming the unwind, so the failure
    /// report carries the boundary events that led up to it.
    fn with_flight_dump<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.machine.trace.enabled() {
            return f(self);
        }
        let sealed = std::panic::AssertUnwindSafe(|| f(self));
        match std::panic::catch_unwind(sealed) {
            Ok(v) => v,
            Err(payload) => {
                eprintln!(
                    "monitor fault; {}",
                    self.machine.trace.dump_tail(self.flight_dump_tail)
                );
                std::panic::resume_unwind(payload)
            }
        }
    }

    /// Enters enclave thread `idx`, resuming across interrupts until exit
    /// or fault.
    pub fn run(&mut self, enclave: &Enclave, idx: usize, args: [u32; 3]) -> EnclaveRun {
        self.with_flight_dump(|p| {
            enclave.run_to_completion(&mut p.machine, &mut p.monitor, &p.os, idx, args)
        })
    }

    /// Enters without auto-resume (a single burst).
    pub fn enter(&mut self, enclave: &Enclave, idx: usize, args: [u32; 3]) -> EnclaveRun {
        self.with_flight_dump(|p| enclave.enter(&mut p.machine, &mut p.monitor, &p.os, idx, args))
    }

    /// Resumes an interrupted thread (a single burst).
    pub fn resume(&mut self, enclave: &Enclave, idx: usize) -> EnclaveRun {
        self.with_flight_dump(|p| enclave.resume(&mut p.machine, &mut p.monitor, &p.os, idx))
    }

    /// Tears the enclave down, returning its pages.
    pub fn destroy(&mut self, enclave: &Enclave) -> Result<(), KomErr> {
        enclave.destroy(&mut self.machine, &mut self.monitor, &mut self.os)
    }

    /// Builds `image` as a *native* normal-world process (the Figure 5
    /// baseline): same binary, no enclave protection.
    pub fn load_native(&mut self, image: &Image) -> NativeProcess {
        let segs = Self::segments(image);
        NativeProcess::build(&mut self.machine, &mut self.os, &segs, image.entry)
    }

    /// Reads words from a shared (insecure) page of an enclave segment.
    pub fn read_shared(
        &mut self,
        enclave: &Enclave,
        segment: usize,
        offset_words: usize,
        n: usize,
    ) -> Vec<u32> {
        // Split across page boundaries, like `write_shared`.
        let mut out = Vec::with_capacity(n);
        let mut off = offset_words;
        let mut rest = n;
        while rest > 0 {
            let page = off / 1024;
            let within = off % 1024;
            let take = rest.min(1024 - within);
            let pfn = enclave.shared_pfns[segment][page];
            out.extend(self.os.read_insecure(&mut self.machine, pfn, within, take));
            off += take;
            rest -= take;
        }
        out
    }

    /// Writes words into a shared page of an enclave segment.
    pub fn write_shared(
        &mut self,
        enclave: &Enclave,
        segment: usize,
        offset_words: usize,
        words: &[u32],
    ) {
        // Split across page boundaries.
        let mut off = offset_words;
        let mut rest = words;
        while !rest.is_empty() {
            let page = off / 1024;
            let within = off % 1024;
            let take = rest.len().min(1024 - within);
            let pfn = enclave.shared_pfns[segment][page];
            self.os
                .write_insecure(&mut self.machine, pfn, within, &rest[..take]);
            off += take;
            rest = &rest[take..];
        }
    }

    /// Simulated cycle counter.
    pub fn cycles(&self) -> u64 {
        self.machine.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use komodo_guest::progs;

    #[test]
    fn quickstart_flow() {
        let mut p = Platform::new();
        let e = p.load(&progs::adder()).unwrap();
        assert_eq!(p.run(&e, 0, [40, 2, 0]), EnclaveRun::Exited(42));
        p.destroy(&e).unwrap();
    }

    #[test]
    fn shared_io_roundtrip() {
        let mut p = Platform::new();
        let e = p.load(&progs::echo()).unwrap();
        p.write_shared(&e, 1, 0, &[10, 20, 30, 40]);
        assert_eq!(p.run(&e, 0, [4, 0, 0]), EnclaveRun::Exited(100));
        assert_eq!(p.read_shared(&e, 1, 512, 4), vec![10, 20, 30, 40]);
    }

    /// A whole platform must be `Send` so the fleet scheduler can park
    /// one per worker thread: machine, monitor and OS model are all
    /// owned plain data (audited: no `Rc`, no raw pointers, no interior
    /// mutability anywhere in their crates). Compile-time assertion.
    #[test]
    fn platform_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Platform>();
        assert_send::<PlatformConfig>();
    }

    #[test]
    fn config_builder_matches_struct_literal() {
        let a = PlatformConfig::default()
            .with_insecure_size(1 << 20)
            .with_npages(64)
            .with_seed(99);
        let b = PlatformConfig {
            insecure_size: 1 << 20,
            npages: 64,
            seed: 99,
        };
        assert_eq!(a.insecure_size, b.insecure_size);
        assert_eq!(a.npages, b.npages);
        assert_eq!(a.seed, b.seed);
    }

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        let cfg = PlatformConfig::default().with_seed(7);
        assert_eq!(cfg.derive_seed(3), cfg.derive_seed(3));
        let mut seen: Vec<u64> = (0..100).map(|i| cfg.derive_seed(i)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 100, "stream seeds must not collide");
        assert_ne!(
            cfg.derive_seed(0),
            PlatformConfig::default().with_seed(8).derive_seed(0),
            "different base seeds must derive different streams"
        );
    }

    #[test]
    fn reset_reproduces_a_fresh_boot() {
        let cfg = PlatformConfig::default()
            .with_insecure_size(1 << 20)
            .with_npages(64)
            .with_seed(21);
        let mut p = Platform::with_config(cfg.clone());
        // Dirty the platform thoroughly: run and destroy an enclave.
        let e = p.load(&progs::adder()).unwrap();
        assert_eq!(p.run(&e, 0, [40, 2, 0]), EnclaveRun::Exited(42));
        p.destroy(&e).unwrap();
        assert!(p.machine.mem.resident_pages() > 0);
        p.reset();
        assert_eq!(p.machine.mem.resident_pages(), 0, "reset frees every frame");
        let fresh = Platform::with_config(cfg);
        assert!(
            p.machine == fresh.machine,
            "reset must equal a fresh boot bit-for-bit"
        );
        assert_eq!(p.os.secure_available(), fresh.os.secure_available());
        // Same workload after reset: same result, same cycle count as on
        // a fresh platform (the deterministic-recycling contract).
        let run = |p: &mut Platform| {
            let e = p.load(&progs::adder()).unwrap();
            let r = p.run(&e, 0, [1, 2, 0]);
            (r, p.cycles())
        };
        let mut fresh = fresh;
        assert_eq!(run(&mut p), run(&mut fresh));
    }

    #[test]
    fn reset_with_seed_changes_the_attestation_identity() {
        let mut p = Platform::with_config(PlatformConfig::default().with_seed(1));
        let k1 = p.monitor.attest_key().to_vec();
        p.reset_with_seed(2);
        assert_eq!(p.config().seed, 2);
        assert_ne!(p.monitor.attest_key().to_vec(), k1);
        p.reset_with_seed(1);
        assert_eq!(p.monitor.attest_key().to_vec(), k1);
    }

    /// The simulated cost of building the two stock service enclaves on a
    /// fresh platform: cycles, word reads and word writes after boot and
    /// one `load`. The monitor copies, zeroes and measures whole pages as
    /// batched word ranges, and these values pin the per-word schedule
    /// those ranges charge. The second load of each image measures its
    /// pages through the page memo's hits and must end in the same
    /// machine.
    #[test]
    fn stock_image_loads_keep_their_counters() {
        use komodo_guest::{notary::notary_image, ra::ra_image};
        for (name, img, want) in [
            (
                "notary_image(1)",
                &notary_image(1),
                (532_596, 3_241, 12_428),
            ),
            ("ra_image()", ra_image(), (530_011, 3_224, 11_394)),
        ] {
            let loaded: Vec<Platform> = (0..2)
                .map(|_| {
                    let mut p = Platform::new();
                    p.load(img).unwrap();
                    p
                })
                .collect();
            for p in &loaded {
                let m = &p.machine;
                assert_eq!((m.cycles, m.mem.reads, m.mem.writes), want, "{name}");
            }
            assert!(
                loaded[0].machine == loaded[1].machine,
                "{name}: a repeated load must end in the same machine"
            );
        }
    }

    #[test]
    fn shared_io_splits_across_page_boundaries() {
        // Widen echo's shared segment to two pages so offsets ≥ 1024
        // words land on the second shared PFN.
        let mut img = progs::echo();
        img.segments[1].words = vec![0; 2048];
        let mut p = Platform::new();
        let e = p.load(&img).unwrap();
        let data: Vec<u32> = (0..8).map(|i| 0x1000 + i).collect();
        // Words 1020..1028 straddle the first/second shared page.
        p.write_shared(&e, 1, 1020, &data);
        assert_eq!(p.read_shared(&e, 1, 1020, 8), data);
        // A read fully inside the second page indexes that page, not a
        // wrapped offset in the first (the pre-fix failure mode).
        assert_eq!(p.read_shared(&e, 1, 1024, 4), data[4..]);
        assert_eq!(p.read_shared(&e, 1, 1027, 1), data[7..]);
    }

    #[test]
    fn multiple_enclaves_coexist() {
        let mut p = Platform::new();
        let a = p.load(&progs::secret_keeper()).unwrap();
        let b = p.load(&progs::secret_keeper()).unwrap();
        assert_eq!(p.run(&a, 0, [0, 111, 0]), EnclaveRun::Exited(0));
        assert_eq!(p.run(&b, 0, [0, 222, 0]), EnclaveRun::Exited(0));
        assert_eq!(p.run(&a, 0, [1, 0, 0]), EnclaveRun::Exited(111));
        assert_eq!(p.run(&b, 0, [1, 0, 0]), EnclaveRun::Exited(222));
    }

    #[test]
    fn armed_trace_captures_smc_and_lifecycle_events() {
        let mut p = Platform::new();
        p.set_trace(4096);
        let e = p.load(&progs::adder()).unwrap();
        assert_eq!(p.run(&e, 0, [40, 2, 0]), EnclaveRun::Exited(42));
        p.destroy(&e).unwrap();
        let text: Vec<String> = p
            .machine
            .trace
            .iter()
            .map(|s| s.event.to_string())
            .collect();
        assert!(text.iter().any(|t| t.starts_with("smc-entry")), "{text:?}");
        assert!(text.iter().any(|t| t.starts_with("smc-exit")), "{text:?}");
        assert!(
            text.iter().any(|t| t.starts_with("enclave-init")),
            "{text:?}"
        );
        assert!(
            text.iter().any(|t| t.starts_with("enclave-enter")),
            "{text:?}"
        );
        assert!(
            text.iter().any(|t| t.starts_with("enclave-exit")),
            "{text:?}"
        );
        assert!(
            text.iter().any(|t| t.starts_with("enclave-destroy")),
            "{text:?}"
        );
        assert!(
            text.iter().any(|t| t.starts_with("pgdb")),
            "page-DB transitions should be captured: {text:?}"
        );
    }

    #[test]
    fn flight_dump_hook_propagates_results_and_panics() {
        let mut p = Platform::new();
        p.set_trace(64);
        assert_eq!(p.with_flight_dump(|pp| pp.machine.cycles), p.machine.cycles);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.with_flight_dump(|_| -> u32 { panic!("synthetic monitor fault") })
        }));
        assert!(r.is_err(), "panic must propagate after the dump");
        // The platform is still usable after the unwind.
        assert!(p.machine.trace.enabled());
    }

    #[test]
    fn faulting_guest_reports_fault_only() {
        let mut p = Platform::new();
        let e = p.load(&progs::privilege_escalator()).unwrap();
        assert_eq!(p.run(&e, 0, [0; 3]), EnclaveRun::Faulted);
    }

    #[test]
    fn native_process_runs_same_binary() {
        struct ExitOnly;
        impl komodo_os::native::Syscalls for ExitOnly {
            fn handle(&mut self, m: &mut Machine, _os: &Os) -> Option<u32> {
                use komodo_armv7::regs::Reg;
                (m.reg(Reg::R(0)) == 0).then(|| m.reg(Reg::R(1)))
            }
        }
        let mut p = Platform::new();
        let np = p.load_native(&progs::adder());
        let r = np.run(&mut p.machine, &p.os, &mut ExitOnly, [5, 6, 0], 10_000);
        assert_eq!(r, komodo_os::native::NativeRun::Exited(11));
    }
}
