//! The event taxonomy: what the simulator and monitor consider worth
//! remembering at their boundaries.
//!
//! Events are plain `Copy` data — no strings, no allocation — so
//! recording one is a couple of word moves. Everything needed to render
//! a human-readable line (or a Chrome trace entry) later is carried as
//! small integers: exception vectors and invalidation causes as local
//! enums, CPU modes as raw CPSR\[4:0\] bits, page-DB types as the
//! monitor's `ptype` codes.

/// Exception vector taken or returned from. Mirrors the simulator's
/// `ExceptionKind` without depending on it (this crate is a leaf).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExnVector {
    /// Supervisor call (`SVC`) — an enclave calling the monitor.
    Svc,
    /// Secure monitor call (`SMC`) — the OS calling the monitor.
    Smc,
    /// Normal interrupt request.
    Irq,
    /// Fast interrupt request.
    Fiq,
    /// Data abort (translation or permission fault on a data access).
    DataAbort,
    /// Prefetch abort (translation or permission fault on a fetch).
    PrefetchAbort,
    /// Undefined instruction.
    Undefined,
}

impl ExnVector {
    /// Short lowercase name for dumps and trace labels.
    pub fn name(self) -> &'static str {
        match self {
            ExnVector::Svc => "svc",
            ExnVector::Smc => "smc",
            ExnVector::Irq => "irq",
            ExnVector::Fiq => "fiq",
            ExnVector::DataAbort => "dabt",
            ExnVector::PrefetchAbort => "pabt",
            ExnVector::Undefined => "und",
        }
    }
}

/// Why a host-side cache (data-TLB or superblock cache) was dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvalCause {
    /// Full architectural TLB flush.
    Flush,
    /// `TTBR0` load or page-table store.
    Ttbr,
    /// TrustZone world switch (`SCR.NS` write).
    World,
    /// A store hit predecoded code (memory generation bump).
    CodeGen,
    /// The fetch accelerator was switched on or off.
    Toggle,
}

impl InvalCause {
    /// Short lowercase name for dumps and trace labels.
    pub fn name(self) -> &'static str {
        match self {
            InvalCause::Flush => "flush",
            InvalCause::Ttbr => "ttbr",
            InvalCause::World => "world",
            InvalCause::CodeGen => "code-gen",
            InvalCause::Toggle => "toggle",
        }
    }
}

/// Human-readable name of a CPSR\[4:0\] mode encoding.
pub fn mode_name(bits: u8) -> &'static str {
    match bits {
        0x10 => "usr",
        0x11 => "fiq",
        0x12 => "irq",
        0x13 => "svc",
        0x16 => "mon",
        0x17 => "abt",
        0x1b => "und",
        0x1f => "sys",
        _ => "?",
    }
}

/// Human-readable name of a page-DB `ptype` code (the monitor's
/// on-"hardware" encoding: FREE=0 … SPARE=6; kept in sync with
/// `komodo-monitor`'s `pgdb` module by its tests).
pub fn page_type_name(code: u8) -> &'static str {
    match code {
        0 => "free",
        1 => "addrspace",
        2 => "l1pt",
        3 => "l2pt",
        4 => "thread",
        5 => "data",
        6 => "spare",
        _ => "?",
    }
}

/// One boundary event. See the module docs for the encoding conventions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// `SCR.NS` changed value (TrustZone world switch).
    WorldSwitch {
        /// The new `SCR.NS` value (`true` = normal world).
        ns: bool,
    },
    /// Exception entry: the machine banked state and switched mode.
    ExnEntry {
        /// Vector taken.
        vector: ExnVector,
        /// CPSR\[4:0\] of the interrupted context.
        from_mode: u8,
        /// CPSR\[4:0\] of the handler mode.
        to_mode: u8,
    },
    /// Exception return (`MOVS PC, LR`): SPSR restored.
    ExnExit {
        /// CPSR\[4:0\] of the resumed context.
        to_mode: u8,
    },
    /// Monitor began dispatching an SMC.
    SmcEntry {
        /// Call number (KOM_SMC_*).
        call: u32,
    },
    /// Monitor finished an SMC and is about to return to the OS.
    SmcExit {
        /// Call number (KOM_SMC_*).
        call: u32,
        /// Error code returned in `R0` (KOM_ERR_*; 0 = success).
        err: u32,
        /// Secondary return value (`R1`), call-specific.
        retval: u32,
    },
    /// An address space finished `InitAddrspace`.
    EnclaveInit {
        /// Page number of the new address-space page.
        addrspace: u32,
    },
    /// `Enter`: first dispatch of an enclave thread.
    EnclaveEnter {
        /// Page number of the thread page.
        thread: u32,
    },
    /// `Resume`: re-dispatch of an interrupted enclave thread.
    EnclaveResume {
        /// Page number of the thread page.
        thread: u32,
    },
    /// Enclave execution left the monitor's dispatch loop.
    EnclaveExit {
        /// Page number of the thread page.
        thread: u32,
        /// Error code the dispatch returned (KOM_ERR_*).
        err: u32,
    },
    /// An address space was torn down (`Remove` of the addrspace page).
    EnclaveDestroy {
        /// Page number of the removed address-space page.
        page: u32,
    },
    /// A page-DB entry changed type.
    PageDbTransition {
        /// Page number.
        page: u32,
        /// Previous `ptype` code (see [`page_type_name`]).
        from: u8,
        /// New `ptype` code.
        to: u8,
    },
    /// Full architectural TLB flush.
    TlbFlush,
    /// The software data-TLB dropped all entries.
    DTlbInval {
        /// Attribution.
        cause: InvalCause,
    },
    /// The block engine built a new block and compiled its micro-op
    /// trace.
    SbBuild {
        /// Virtual address of the block's entry point.
        entry_va: u32,
        /// Instructions in the block.
        len: u32,
    },
    /// The block cache dropped all blocks and their compiled traces.
    SbInval {
        /// Attribution.
        cause: InvalCause,
    },
    /// A service-node request left the queue and began executing on a
    /// shard (the enqueue→dispatch edge of its latency span).
    ReqDispatch {
        /// Service-assigned request id.
        req: u32,
        /// Request-kind code (the service crate's `Request::kind_code`).
        kind: u8,
    },
    /// A service-node request finished (the dispatch→complete edge).
    ReqComplete {
        /// Service-assigned request id.
        req: u32,
        /// Whether the request succeeded.
        ok: bool,
    },
    /// The chaos harness injected a fault (see `komodo-chaos`); stamped
    /// at the injection point so failure dumps show faults in-line with
    /// the machine events they perturb.
    ChaosInject {
        /// Fault-kind code (the chaos crate's `Fault::kind_code`).
        kind: u8,
        /// Fault-specific payload (cycle deadline, page number, …).
        arg: u32,
    },
    /// A remote-attestation handshake crossed a phase boundary on a
    /// session platform (see `hs_phase_name` for the phase codes).
    HsPhase {
        /// Phase code: 0 begin, 1 quote, 2 establish, 3 reject.
        phase: u8,
        /// Service session id (truncated to 32 bits for the compact
        /// event encoding).
        session: u32,
    },
}

/// Human-readable name of a handshake phase code ([`Event::HsPhase`]):
/// `begin` (verifier nonce and share accepted), `quote` (quote and
/// enclave share published), `establish` (verifier confirmation tag
/// accepted — traffic keys live), `reject` (confirmation failed or the
/// handshake expired; the session is torn down).
pub fn hs_phase_name(code: u8) -> &'static str {
    match code {
        0 => "begin",
        1 => "quote",
        2 => "establish",
        3 => "reject",
        _ => "?",
    }
}

impl Event {
    /// Stable short name (used as the Chrome trace event name).
    pub fn name(&self) -> &'static str {
        match self {
            Event::WorldSwitch { .. } => "world-switch",
            Event::ExnEntry { .. } => "exn-entry",
            Event::ExnExit { .. } => "exn-exit",
            Event::SmcEntry { .. } => "smc",
            Event::SmcExit { .. } => "smc",
            Event::EnclaveInit { .. } => "enclave-init",
            Event::EnclaveEnter { .. } => "enclave",
            Event::EnclaveResume { .. } => "enclave",
            Event::EnclaveExit { .. } => "enclave",
            Event::EnclaveDestroy { .. } => "enclave-destroy",
            Event::PageDbTransition { .. } => "pgdb",
            Event::TlbFlush => "tlb-flush",
            Event::DTlbInval { .. } => "dtlb-inval",
            Event::SbBuild { .. } => "sb-build",
            Event::SbInval { .. } => "sb-inval",
            Event::ReqDispatch { .. } => "request",
            Event::ReqComplete { .. } => "request",
            Event::ChaosInject { .. } => "chaos",
            Event::HsPhase { .. } => "handshake",
        }
    }
}

impl core::fmt::Display for Event {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            Event::WorldSwitch { ns } => {
                write!(f, "world-switch ns={}", ns as u32)
            }
            Event::ExnEntry {
                vector,
                from_mode,
                to_mode,
            } => write!(
                f,
                "exn-entry {} {}->{}",
                vector.name(),
                mode_name(from_mode),
                mode_name(to_mode)
            ),
            Event::ExnExit { to_mode } => write!(f, "exn-exit ->{}", mode_name(to_mode)),
            Event::SmcEntry { call } => write!(f, "smc-entry call={call}"),
            Event::SmcExit { call, err, retval } => {
                write!(f, "smc-exit call={call} err={err} ret={retval:#x}")
            }
            Event::EnclaveInit { addrspace } => write!(f, "enclave-init asp={addrspace}"),
            Event::EnclaveEnter { thread } => write!(f, "enclave-enter th={thread}"),
            Event::EnclaveResume { thread } => write!(f, "enclave-resume th={thread}"),
            Event::EnclaveExit { thread, err } => {
                write!(f, "enclave-exit th={thread} err={err}")
            }
            Event::EnclaveDestroy { page } => write!(f, "enclave-destroy page={page}"),
            Event::PageDbTransition { page, from, to } => write!(
                f,
                "pgdb page={page} {}->{}",
                page_type_name(from),
                page_type_name(to)
            ),
            Event::TlbFlush => write!(f, "tlb-flush"),
            Event::DTlbInval { cause } => write!(f, "dtlb-inval cause={}", cause.name()),
            Event::SbBuild { entry_va, len } => {
                write!(f, "sb-build va={entry_va:#010x} len={len}")
            }
            Event::SbInval { cause } => write!(f, "sb-inval cause={}", cause.name()),
            Event::ReqDispatch { req, kind } => {
                write!(f, "req-dispatch req={req} kind={kind}")
            }
            Event::ReqComplete { req, ok } => {
                write!(f, "req-complete req={req} ok={}", ok as u32)
            }
            Event::ChaosInject { kind, arg } => {
                write!(f, "chaos-inject kind={kind} arg={arg:#x}")
            }
            Event::HsPhase { phase, session } => {
                write!(f, "hs-{} session={session}", hs_phase_name(phase))
            }
        }
    }
}

/// An [`Event`] stamped with the simulated cycle counter at which it was
/// recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stamped {
    /// Machine cycle counter when the event was recorded.
    pub cycle: u64,
    /// The event.
    pub event: Event,
}

impl core::fmt::Display for Stamped {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{:>10}] {}", self.cycle, self.event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact_and_named() {
        let s = Stamped {
            cycle: 42,
            event: Event::ExnEntry {
                vector: ExnVector::Smc,
                from_mode: 0x1f,
                to_mode: 0x16,
            },
        };
        let line = s.to_string();
        assert!(line.contains("exn-entry smc sys->mon"), "{line}");
        assert!(line.contains("42"), "{line}");
    }

    #[test]
    fn page_type_names_cover_the_ptype_codes() {
        assert_eq!(page_type_name(0), "free");
        assert_eq!(page_type_name(1), "addrspace");
        assert_eq!(page_type_name(4), "thread");
        assert_eq!(page_type_name(6), "spare");
        assert_eq!(page_type_name(9), "?");
    }

    #[test]
    fn handshake_phases_are_named() {
        for (code, name) in [
            (0u8, "begin"),
            (1, "quote"),
            (2, "establish"),
            (3, "reject"),
        ] {
            assert_eq!(hs_phase_name(code), name);
            let line = Event::HsPhase {
                phase: code,
                session: 9,
            }
            .to_string();
            assert!(line.contains(name) && line.contains("session=9"), "{line}");
        }
        assert_eq!(hs_phase_name(7), "?");
    }

    #[test]
    fn mode_names_cover_the_encodings() {
        for (bits, name) in [
            (0x10u8, "usr"),
            (0x11, "fiq"),
            (0x12, "irq"),
            (0x13, "svc"),
            (0x16, "mon"),
            (0x17, "abt"),
            (0x1b, "und"),
            (0x1f, "sys"),
        ] {
            assert_eq!(mode_name(bits), name);
        }
        assert_eq!(mode_name(0), "?");
    }
}
