//! Chrome `trace_event` exporter.
//!
//! Renders a capture as the JSON object format understood by
//! `chrome://tracing` and Perfetto: SMC dispatches and enclave
//! occupancy become duration spans (`ph:"B"` / `ph:"E"`), everything
//! else becomes an instant (`ph:"i"`). Timestamps are simulated cycles
//! reported through the `ts` microsecond field — the viewer's absolute
//! units are meaningless for a simulator, only the relative timeline
//! matters.
//!
//! Hand-rolled JSON: every name is a static ASCII identifier and every
//! argument a number, so no string escaping is required (and the build
//! stays serde-free).

use crate::event::{mode_name, page_type_name, Event, Stamped};
use core::fmt::Write as _;

/// Phase and rendered `"name":…,"args":{…}` fragment for one event.
fn render(e: &Event) -> (char, String) {
    match *e {
        Event::SmcEntry { call } => ('B', format!(r#""name":"smc","args":{{"call":{call}}}"#)),
        Event::SmcExit { call, err, retval } => (
            'E',
            format!(r#""name":"smc","args":{{"call":{call},"err":{err},"retval":{retval}}}"#),
        ),
        Event::EnclaveEnter { thread } => (
            'B',
            format!(r#""name":"enclave","args":{{"thread":{thread},"kind":"enter"}}"#),
        ),
        Event::EnclaveResume { thread } => (
            'B',
            format!(r#""name":"enclave","args":{{"thread":{thread},"kind":"resume"}}"#),
        ),
        Event::EnclaveExit { thread, err } => (
            'E',
            format!(r#""name":"enclave","args":{{"thread":{thread},"err":{err}}}"#),
        ),
        Event::WorldSwitch { ns } => (
            'i',
            format!(r#""name":"world-switch","args":{{"ns":{}}}"#, ns as u32),
        ),
        Event::ExnEntry {
            vector,
            from_mode,
            to_mode,
        } => (
            'i',
            format!(
                r#""name":"exn-entry","args":{{"vector":"{}","from":"{}","to":"{}"}}"#,
                vector.name(),
                mode_name(from_mode),
                mode_name(to_mode)
            ),
        ),
        Event::ExnExit { to_mode } => (
            'i',
            format!(
                r#""name":"exn-exit","args":{{"to":"{}"}}"#,
                mode_name(to_mode)
            ),
        ),
        Event::EnclaveInit { addrspace } => (
            'i',
            format!(r#""name":"enclave-init","args":{{"addrspace":{addrspace}}}"#),
        ),
        Event::EnclaveDestroy { page } => (
            'i',
            format!(r#""name":"enclave-destroy","args":{{"page":{page}}}"#),
        ),
        Event::PageDbTransition { page, from, to } => (
            'i',
            format!(
                r#""name":"pgdb","args":{{"page":{page},"from":"{}","to":"{}"}}"#,
                page_type_name(from),
                page_type_name(to)
            ),
        ),
        Event::TlbFlush => ('i', r#""name":"tlb-flush","args":{}"#.to_string()),
        Event::DTlbInval { cause } => (
            'i',
            format!(
                r#""name":"dtlb-inval","args":{{"cause":"{}"}}"#,
                cause.name()
            ),
        ),
        Event::SbBuild { entry_va, len } => (
            'i',
            format!(r#""name":"sb-build","args":{{"entry_va":{entry_va},"len":{len}}}"#),
        ),
        Event::SbInval { cause } => (
            'i',
            format!(r#""name":"sb-inval","args":{{"cause":"{}"}}"#, cause.name()),
        ),
        Event::ReqDispatch { req, kind } => (
            'B',
            format!(r#""name":"request","args":{{"req":{req},"kind":{kind}}}"#),
        ),
        Event::ReqComplete { req, ok } => (
            'E',
            format!(
                r#""name":"request","args":{{"req":{req},"ok":{}}}"#,
                ok as u32
            ),
        ),
        Event::ChaosInject { kind, arg } => (
            'i',
            format!(r#""name":"chaos","args":{{"kind":{kind},"arg":{arg}}}"#),
        ),
        Event::HsPhase { phase, session } => (
            'i',
            format!(
                r#""name":"handshake","args":{{"phase":"{}","session":{session}}}"#,
                crate::event::hs_phase_name(phase)
            ),
        ),
    }
}

/// Renders `events` (oldest → newest, as produced by
/// [`FlightRecorder::iter`](crate::FlightRecorder::iter)) as a complete
/// Chrome `trace_event` JSON document.
pub fn chrome_trace<'a>(events: impl IntoIterator<Item = &'a Stamped>) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for s in events {
        let (ph, body) = render(&s.event);
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            r#"{{"ph":"{ph}","ts":{},"pid":1,"tid":1,{body}"#,
            s.cycle
        );
        if ph == 'i' {
            out.push_str(r#","s":"t""#);
        }
        out.push('}');
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ExnVector;
    use crate::ring::FlightRecorder;

    /// Minimal structural JSON check: balanced braces/brackets outside
    /// strings, no trailing commas before closers. (CI additionally
    /// parses an emitted trace with a real JSON parser.)
    fn assert_structurally_sound(s: &str) {
        let mut depth: i64 = 0;
        let mut in_str = false;
        let mut prev = ' ';
        for c in s.chars() {
            if in_str {
                if c == '"' && prev != '\\' {
                    in_str = false;
                }
            } else {
                match c {
                    '"' => in_str = true,
                    '{' | '[' => depth += 1,
                    '}' | ']' => {
                        assert_ne!(prev, ',', "trailing comma before closer in {s}");
                        depth -= 1;
                        assert!(depth >= 0, "unbalanced closers in {s}");
                    }
                    _ => {}
                }
            }
            if !c.is_whitespace() {
                prev = c;
            }
        }
        assert_eq!(depth, 0, "unbalanced JSON in {s}");
        assert!(!in_str, "unterminated string in {s}");
    }

    #[test]
    fn empty_capture_is_still_a_document() {
        let r = FlightRecorder::with_capacity(8);
        let j = chrome_trace(r.iter());
        assert_structurally_sound(&j);
        assert!(j.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn smc_span_and_instants_render() {
        let mut r = FlightRecorder::with_capacity(16);
        r.record(100, Event::WorldSwitch { ns: false });
        r.record(
            101,
            Event::ExnEntry {
                vector: ExnVector::Smc,
                from_mode: 0x1f,
                to_mode: 0x16,
            },
        );
        r.record(102, Event::SmcEntry { call: 10 });
        r.record(
            500,
            Event::SmcExit {
                call: 10,
                err: 0,
                retval: 7,
            },
        );
        let j = chrome_trace(r.iter());
        assert_structurally_sound(&j);
        assert!(j.contains(r#""ph":"B","ts":102"#), "{j}");
        assert!(j.contains(r#""ph":"E","ts":500"#), "{j}");
        assert!(j.contains(r#""vector":"smc""#), "{j}");
        assert!(j.contains(r#""s":"t""#), "{j}");
    }

    #[test]
    fn every_event_kind_renders_soundly() {
        let mut r = FlightRecorder::with_capacity(32);
        let all = [
            Event::WorldSwitch { ns: true },
            Event::ExnEntry {
                vector: ExnVector::Irq,
                from_mode: 0x10,
                to_mode: 0x12,
            },
            Event::ExnExit { to_mode: 0x10 },
            Event::SmcEntry { call: 1 },
            Event::SmcExit {
                call: 1,
                err: 0,
                retval: 0,
            },
            Event::EnclaveInit { addrspace: 3 },
            Event::EnclaveEnter { thread: 5 },
            Event::EnclaveResume { thread: 5 },
            Event::EnclaveExit { thread: 5, err: 0 },
            Event::EnclaveDestroy { page: 3 },
            Event::PageDbTransition {
                page: 9,
                from: 0,
                to: 5,
            },
            Event::TlbFlush,
            Event::DTlbInval {
                cause: crate::event::InvalCause::World,
            },
            Event::SbBuild {
                entry_va: 0x8000,
                len: 12,
            },
            Event::SbInval {
                cause: crate::event::InvalCause::CodeGen,
            },
            Event::SbInval {
                cause: crate::event::InvalCause::Toggle,
            },
            Event::ReqDispatch { req: 42, kind: 2 },
            Event::ReqComplete { req: 42, ok: true },
            Event::HsPhase {
                phase: 2,
                session: 7,
            },
        ];
        for (i, e) in all.into_iter().enumerate() {
            r.record(i as u64, e);
        }
        let j = chrome_trace(r.iter());
        assert_structurally_sound(&j);
        assert_eq!(j.matches("\"ph\"").count(), 19, "{j}");
        assert!(j.contains(r#""phase":"establish""#), "{j}");
    }
}
