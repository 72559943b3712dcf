//! §7.3 evolution experiment: "verified software can evolve faster than
//! hardware".
//!
//! The paper's evidence: after building a static (SGXv1-style) monitor,
//! the authors added SGXv2-style dynamic memory management — `AllocSpare`,
//! the enclave-side `InitL2PTable`/`MapData`/`UnmapData`, TLB-consistency
//! modelling, relaxed PageDB invariants — in ~6 person-months, while real
//! SGXv2 hardware remained unshipped 3 years after specification.
//!
//! This harness (a) demonstrates the dynamic-memory feature set working
//! end-to-end, and (b) reports the feature's code-size increment in this
//! reproduction, the analogue of the paper's effort accounting.

use komodo::{Platform, PlatformConfig};
use komodo_guest::progs;
use komodo_os::EnclaveRun;

/// Source items that exist only for dynamic memory management.
const DYNAMIC_FNS: &[&str] = &[
    "fn alloc_spare",
    "fn sm_alloc_spare",
    "fn svc_init_l2ptable",
    "fn svc_map_data",
    "fn svc_unmap_data",
    "fn svc_init_l2pt",
    "fn svc_map_data",
    "fn svc_unmap_data",
    "fn check_spare",
    "fn install_l2pt",
];

fn count_dynamic_lines(path: &str) -> usize {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0;
    };
    let lines: Vec<&str> = text.lines().collect();
    let mut total = 0;
    let mut i = 0;
    while i < lines.len() {
        let l = lines[i].trim_start();
        if DYNAMIC_FNS
            .iter()
            .any(|f| l.contains(f) && l.contains("fn "))
        {
            // Count to the end of the function: until the next line that
            // starts a new item at the same indent (heuristic: `fn `, `pub
            // fn`, `impl`, `#[` at indent ≤ current).
            let indent = lines[i].len() - lines[i].trim_start().len();
            total += 1;
            i += 1;
            while i < lines.len() {
                let cur = lines[i];
                let ci = cur.len() - cur.trim_start().len();
                let t = cur.trim_start();
                if !t.is_empty()
                    && ci <= indent
                    && (t.starts_with("fn ")
                        || t.starts_with("pub fn")
                        || t.starts_with("pub(crate) fn")
                        || t.starts_with("#[")
                        || t.starts_with("impl")
                        || t.starts_with("}"))
                    && !t.starts_with("} else")
                {
                    if t == "}" {
                        // Closing brace of the fn itself.
                        total += 1;
                        i += 1;
                    }
                    break;
                }
                if !t.is_empty() && !t.starts_with("//") {
                    total += 1;
                }
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    total
}

/// `--trace-out <path>` / `--trace-out=<path>`: arm the flight recorder
/// for the dynamic-memory demo and write the capture as a Chrome
/// `trace_event` JSON document (load in `chrome://tracing` / Perfetto).
fn trace_out_path() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace-out" {
            return Some(args.next().expect("--trace-out requires a path").into());
        }
        if let Some(p) = a.strip_prefix("--trace-out=") {
            return Some(p.into());
        }
    }
    None
}

fn main() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let trace_out = trace_out_path();
    println!("§7.3: evolving the monitor — SGXv2-style dynamic memory");
    println!();

    // (a) The feature works end-to-end.
    let mut p = Platform::with_config(PlatformConfig::default());
    if trace_out.is_some() {
        p.set_trace(1 << 16);
    }
    let e = p.load_with(&progs::dynamic_memory_user(), 1, 1).unwrap();
    let spare = e.spares[0] as u32;
    let r = p.run(&e, 0, [spare, 0, 0]);
    assert_eq!(r, EnclaveRun::Exited(0x5eed_f00d), "dynamic memory broken");
    p.destroy(&e).unwrap();
    println!("Dynamic-memory demo: enclave mapped spare page {spare}, wrote and");
    println!("read back 0x5eedf00d through it, unmapped it, and exited. OK.");
    println!();
    if let Some(path) = &trace_out {
        let json = komodo_trace::chrome_trace(p.machine.trace.iter());
        std::fs::write(path, &json)
            .unwrap_or_else(|err| panic!("could not write {}: {err}", path.display()));
        println!(
            "Trace capture: {} events ({} recorded, {} dropped) written to {}",
            p.machine.trace.len(),
            p.machine.trace.total_recorded(),
            p.machine.trace.dropped(),
            path.display()
        );
        println!("Unified metrics snapshot for the demo machine:");
        println!("{}", p.machine.metrics_snapshot().to_json(0));
        println!();
    }

    // (b) Feature increment accounting.
    println!("Feature increment (lines of dynamic-memory code in this repo):");
    let mut total = 0;
    for f in [
        "crates/spec/src/svc.rs",
        "crates/spec/src/smc.rs",
        "crates/monitor/src/monitor.rs",
    ] {
        let n = count_dynamic_lines(root.join(f).to_str().unwrap());
        println!("  {f:<36} {n:>5}");
        total += n;
    }
    println!("  {:<36} {total:>5}", "total");
    println!();
    println!(
        "Paper: the equivalent increment over the static SGXv1-style monitor\n\
         took ~6 person-months including the updated noninterference proofs —\n\
         while SGXv2 hardware was still unannounced 3 years after its\n\
         specification (§1, §7.3)."
    );
}
