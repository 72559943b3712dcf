//! Command line of the service benchmark:
//!
//! ```text
//! svcbench --workload <handshake_churn|oneshot_attest|session_traffic>
//!          [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Prints every metric by name with its unit, the sample counts and the
//! host facts, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). A traced run also writes its spans
//! to `out/spans-<workload>-seed<n>.jsonl` under the package directory.
//! Exits non-zero if any op fails or any reply fails verification.

use std::process::ExitCode;

use komodo_svcbench::{host, run, Metric, Params, Workload};

/// Seed used when the command line names none.
const DEFAULT_SEED: u64 = 1;

/// Measured seconds when the command line names none.
const DEFAULT_SECONDS: u64 = 20;

fn usage(msg: &str) -> ExitCode {
    eprintln!("svcbench: {msg}");
    eprintln!(
        "usage: svcbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn json_metrics(ms: &[Metric]) -> String {
    let cells: Vec<String> = ms
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", cells.join(", "))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, DEFAULT_SEED, DEFAULT_SECONDS, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        let parsed = match flag.as_str() {
            "--workload" => Workload::parse(value)
                .map(|w| workload = Some(w))
                .ok_or(format!("unknown workload {value}")),
            "--seed" => number().map(|n| seed = n),
            "--seconds" => number().map(|n| seconds = n),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    Ok(())
                }
                _ => Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => Err(format!("unknown argument {flag}")),
        };
        if let Err(e) = parsed {
            return usage(&e);
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };

    let out = run(&Params::for_run(workload, seed, seconds, trace));

    let mode = if trace { "traced" } else { "untraced" };
    println!("svcbench {} ({mode}, seed {seed})", workload.name());
    let fact = |k: &str| {
        out.facts
            .iter()
            .find(|(name, _)| *name == k)
            .map_or("?", |(_, v)| v.as_str())
    };
    println!(
        "  {} ops verified in {} block(s); timings are block medians; setup_s is the median of {} set-up(s)",
        fact("samples"),
        fact("blocks"),
        fact("setups_s").split(' ').count()
    );
    let shown = if trace { &out.layers } else { &out.e2e };
    for m in shown {
        println!("  {:<36} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let mut facts = out.facts.clone();
    facts.push(("git_revision", host::git_revision()));
    facts.push(("source_digest", host::source_digest()));
    let cells: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    println!("host {{{}}}", cells.join(", "));
    if let Some(spans) = &out.spans_jsonl {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("svcbench: could not write spans: {e}"),
        }
    }
    if let Some(f) = &out.first_failure {
        eprintln!("svcbench: first failure: {f}");
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        json_metrics(shown)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
