//! The benchmark's own checks: runs repeat exactly for a seed, a second
//! seed changes the inputs and still verifies, and the metric names the
//! program prints are the ones `BENCHMARK.json` declares.

use komodo_svcbench::{run, Outcome, Params, Workload};

/// A small run of `workload`: a few ops, a few resident sessions.
fn small(workload: Workload, seed: u64) -> Params {
    Params {
        workload,
        seed,
        ops: 24,
        residents: 8,
        warmup: 4,
        setups: 1,
        trace: false,
        log: true,
    }
}

fn value(o: &Outcome, name: &str) -> f64 {
    o.e2e
        .iter()
        .chain(&o.layers)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

/// Metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn each_workload_repeats_exactly() {
    for w in Workload::ALL {
        let (a, b) = (run(&small(w, 7)), run(&small(w, 7)));
        assert_eq!(a.failed, 0, "{w:?}: {:?}", a.first_failure);
        assert!(a.attempted > 24);
        assert!(!a.req_log.is_empty());
        assert_eq!(a.req_log, b.req_log, "{w:?}: request-id sequence");
        assert_eq!(a.sim_cycles, b.sim_cycles, "{w:?}: simulated counters");
        assert_eq!(a.input_digest, b.input_digest);
        assert_eq!(
            value(&a, "sim_kcycles_per_op"),
            value(&b, "sim_kcycles_per_op")
        );
    }
}

#[test]
fn a_second_seed_changes_the_inputs_and_still_verifies() {
    for w in Workload::ALL {
        let (a, b) = (run(&small(w, 7)), run(&small(w, 8)));
        assert_eq!(b.failed, 0, "{w:?}: {:?}", b.first_failure);
        assert_eq!(value(&b, "success_ratio"), 1.0);
        assert_ne!(
            a.input_digest, b.input_digest,
            "{w:?}: inputs follow the seed"
        );
        assert_eq!(a.req_log.len(), b.req_log.len());
    }
}

#[test]
fn untraced_runs_report_the_declared_end_to_end_metrics() {
    let names = declared("end_to_end");
    assert!(names.contains(&"setup_s".to_string()));
    for w in Workload::ALL {
        let o = run(&small(w, 3));
        let got: Vec<&str> = o.e2e.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(got, names, "{w:?}");
        for m in &o.e2e {
            assert!(m.value.is_finite() && m.value > 0.0, "{w:?}: {m:?}");
        }
    }
}

#[test]
fn traced_runs_report_every_layer_and_replay_exactly() {
    let names = declared("per_layer");
    for w in Workload::ALL {
        let o = run(&Params {
            trace: true,
            ..small(w, 5)
        });
        assert_eq!(o.failed, 0, "{w:?}: {:?}", o.first_failure);
        let got: Vec<&str> = o.layers.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(got, names, "{w:?}");
        assert_eq!(value(&o, "replay.mismatches"), 0.0, "{w:?}");
        let covered = match w {
            Workload::HandshakeChurn => "replay.coverage.handshake_begin",
            Workload::OneshotAttest => "replay.coverage.attest",
            Workload::SessionTraffic => "replay.coverage.attested_send",
        };
        assert!(value(&o, covered) > 0.0, "{w:?}");
        let spans = o.spans_jsonl.expect("traced runs keep spans");
        assert!(spans.lines().count() > 24, "{w:?}");
        assert!(spans.contains("\"name\": \"service.submit\""));
    }
}
