//! Closed-loop benchmark of the Komodo service node.
//!
//! One process runs one workload against a node of [`SHARDS`] shards,
//! driven from outside through `komodo-service`'s public API by the
//! generator in [`generator`]. Every reply is checked client-side
//! ([`client`]). The untraced run gives the end-to-end metrics; a
//! separate traced run records spans ([`spans`]) around the
//! benchmark's own calls and replays the op inputs through the lower
//! crates ([`replay`]) for the per-layer metrics. See README.md for the
//! workloads, the metrics and why each was chosen.

pub mod client;
pub mod generator;
pub mod host;
pub mod replay;
pub mod spans;

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use komodo_service::{Request, RequestRecord, Service, ServiceConfig};

use client::{Client, Inputs};
use generator::{Generator, Mark, Phase, Source, DEPTH};
use spans::Spans;

/// Worker shards of the node under test.
pub const SHARDS: usize = 2;

/// Ops each workload runs before the measured phase, after one full
/// session lifecycle: enough for both shards to take work.
pub const WARMUP_OPS: u64 = 16;

/// Resident attested sessions of `session_traffic`.
pub const RESIDENTS: usize = 512;

/// Fewest measured ops in a run: ten latency samples lie beyond p99.
pub const MIN_OPS: u64 = 1000;

/// The request kinds the workloads send: kind code, metric suffix, and
/// the replay spans that redo the kind's handler work.
fn kinds() -> [(u8, &'static str, &'static [&'static str]); 5] {
    let (session, tag) = (0, [0; 8]);
    [
        (
            Request::Attest { report: tag }.kind_code(),
            "attest",
            &["komodo.reset", "monitor.load.notary", "guest.notary"],
        ),
        (
            Request::HandshakeBegin {
                nonce: [0; 4],
                verifier_share: 0,
            }
            .kind_code(),
            "handshake_begin",
            &["komodo.boot", "monitor.load.ra", "guest.ra_begin"],
        ),
        (
            Request::HandshakeConfirm { session, tag }.kind_code(),
            "handshake_confirm",
            &["guest.confirm"],
        ),
        (
            Request::AttestedSend {
                session,
                payload: tag,
            }
            .kind_code(),
            "attested_send",
            &["guest.send"],
        ),
        (
            Request::SessionClose { session }.kind_code(),
            "session_close",
            &["monitor.destroy", "komodo.drop"],
        ),
    ]
}

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Full attested-session lifecycles: begin, quote check, confirm,
    /// one send, close.
    HandshakeChurn,
    /// Stateless `Attest` requests on the shards' pooled platforms.
    OneshotAttest,
    /// Sends to resident attested sessions opened during setup.
    SessionTraffic,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::HandshakeChurn,
        Workload::OneshotAttest,
        Workload::SessionTraffic,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HandshakeChurn => "handshake_churn",
            Workload::OneshotAttest => "oneshot_attest",
            Workload::SessionTraffic => "session_traffic",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn source(self) -> Source {
        match self {
            Workload::HandshakeChurn => Source::Lifecycle,
            Workload::OneshotAttest => Source::Attest,
            Workload::SessionTraffic => Source::Send,
        }
    }

    /// Measured ops per second of `--seconds`: about 80% of the
    /// workload's throughput on a two-vCPU x86-64 host, so that a run
    /// measures roughly that long while its op count stays fixed.
    fn ops_per_second(self) -> u64 {
        match self {
            Workload::HandshakeChurn => 150,
            Workload::OneshotAttest => 1900,
            Workload::SessionTraffic => 3000,
        }
    }

    /// Node set-ups per run; `setup_s` is their median. Fewer for
    /// `session_traffic`, whose set-up opens every resident session.
    fn setups(self) -> usize {
        match self {
            Workload::SessionTraffic => 3,
            _ => 9,
        }
    }

    /// Ops the traced run replays: lifecycles, attestations, or resident
    /// sessions rebuilt with all of their traced sends.
    fn replay_limit(self) -> usize {
        match self {
            Workload::HandshakeChurn => 48,
            Workload::OneshotAttest => 400,
            Workload::SessionTraffic => 12,
        }
    }
}

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// The workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Measured ops.
    pub ops: u64,
    /// Resident sessions (`session_traffic` only).
    pub residents: usize,
    /// Warm-up ops after the first session lifecycle.
    pub warmup: u64,
    /// Node set-ups, the last of which runs the measured phase.
    pub setups: usize,
    /// Traced run: half the ops untraced, half traced, then the replay.
    pub trace: bool,
    /// Keep the request log and per-op records (tests).
    pub log: bool,
}

impl Params {
    /// The command line's parameters: op count from `seconds`, every
    /// other size fixed.
    pub fn for_run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Params {
        Params {
            workload,
            seed,
            ops: (seconds * workload.ops_per_second()).max(MIN_OPS),
            residents: RESIDENTS,
            warmup: WARMUP_OPS,
            setups: workload.setups(),
            trace,
            log: false,
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops driven, set-ups included.
    pub attempted: u64,
    /// Ops refused, failed or unverified, set-ups included.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
    /// End-to-end metrics (untraced run).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub layers: Vec<Metric>,
    /// Sample counts and host facts, for the report.
    pub facts: Vec<(&'static str, String)>,
    /// Request id and kind of every request of the final node, in
    /// submission order (`log` runs).
    pub req_log: Vec<(u64, u8)>,
    /// Request id and simulated cycles of every record of the final
    /// node, by id.
    pub sim_cycles: Vec<(u64, u64)>,
    /// Fingerprint of every input the final node received.
    pub input_digest: u64,
    /// The traced run's spans, one JSON object per line.
    pub spans_jsonl: Option<String>,
}

/// Nearest-rank percentile of `v` (sorted ascending); 0 when empty.
fn percentile(v: &[u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn sorted(v: &[u64]) -> Vec<u64> {
    let mut v = v.to_vec();
    v.sort_unstable();
    v
}

/// What the final node's body hands back.
struct Body {
    setup_ns: u64,
    measured: Phase,
    cpu_ns: u64,
    steal: f64,
    peak_rss_mb: f64,
    traced: Option<Phase>,
    setup_ops: (u64, u64),
    spans: Spans,
    residents: Vec<generator::Resident>,
    req_log: Vec<(u64, u8)>,
    input_digest: u64,
    first_failure: Option<String>,
}

/// Brings a fresh node to the state its workload is measured in: one
/// full session lifecycle, then (for `session_traffic`) the resident
/// sessions, then a warm-up window of the workload's own ops. Returns
/// (ops, failed).
fn set_up(d: &mut Generator<'_, '_, '_>, p: &Params) -> (u64, u64) {
    let mut phases = vec![d.phase(Source::Lifecycle, 1)];
    if p.workload == Workload::SessionTraffic {
        phases.push(d.phase(Source::Open, p.residents as u64));
    }
    if d.residents.len() > DEPTH || p.workload != Workload::SessionTraffic {
        phases.push(d.phase(p.workload.source(), p.warmup));
    }
    let ops = phases.iter().map(|ph| ph.ops).sum();
    let failed = phases.iter().map(Phase::failed).sum();
    (ops, failed)
}

/// Runs one workload and computes its metrics.
pub fn run(p: &Params) -> Outcome {
    let cfg = ServiceConfig::default().with_shards(SHARDS);
    let client = Client::new(cfg.platform.clone());
    let inputs = Inputs::new(p.seed);
    let mut out = Outcome::default();
    let mut setups_ns = Vec::new();
    for _ in 1..p.setups.max(1) {
        let t0 = Instant::now();
        let r = Service::run(cfg.clone(), |h| {
            let mut d = Generator::new(h, &client, inputs, false);
            let (ops, failed) = set_up(&mut d, p);
            (t0.elapsed().as_nanos() as u64, ops, failed, d.first_failure)
        });
        let (ns, ops, failed, first) = r.value;
        setups_ns.push(ns);
        out.attempted += ops;
        out.failed += failed;
        out.first_failure = out.first_failure.or(first);
    }

    let t0 = Instant::now();
    let run = Service::run(cfg.clone(), |h| {
        let mut d = Generator::new(h, &client, inputs, p.log || p.trace);
        let setup_ops = set_up(&mut d, p);
        let setup_ns = t0.elapsed().as_nanos() as u64;
        let runnable = p.workload != Workload::SessionTraffic || d.residents.len() > DEPTH;
        let n = if runnable { p.ops } else { 0 };
        let plain = if p.trace { n / 2 } else { n };
        let (cpu0, ticks0) = (host::process_cpu_ns(), host::CpuTicks::now());
        let measured = d.phase(p.workload.source(), plain);
        let cpu_ns = host::process_cpu_ns().saturating_sub(cpu0);
        let steal = ticks0.steal_share(&host::CpuTicks::now());
        // Read before the node drains and hands its records back: the
        // peak while serving, without the copy made at teardown.
        let peak_rss_mb = host::peak_rss_mb();
        let traced = p.trace.then(|| {
            d.spans = Spans::new(true);
            d.phase(p.workload.source(), n - plain)
        });
        Body {
            setup_ns,
            measured,
            cpu_ns,
            steal,
            peak_rss_mb,
            traced,
            setup_ops,
            spans: std::mem::replace(&mut d.spans, Spans::new(false)),
            residents: std::mem::take(&mut d.residents),
            req_log: std::mem::take(&mut d.req_log),
            input_digest: d.input_digest,
            first_failure: d.first_failure.take(),
        }
    });
    let mut body = run.value;
    let records = run.records;
    let node = Node {
        jobs: run.shards.iter().map(|s| s.jobs).sum(),
        stolen: run.shards.iter().map(|s| s.stolen).sum(),
        boots: run.shards.iter().map(|s| s.boots).sum(),
        resets: run.shards.iter().map(|s| s.resets).sum(),
        refused: run.rejected_full + run.rejected_shutdown,
        failed: records.iter().filter(|r| !r.ok).count() as u64,
    };
    setups_ns.push(body.setup_ns);

    let phases = [Some(&body.measured), body.traced.as_ref()];
    out.attempted += body.setup_ops.0 + phases.iter().flatten().map(|ph| ph.ops).sum::<u64>();
    out.failed += body.setup_ops.1 + phases.iter().flatten().map(|ph| ph.failed()).sum::<u64>();
    out.first_failure = out.first_failure.or(body.first_failure.take());
    out.req_log = std::mem::take(&mut body.req_log);
    out.input_digest = body.input_digest;
    let mut sim: Vec<(u64, u64)> = records.iter().map(|r| (r.req, r.sim.cycles)).collect();
    sim.sort_unstable();
    out.sim_cycles = sim;

    let m = &body.measured;
    let lat = sorted(&m.latencies_ns);
    let in_phase = |ph: &Phase| -> Vec<&RequestRecord> {
        let range = ph.first_req..ph.end_req;
        records.iter().filter(|r| range.contains(&r.req)).collect()
    };
    let measured_records = in_phase(m);
    let ops = m.ops.max(1) as f64;
    let verified = m.latencies_ns.len() as f64;
    let sim_cycles: u64 = measured_records.iter().map(|r| r.sim.cycles).sum();
    let setup_s = median(setups_ns.iter().map(|&ns| ns as f64 / 1e9).collect());
    let bs = blocks(m, body.cpu_ns);
    out.facts = vec![
        ("samples", lat.len().to_string()),
        ("blocks", bs.len().to_string()),
        (
            "setups_s",
            setups_ns
                .iter()
                .map(|ns| format!("{:.4}", *ns as f64 / 1e9))
                .collect::<Vec<_>>()
                .join(" "),
        ),
        ("error_rate", format!("{}", m.failed() as f64 / ops)),
        ("nproc", host::nproc().to_string()),
        ("shards", SHARDS.to_string()),
        ("window", DEPTH.to_string()),
        ("ops", m.ops.to_string()),
        ("seed", p.seed.to_string()),
        ("steal_share", format!("{:.4}", body.steal)),
        ("profile", host::profile().to_string()),
    ];
    if !p.trace {
        let med = |f: fn(&Block) -> f64| median(bs.iter().map(f).collect());
        out.e2e = vec![
            metric("setup_s", setup_s, "s"),
            metric("ops_s", med(|b| b.ops_s), "ops/s"),
            metric("p50_ms", med(|b| b.p50_ms), "ms"),
            metric("p99_ms", med(|b| b.p99_ms), "ms"),
            metric("cpu_ms_per_op", med(|b| b.cpu_ms_per_op), "ms"),
            metric("peak_rss_mb", body.peak_rss_mb, "MB"),
            metric(
                "sim_kcycles_per_op",
                sim_cycles as f64 / ops / 1e3,
                "kcycles",
            ),
            metric("success_ratio", verified / ops, "ratio"),
        ];
        return out;
    }

    let traced = body.traced.take().expect("traced runs have a traced phase");
    let replayed = replay::replay(
        &cfg,
        &records,
        &body.residents,
        &traced.done,
        p.workload.replay_limit(),
        &mut body.spans,
    );
    let traced_records = in_phase(&traced);
    out.layers = layer_metrics(&node, &traced, &traced_records, &body.spans, &replayed);
    let plain_p50 = percentile(&lat, 50.0) as f64 / 1e6;
    let traced_p50 = percentile(&sorted(&traced.latencies_ns), 50.0) as f64 / 1e6;
    out.layers.push(metric("trace.p50_ms", traced_p50, "ms"));
    out.layers.push(metric(
        "trace.overhead_p50_ms",
        traced_p50 - plain_p50,
        "ms",
    ));
    let header: Vec<String> = out
        .facts
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    out.spans_jsonl = Some(body.spans.to_jsonl(&format!(
        "{{\"workload\": \"{}\", {}}}",
        p.workload.name(),
        header.join(", ")
    )));
    out
}

/// Throughput, CPU per op, p50 and p99 of one block of a phase.
struct Block {
    ops_s: f64,
    cpu_ms_per_op: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// The phase's complete blocks, or the whole phase as one block when it
/// is shorter than a block. `cpu_ns` is the whole phase's CPU time.
fn blocks(m: &Phase, cpu_ns: u64) -> Vec<Block> {
    let whole = [
        Mark {
            ops: 0,
            ns: 0,
            cpu_ns: 0,
        },
        Mark {
            ops: m.latencies_ns.len(),
            ns: m.wall_ns,
            cpu_ns,
        },
    ];
    let marks = if m.marks.len() >= 2 {
        &m.marks[..]
    } else {
        &whole[..]
    };
    marks
        .windows(2)
        .map(|w| {
            let (a, b) = (w[0], w[1]);
            let n = (b.ops - a.ops).max(1) as f64;
            let lat = sorted(&m.latencies_ns[a.ops..b.ops]);
            Block {
                ops_s: n / ((b.ns - a.ns).max(1) as f64 / 1e9),
                cpu_ms_per_op: (b.cpu_ns - a.cpu_ns) as f64 / n / 1e6,
                p50_ms: percentile(&lat, 50.0) as f64 / 1e6,
                p99_ms: percentile(&lat, 99.0) as f64 / 1e6,
            }
        })
        .collect()
}

/// Median of `v` (mean of the middle two for an even count).
fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let h = v.len() / 2;
    if v.len() % 2 == 1 {
        v[h]
    } else {
        (v[h - 1] + v[h]) / 2.0
    }
}

/// Mean of `sum` over `n`, 0 when `n` is 0.
fn mean(sum: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Whole-run counters of the final node.
struct Node {
    jobs: u64,
    stolen: u64,
    boots: u64,
    resets: u64,
    refused: u64,
    failed: u64,
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    node: &Node,
    traced: &Phase,
    records: &[&RequestRecord],
    spans: &Spans,
    replayed: &replay::Replay,
) -> Vec<Metric> {
    // Mean duration (µs) and simulated Mcycles per host second of every
    // span name.
    let mut by_name: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    for s in spans.spans() {
        let e = by_name.entry(s.name).or_default();
        e.0 += s.ns();
        e.1 += 1;
    }
    let us = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |&(ns, n)| mean(ns as f64, n) / 1e3)
    };
    let mcps = |name: &str| {
        let ns = by_name.get(name).map_or(0, |e| e.0);
        let cycles = replayed.cycles.get(name).copied().unwrap_or(0);
        if ns == 0 {
            0.0
        } else {
            cycles as f64 / ns as f64 * 1e3
        }
    };
    let ops = traced.ops.max(1) as f64;
    let sum = |f: fn(&RequestRecord) -> u64| records.iter().map(|r| f(r)).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };

    let mut handler_us: HashMap<u8, f64> = HashMap::new();
    let mut l = vec![
        metric("guest.ra_begin_us", us("guest.ra_begin"), "us"),
        metric(
            "armv7.mcycles_per_s.ra_begin",
            mcps("guest.ra_begin"),
            "Mcycles/s",
        ),
        metric("komodo.boot_us", us("komodo.boot"), "us"),
        metric("komodo.drop_us", us("komodo.drop"), "us"),
        metric("monitor.load_us.ra", us("monitor.load.ra"), "us"),
        metric("monitor.destroy_us", us("monitor.destroy"), "us"),
        metric("komodo.reset_us", us("komodo.reset"), "us"),
        metric("monitor.load_us.notary", us("monitor.load.notary"), "us"),
        metric("guest.notary_us", us("guest.notary"), "us"),
        metric(
            "armv7.mcycles_per_s.notary",
            mcps("guest.notary"),
            "Mcycles/s",
        ),
        metric("guest.send_us", us("guest.send"), "us"),
        metric("guest.confirm_us", us("guest.confirm"), "us"),
        metric("armv7.mcycles_per_s.send", mcps("guest.send"), "Mcycles/s"),
    ];
    for (code, kind, _) in kinds() {
        let of: Vec<&&RequestRecord> = records.iter().filter(|r| r.kind == code).collect();
        let cycles: u64 = of.iter().map(|r| r.sim.cycles).sum();
        let service: u64 = of.iter().map(|r| r.service_ns).sum();
        handler_us.insert(code, mean(service as f64, of.len()) / 1e3);
        l.push(metric(
            format!("armv7.sim_kcycles.{kind}"),
            mean(cycles as f64, of.len()) / 1e3,
            "kcycles",
        ));
    }
    let built = sum(|r| r.sim.sb_built);
    let promoted = sum(|r| r.sim.uop_promoted);
    l.extend([
        metric("armv7.sb_built_per_op", built / ops, "count"),
        metric("armv7.uop_promoted_per_op", promoted / ops, "count"),
        metric(
            "armv7.tlb_misses_per_op",
            sum(|r| r.sim.tlb_misses) / ops,
            "count",
        ),
        metric(
            "armv7.sb_hits_per_build",
            ratio(sum(|r| r.sim.sb_hits), built),
            "ratio",
        ),
        metric(
            "armv7.uop_hits_per_promotion",
            ratio(sum(|r| r.sim.uop_hits), promoted),
            "ratio",
        ),
        metric("service.submit_us", us("service.submit"), "us"),
        metric(
            "service.queue_ms",
            mean(sum(|r| r.queued_ns), records.len()) / 1e6,
            "ms",
        ),
    ]);
    for (code, kind, _) in kinds() {
        l.push(metric(
            format!("service.handler_ms.{kind}"),
            handler_us[&code] / 1e3,
            "ms",
        ));
    }
    // Client latency minus the queue and handler time of the requests
    // inside it: generator, reply hand-off and client checks.
    let by_req: HashMap<u64, &RequestRecord> = records.iter().map(|r| (r.req, *r)).collect();
    let handoff_ns: f64 = traced
        .timed
        .iter()
        .map(|t| {
            let inside: u64 = t
                .reqs
                .iter()
                .filter_map(|q| by_req.get(q))
                .map(|r| r.total_ns())
                .sum();
            t.latency_ns as f64 - inside as f64
        })
        .sum();
    let jobs = node.jobs as f64;
    l.extend([
        metric(
            "service.handoff_us",
            mean(handoff_ns, traced.timed.len()) / 1e3,
            "us",
        ),
        metric("service.refused", node.refused as f64, "count"),
        metric("service.failed", node.failed as f64, "count"),
        metric(
            "fleet.occupancy",
            ratio(sum(|r| r.service_ns), traced.wall_ns as f64 * SHARDS as f64),
            "ratio",
        ),
        metric(
            "fleet.stolen_share",
            ratio(node.stolen as f64, jobs),
            "ratio",
        ),
        metric(
            "fleet.boots_per_op",
            ratio(node.boots as f64, jobs),
            "count",
        ),
        metric(
            "fleet.resets_per_op",
            ratio(node.resets as f64, jobs),
            "count",
        ),
        metric("crypto.verify_quote_us", us("crypto.verify_quote"), "us"),
        metric("crypto.verify_tag_us", us("crypto.verify_tag"), "us"),
        metric("crypto.verify_attest_us", us("crypto.verify_attest"), "us"),
    ]);
    // Replay coverage: the replayed layer calls of each request kind
    // against the node's handler time for that kind.
    for (code, kind, names) in kinds() {
        let replay_us: f64 = names.iter().map(|n| us(n)).sum();
        l.push(metric(
            format!("replay.coverage.{kind}"),
            ratio(replay_us, handler_us[&code]),
            "ratio",
        ));
    }
    l.push(metric(
        "replay.mismatches",
        replayed.mismatches as f64,
        "count",
    ));
    l
}
