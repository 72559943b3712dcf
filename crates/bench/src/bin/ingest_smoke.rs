//! Million-request ingestion smoke: the parallel batched load path at
//! scale, against a bounded queue, with every conservation law checked.
//!
//! ```sh
//! cargo run --release -p komodo-bench --bin ingest_smoke
//! ```
//!
//! One million tiny invoke requests stream from a prototype-index
//! schedule into a 4-shard node with a 4096-deep bounded queue, from 4 submitter threads in batches of 1024. The
//! node sheds most of the load at the door — that is the point: the
//! checks are exactness under maximum backpressure, not throughput.
//!
//! - every scheduled arrival resolves exactly once:
//!   ok + errors + rejected == scheduled (no joiner hangs — the run
//!   returning at all means every ticket resolved);
//! - one latency record per completed request, and the records sum
//!   bit-for-bit to the folded fleet metrics (the conservation law);
//! - the shards' job counts sum to the completed requests.
//!
//! `INGEST_SMOKE_REQUESTS` overrides the request count (for quick local
//! iteration); CI runs the full million.

use komodo_service::{drive, schedule, Mix, Request, Service, ServiceConfig};
use std::sync::Arc;
use std::time::Instant;

/// Seed for the arrival schedule — fixed so every run replays the
/// identical request sequence.
const INGEST_SEED: u64 = 0x1261_e575;

/// A minimal sandbox program: exit immediately. The per-request work is
/// one enclave dispatch — small enough that the run is ingestion- and
/// backpressure-dominated, large enough to exercise the full invoke
/// path (enclave boot, user entry, teardown) per accepted request.
fn tiny_invoke() -> Arc<Vec<u32>> {
    use komodo_armv7::regs::Reg;
    use komodo_armv7::{Assembler, Cond};
    let mut a = Assembler::new(komodo_guest::user::CODE_VA);
    a.mov_imm(Reg::R(0), 0);
    let top = a.label();
    a.add_imm(Reg::R(0), Reg::R(0), 1);
    a.b_to(Cond::Al, top);
    Arc::new(a.words())
}

fn main() {
    let requests: usize = std::env::var("INGEST_SMOKE_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    const SHARDS: usize = 4;
    const QUEUE: usize = 4096;
    const SUBMITTERS: usize = 4;
    const BATCH: usize = 1024;
    const STEPS: u64 = 32;

    let mix = Mix::new().with(
        1,
        Request::Invoke {
            code: tiny_invoke(),
            steps: STEPS,
        },
    );
    println!(
        "ingest smoke: {requests} requests, {SHARDS} shards, queue bound {QUEUE}, \
         {SUBMITTERS} submitters x batch {BATCH}"
    );
    let t0 = Instant::now();
    let arrivals = schedule(INGEST_SEED, requests, 0, &mix).expect("mix has weight");
    println!("schedule built in {:?}", t0.elapsed());

    let run = Service::run(
        ServiceConfig::default()
            .with_shards(SHARDS)
            .with_queue_capacity(QUEUE),
        |h| drive(h, &mix, &arrivals, false, SUBMITTERS, BATCH),
    );
    let o = &run.value.outcome;

    // Exactness under backpressure: every scheduled arrival resolved
    // exactly once, as a response, a typed error, or a typed rejection.
    assert_eq!(
        o.ok + o.errors + o.rejected,
        requests as u64,
        "scheduled arrivals must resolve exactly once"
    );
    assert_eq!(o.errors, 0, "tiny invokes must all succeed");
    assert_eq!(
        o.rejected, run.rejected_full,
        "driver and node must agree on the shed count"
    );
    assert_eq!(
        run.records.len() as u64,
        o.ok,
        "one latency record per completed request"
    );

    // The conservation law, bit-for-bit at scale: per-shard record
    // buffers sum to the folded fleet metrics.
    let mut summed = komodo_trace::MetricsSnapshot::default();
    for rec in &run.records {
        summed.absorb(&rec.sim);
    }
    assert_eq!(
        summed,
        run.metrics.total(),
        "records must sum bit-for-bit to the fleet totals"
    );

    // Every completed request ran as exactly one fleet job.
    let jobs: u64 = run.shards.iter().map(|s| s.jobs).sum();
    assert_eq!(jobs, o.ok, "executed jobs must equal completions");

    println!(
        "submit phase {:?} ({:.0} req/s), full run {:?}",
        run.value.submit_wall,
        requests as f64 / run.value.submit_wall.as_secs_f64().max(1e-9),
        run.wall
    );
    println!(
        "outcome: {} ok, {} errors, {} shed by the bounded queue; {} jobs run",
        o.ok, o.errors, o.rejected, jobs
    );
    println!(
        "ingest smoke ok: {requests} scheduled == {} ok + {} errors + {} rejected, \
         records sum bit-for-bit, zero joiner hangs",
        o.ok, o.errors, o.rejected
    );
}
