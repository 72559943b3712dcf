//! A long-lived enclave-service node over the replicated fleet: typed
//! requests (attestation quotes, notarisations, sessions) with priority
//! classes, backpressure, and graceful shutdown.
//!
//! ```sh
//! cargo run --release --example service_node
//! ```

use komodo_service::{drive, schedule, Mix, Reject, Request, Response, Service, ServiceConfig};

fn main() {
    // A 4-shard node with a small bounded queue so backpressure is
    // visible in the demo.
    let cfg = ServiceConfig::default()
        .with_shards(4)
        .with_queue_capacity(32);

    let run = Service::run(cfg, |node| {
        // 1. A single attestation quote, end to end.
        let quote = node
            .submit(Request::Attest {
                report: [0xa11c_e000, 1, 2, 3, 4, 5, 6, 7],
            })
            .expect("queue has room")
            .wait()
            .expect("attest succeeds");
        let Response::Quote { counter, mac } = quote else {
            panic!("wrong response: {quote:?}");
        };
        println!(
            "attestation quote: counter {counter}, mac[0..2] = {:08x} {:08x}",
            mac[0], mac[1]
        );

        // 2. A session: dedicated enclave keeping a secret across calls.
        let Response::SessionOpened { session } = node
            .submit(Request::SessionOpen)
            .expect("queue has room")
            .wait()
            .expect("session opens")
        else {
            panic!("wrong response");
        };
        node.submit(Request::SessionPut {
            session,
            value: 0x005e_c2e7,
        })
        .expect("queue has room")
        .wait()
        .expect("put succeeds");
        let got = node
            .submit(Request::SessionGet { session })
            .expect("queue has room")
            .wait()
            .expect("get succeeds");
        println!("session {session} round-trip: {got:?}");
        node.submit(Request::SessionClose { session })
            .expect("control plane always admits")
            .wait()
            .expect("close succeeds");

        // 3. Open-loop load: a seeded burst of notarisations, submitted
        //    one request at a time. The schedule is deterministic in
        //    the seed, so rejection behaviour under the bounded queue
        //    is replayable.
        let mix = Mix::new()
            .with(3, Request::Notarize { doc_kb: 2 })
            .with(1, Request::Attest { report: [7; 8] });
        let arrivals = schedule(0xBEEF, 48, 0, &mix).expect("mix has weight");
        let outcome = drive(node, &mix, &arrivals, false, 1, 1).outcome;
        println!(
            "open-loop burst: {} ok, {} errors, {} shed by backpressure",
            outcome.ok, outcome.errors, outcome.rejected
        );

        // 4. Parallel batched ingestion: the schedule holds prototype
        //    indices (no payload copies), and two submitter threads
        //    admit their partitions in batches of 16.
        let arrivals = schedule(0xBEEF, 96, 0, &mix).expect("mix has weight");
        let report = drive(node, &mix, &arrivals, false, 2, 16);
        println!(
            "batched parallel burst: {} ok, {} errors, {} shed, submit phase {:?}",
            report.outcome.ok, report.outcome.errors, report.outcome.rejected, report.submit_wall
        );

        // 5. Graceful shutdown: new work is refused, typed.
        node.shutdown();
        match node.submit(Request::Notarize { doc_kb: 1 }) {
            Err(Reject::ShuttingDown) => println!("post-shutdown submit refused, typed"),
            Err(r) => panic!("expected shutdown rejection, got {r:?}"),
            Ok(_) => panic!("expected shutdown rejection, got a ticket"),
        }
    });

    println!();
    println!("service report:");
    println!("{}", run.report().to_json(0));
}
