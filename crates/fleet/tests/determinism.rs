//! The fleet determinism contract, checked end to end: the *same* job
//! set produces bit-for-bit identical per-job results and identical
//! summed metrics whether it runs on 1 shard or N, and whether shards
//! recycle their platform by fast re-boot or by rebuilding from
//! scratch — including when a job panics mid-run.

use komodo::PlatformConfig;
use komodo_fleet::{run, Class, FleetConfig, JobResult, Recycle, ShardCtx};
use komodo_guest::progs;
use komodo_os::EnclaveRun;
use komodo_trace::MetricsSnapshot;

const JOBS: u64 = 12;
const FAILING_JOB: u64 = 5;

/// What each job reports: everything observable about its execution —
/// index, enclave result, final cycle count, and the platform's
/// seed-derived attestation identity.
type JobOut = (u64, EnclaveRun, u64, Vec<u8>);

fn episode(ctx: &mut ShardCtx) -> JobOut {
    let idx = ctx.job_index();
    let p = ctx.platform();
    // The failing job panics at a deterministic point (after boot,
    // before any enclave work) so its folded metrics are deterministic
    // too.
    assert!(
        idx != FAILING_JOB,
        "job 5 always fails (determinism fixture)"
    );
    let e = p.load(&progs::adder()).unwrap();
    let r = p.run(&e, 0, [idx as u32, 2, 0]);
    p.destroy(&e).unwrap();
    (idx, r, p.cycles(), p.monitor.attest_key().to_vec())
}

fn sweep(shards: usize, recycle: Recycle) -> (Vec<JobResult<JobOut>>, MetricsSnapshot) {
    let cfg = FleetConfig::default()
        .with_shards(shards)
        .with_platform(
            PlatformConfig::default()
                .with_insecure_size(1 << 20)
                .with_npages(32),
        )
        .with_recycle(recycle);
    let fleet_run = run(cfg, |fleet| {
        (0..JOBS).map(|_| fleet.submit(episode)).collect::<Vec<_>>()
    });
    assert_eq!(fleet_run.jobs, JOBS);
    let results = fleet_run.value.into_iter().map(|h| h.join()).collect();
    (results, fleet_run.metrics.total())
}

/// Like [`sweep`], but submits every job in one `try_submit_batch`
/// call.
fn batch_sweep(shards: usize, recycle: Recycle) -> (Vec<JobResult<JobOut>>, MetricsSnapshot) {
    let cfg = FleetConfig::default()
        .with_shards(shards)
        .with_platform(
            PlatformConfig::default()
                .with_insecure_size(1 << 20)
                .with_npages(32),
        )
        .with_recycle(recycle);
    let fleet_run = run(cfg, |fleet| {
        type Job = fn(&mut ShardCtx<'_>) -> JobOut;
        let jobs: Vec<(Class, Job)> = (0..JOBS).map(|_| (Class::Batch, episode as Job)).collect();
        fleet
            .try_submit_batch(jobs)
            .into_iter()
            .enumerate()
            .map(|(i, h)| {
                let h = h.expect("an unbounded open queue admits every job");
                // Batch indices are contiguous and item-ordered at any
                // shard count — the request→seed mapping is pinned.
                assert_eq!(h.index(), i as u64);
                h.join()
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(
        fleet_run.shards.iter().map(|s| s.jobs).sum::<u64>(),
        JOBS,
        "every job ran on exactly one shard"
    );
    (fleet_run.value, fleet_run.metrics.total())
}

#[test]
fn shard_count_and_recycling_do_not_change_results() {
    let (r1, m1) = sweep(1, Recycle::Reboot);
    let (r4, m4) = sweep(4, Recycle::Reboot);
    let (rb, mb) = sweep(3, Recycle::Rebuild);

    // Bit-for-bit identical per-job results, panics included.
    assert_eq!(r1, r4, "shard count changed job results");
    assert_eq!(r1, rb, "recycling policy changed job results");

    // Identical summed metrics: per-job folds are placement-independent.
    assert_eq!(m1, m4, "shard count changed summed metrics");
    assert_eq!(m1, mb, "recycling policy changed summed metrics");
    assert!(m1.cycles > 0, "jobs must have folded real platform work");

    // The fixture behaved as designed: exactly one deterministic panic.
    let failures: Vec<_> = r1.iter().filter(|r| r.is_err()).collect();
    assert_eq!(failures.len(), 1);
    let msg = &r1[FAILING_JOB as usize].as_ref().unwrap_err().message;
    assert!(
        msg.contains("job 5 always fails"),
        "wrong panic surfaced: {msg}"
    );

    // Successful jobs computed the expected enclave results, and every
    // job ran under its own derived seed (distinct attestation keys).
    let mut keys = Vec::new();
    for r in r1.iter().flatten() {
        let (idx, enclave_run, cycles, key) = r;
        assert_eq!(*enclave_run, EnclaveRun::Exited(*idx as u32 + 2));
        assert!(*cycles > 0);
        keys.push(key.clone());
    }
    keys.sort();
    keys.dedup();
    assert_eq!(
        keys.len(),
        JOBS as usize - 1,
        "every job must get a distinct seed-derived identity"
    );
}

/// Batched-submission determinism: one `try_submit_batch` call at 1
/// shard vs 4 shards (both recycling policies) yields bit-for-bit
/// identical per-job results and identical summed `FleetMetrics`, no
/// matter which shard ran each job — and the batch path matches the
/// per-job submit path exactly.
#[test]
fn batched_submission_is_shard_count_invariant_bit_for_bit() {
    let (r1, m1) = batch_sweep(1, Recycle::Reboot);
    let (r4, m4) = batch_sweep(4, Recycle::Reboot);
    let (rb1, mb1) = batch_sweep(1, Recycle::Rebuild);
    let (rb4, mb4) = batch_sweep(4, Recycle::Rebuild);

    assert_eq!(r1, r4, "shard count changed batched job results");
    assert_eq!(m1, m4, "shard count changed batched summed metrics");
    assert_eq!(rb1, rb4, "shard count changed rebuild batch results");
    assert_eq!(mb1, mb4, "shard count changed rebuild batch metrics");
    assert_eq!(r1, rb1, "recycling policy changed batched results");
    assert_eq!(m1, mb1, "recycling policy changed batched metrics");

    // The batch submit path is result-identical to per-job submission.
    let (rs, ms) = sweep(1, Recycle::Reboot);
    assert_eq!(r1, rs, "batch vs single submission changed results");
    assert_eq!(m1, ms, "batch vs single submission changed metrics");
}
