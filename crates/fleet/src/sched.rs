//! The fleet scheduler: worker threads with pooled platforms pulling
//! jobs from one mutex-guarded queue.
//!
//! Ownership story: each worker thread *owns* at most one [`Platform`]
//! (lazily booted on first use, recycled between jobs), so no platform
//! is ever shared — `Platform` only needs to be `Send`, never `Sync`.
//! Jobs are `FnOnce` closures handed a [`ShardCtx`]; results travel back
//! through typed [`JobHandle`]s. Per-shard counter snapshots fold into a
//! [`FleetMetrics`] when the run finishes.
//!
//! Queue: one mutex guards three class lanes, the next job index, the
//! closed flag and a count of waiting workers; one condvar wakes the
//! waiting workers. A worker pops the highest class with queued work
//! and, within it, the lowest index, so dispatch order is global by
//! construction: no worker dispatches a batch job while a control job
//! is queued. Every submission is a batch ([`Fleet::try_submit_batch`];
//! [`Fleet::try_submit`] submits a batch of one): it takes the lock
//! once, assigns contiguous indices in item order, and wakes workers
//! once.
//!
//! Submission is classed ([`Class`]): control-plane jobs are always
//! dispatched before interactive ones, which precede batch work. The
//! queue may be bounded ([`FleetConfig::with_queue_capacity`]): the
//! bound counts every queued job, control jobs included, and a full
//! queue *rejects* data-plane submissions with [`SubmitError::Full`]
//! instead of growing without limit — the backpressure surface the
//! service node builds on. Control jobs are never refused for capacity.
//! Submitting after the fleet shut its queue is a hard
//! [`SubmitError::Closed`] error in every build.
//!
//! Liveness contract: [`JobHandle::join`] always wakes. A job's result
//! slot is completed by the job itself (value or caught panic), or — if
//! the job never runs because its worker died mid-queue or the fleet
//! tore down around it — by the completion guard that every queued task
//! carries, which fills the slot with a [`JobPanic`] when the task is
//! dropped unexecuted. Shutdown is race-free: `close` sets the flag
//! under the queue lock, so a submission either completed before it
//! (its jobs drain) or sees the flag and is refused, and a worker exits
//! only when it finds the queue closed and empty under that lock.
//!
//! Determinism contract: a job's *result* may depend only on its index
//! and derived seed ([`PlatformConfig::derive_seed`]), never on which
//! shard runs it — the scheduler guarantees the platform a job sees is
//! bit-for-bit a fresh boot with the job's seed, whichever worker picks
//! it up and whatever ran there before. Which *shard* a job runs on is
//! scheduling noise, so the per-shard metric split varies run to run,
//! but the summed totals are shard-count independent. A submission's
//! indices are assigned in item order under the queue lock, so the
//! request→index mapping is identical at any shard count.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use komodo::{Platform, PlatformConfig};
use komodo_trace::{FleetMetrics, MetricsSnapshot};

use crate::panic_msg::panic_message;

/// Poison-tolerant lock: a panic on another thread while it held this
/// mutex must not cascade into opaque `PoisonError` panics here. Every
/// shared structure in this module keeps itself consistent across
/// unwinds — slot results are single-assignment, lane mutations
/// (push/pop) complete before the guard drops — so the data under a
/// poisoned lock is always safe to keep using; poisoning only tells us
/// a panic happened elsewhere, and the fleet already surfaces panics
/// through [`JobPanic`] / the worker join.
fn lock_unpoisoned<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Poison-tolerant condvar wait; see [`lock_unpoisoned`].
fn wait_unpoisoned<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// How a worker recycles its platform between jobs that use one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recycle {
    /// Keep the platform and fast re-boot it in place for the next job
    /// ([`Platform::reset_with_seed`]): the reset frees the RAM pages the
    /// last job wrote and is verified bit-for-bit equal to a fresh boot.
    /// The default.
    Reboot,
    /// Drop the platform after every job and construct a fresh one for
    /// the next: the slow path, kept as the oracle the reboot path is
    /// checked against (both must yield identical job results).
    Rebuild,
}

/// Priority class of a submitted job. Workers always dispatch the
/// highest class with queued work; within a class, dispatch is FIFO in
/// submission order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// Control plane: session teardown, shutdown drains — must never
    /// starve behind data-plane work, and is exempt from the queue
    /// bound (rejecting teardown would leak the resources it frees).
    Control,
    /// Latency-sensitive data plane (attestation, session operations).
    Interactive,
    /// Throughput data plane (bulk enclave jobs); the default class.
    Batch,
}

impl Class {
    /// All classes, highest priority first (the worker scan order).
    pub const ALL: [Class; 3] = [Class::Control, Class::Interactive, Class::Batch];

    /// Lane index: 0 = highest priority.
    fn lane(self) -> usize {
        self as usize
    }

    /// Short lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Class::Control => "control",
            Class::Interactive => "interactive",
            Class::Batch => "batch",
        }
    }
}

/// Why a submission was refused. Rejection is synchronous and leaves no
/// trace in the fleet: no job index is consumed, nothing runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The fleet body returned (or the service began shutdown) and the
    /// queue no longer accepts work. A hard error in every build.
    Closed,
    /// The queue is at its configured capacity
    /// ([`FleetConfig::with_queue_capacity`]); the caller must shed the
    /// job or retry later. Control-class jobs are never rejected for
    /// capacity.
    Full {
        /// The configured bound that was hit.
        capacity: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Closed => write!(f, "submit on a closed fleet queue"),
            SubmitError::Full { capacity } => {
                write!(f, "fleet queue full (capacity {capacity})")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Fleet construction parameters.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Worker-thread (shard) count; clamped to at least 1.
    pub shards: usize,
    /// Base platform parameters; each job's platform is booted with the
    /// seed [`PlatformConfig::derive_seed`]`(job_index)` derived from
    /// this config's seed.
    pub platform: PlatformConfig,
    /// Platform recycling policy.
    pub recycle: Recycle,
    /// Bound on the total queued (submitted, not yet claimed) backlog,
    /// control jobs included; `None` = unbounded. When bounded, a
    /// data-plane submission that finds no room left is refused
    /// [`SubmitError::Full`] instead of growing the backlog; control
    /// jobs are always admitted.
    pub queue_capacity: Option<usize>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            platform: PlatformConfig::default(),
            recycle: Recycle::Reboot,
            queue_capacity: None,
        }
    }
}

impl FleetConfig {
    /// Returns the config with `shards` worker threads.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Returns the config with the given base platform parameters.
    pub fn with_platform(mut self, platform: PlatformConfig) -> Self {
        self.platform = platform;
        self
    }

    /// Returns the config with the given recycling policy.
    pub fn with_recycle(mut self, recycle: Recycle) -> Self {
        self.recycle = recycle;
        self
    }

    /// Returns the config with the queued backlog bounded to `capacity`
    /// jobs (backpressure; see [`FleetConfig::queue_capacity`]).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }
}

/// A job that panicked; the payload, rendered as `panic!` would show it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobPanic {
    /// The rendered panic message.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// The message a joiner sees when its job was claimed or queued but the
/// worker (or the whole fleet) tore down before the job could run.
pub const ABANDONED: &str = "job abandoned: worker or fleet tore down before it ran";

/// What a job hands back: its value, or the panic that ended it.
pub type JobResult<T> = Result<T, JobPanic>;

/// Shared result storage for one submission: one allocation and one
/// mutex/condvar pair for its N jobs. Every joiner waits on the shared
/// condvar and re-checks only its own cell; completions are
/// single-assignment per cell.
struct SlotBlock<T> {
    results: Mutex<Vec<Option<JobResult<T>>>>,
    done: Condvar,
}

impl<T> SlotBlock<T> {
    fn fill(&self, at: usize, r: JobResult<T>) {
        lock_unpoisoned(&self.results)[at] = Some(r);
        self.done.notify_all();
    }
}

/// Completion guard: fills the job's result cell exactly once. The task
/// closure completes it with the job's outcome; if the task is instead
/// *dropped* unexecuted — its worker thread died between claiming it and
/// running it, the fleet tore down with the job still queued, or the
/// queue refused it — the guard's `Drop` completes the cell with a
/// [`JobPanic`] so a joiner always wakes instead of blocking forever on
/// a cell nobody will fill.
struct Completion<T> {
    block: Arc<SlotBlock<T>>,
    at: usize,
    filled: bool,
}

impl<T> Completion<T> {
    fn complete(mut self, r: JobResult<T>) {
        self.block.fill(self.at, r);
        self.filled = true;
    }
}

impl<T> Drop for Completion<T> {
    fn drop(&mut self) {
        if !self.filled {
            self.block.fill(
                self.at,
                Err(JobPanic {
                    message: ABANDONED.to_string(),
                }),
            );
        }
    }
}

/// Typed handle to one submitted job's eventual result.
pub struct JobHandle<T> {
    block: Arc<SlotBlock<T>>,
    at: usize,
    job: u64,
}

impl<T> JobHandle<T> {
    /// The job's fleet-wide index (submission order, starting at 0) —
    /// the same index its platform seed was derived from.
    pub fn index(&self) -> u64 {
        self.job
    }

    /// Blocks until the job finishes and returns its result. A job that
    /// panicked yields `Err(`[`JobPanic`]`)` instead of poisoning the
    /// fleet: every other job still runs to completion. A job whose
    /// worker died before running it yields `Err` with [`ABANDONED`] —
    /// the completion guard guarantees this join never hangs.
    pub fn join(self) -> JobResult<T> {
        let mut r = lock_unpoisoned(&self.block.results);
        loop {
            if let Some(v) = r[self.at].take() {
                return v;
            }
            r = wait_unpoisoned(&self.block.done, r);
        }
    }
}

/// A queued task: type-erased job closure. The closure owns a
/// [`Completion`]; dropping it unexecuted resolves the job as abandoned.
type Task<'env> = Box<dyn FnOnce(&mut ShardCtx<'_>) + Send + 'env>;

/// Everything the queue lock guards.
struct Lanes<'env> {
    /// One FIFO lane per [`Class`], indexed by `Class::lane()`, of
    /// `(index, task)` pairs. Indices are assigned under the lock in
    /// increasing order and pushed at the back, so each lane is sorted
    /// by index.
    lanes: [VecDeque<(u64, Task<'env>)>; 3],
    /// Jobs accepted so far; the next job index.
    next: u64,
    closed: bool,
    /// Workers blocked on the queue's condvar; a push skips the notify
    /// when there are none.
    waiting: usize,
}

impl Lanes<'_> {
    fn queued(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }
}

/// The fleet's work queue: one mutex over the [`Lanes`], one condvar
/// that wakes waiting workers.
struct Queue<'env> {
    state: Mutex<Lanes<'env>>,
    ready: Condvar,
    /// Bound on queued jobs; `usize::MAX` when unbounded.
    capacity: usize,
}

impl<'env> Queue<'env> {
    fn new(capacity: Option<usize>) -> Self {
        Queue {
            state: Mutex::new(Lanes {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                next: 0,
                closed: false,
                waiting: 0,
            }),
            ready: Condvar::new(),
            capacity: capacity.unwrap_or(usize::MAX),
        }
    }

    /// Enqueues one submission's classed tasks under one lock pass,
    /// assigning contiguous indices in item order, then wakes workers
    /// once. Returns each item's index or refusal, in item order:
    ///
    /// - a closed queue refuses every item [`SubmitError::Closed`];
    /// - the room left is the bound minus every queued job, control jobs
    ///   included; the earliest data-plane items take it and the rest
    ///   are refused [`SubmitError::Full`]. Control items are never
    ///   refused for capacity.
    ///
    /// Index assignment is in item order whatever the shard count, so a
    /// submission's request→index (and therefore request→seed) mapping
    /// is identical at 1 shard and N shards — the determinism contract
    /// the service layer relies on.
    fn push(&self, items: Vec<(Class, Task<'env>)>) -> Vec<Result<u64, SubmitError>> {
        let mut out = Vec::with_capacity(items.len());
        let mut refused = Vec::new();
        let mut s = lock_unpoisoned(&self.state);
        let mut room = self.capacity.saturating_sub(s.queued());
        for (class, task) in items {
            let data = class != Class::Control;
            if s.closed {
                out.push(Err(SubmitError::Closed));
            } else if data && room == 0 {
                out.push(Err(SubmitError::Full {
                    capacity: self.capacity,
                }));
            } else {
                room -= usize::from(data);
                let job = s.next;
                s.next += 1;
                s.lanes[class.lane()].push_back((job, task));
                out.push(Ok(job));
                continue;
            }
            refused.push(task);
        }
        // Notify before the unlock: on a 2-vCPU host a woken worker often
        // takes the submitter's vCPU, and a wake issued under the lock
        // about halved the `handshake_churn` begin submits that stall
        // over 100 µs against one issued after it (DESIGN.md, "Fleet
        // scheduler").
        if s.waiting > 0 {
            match out.len() - refused.len() {
                0 => {}
                1 => self.ready.notify_one(),
                _ => self.ready.notify_all(),
            }
        }
        drop(s);
        // Each refused task's completion guard fills its cell and
        // notifies its block's joiners: do that outside the queue lock,
        // where it delays no worker's pop.
        drop(refused);
        out
    }

    /// Claims the next task: the highest class with queued work, lowest
    /// index within it. Blocks while the queue is open and empty; after
    /// close, drains the backlog and then returns `None`.
    fn pop(&self) -> Option<(u64, Task<'env>)> {
        let mut s = lock_unpoisoned(&self.state);
        loop {
            if let Some(next) = s.lanes.iter_mut().find_map(VecDeque::pop_front) {
                return Some(next);
            }
            if s.closed {
                return None;
            }
            s.waiting += 1;
            s = wait_unpoisoned(&self.ready, s);
            s.waiting -= 1;
        }
    }

    /// Refuses every later submission and wakes all waiting workers to
    /// drain the backlog and exit.
    fn close(&self) {
        lock_unpoisoned(&self.state).closed = true;
        self.ready.notify_all();
    }

    fn submitted(&self) -> u64 {
        lock_unpoisoned(&self.state).next
    }

    fn queued_len(&self) -> usize {
        lock_unpoisoned(&self.state).queued()
    }
}

/// One worker's pooled state, threaded through every job it runs.
struct ShardState {
    cfg: PlatformConfig,
    recycle: Recycle,
    platform: Option<Platform>,
    metrics: MetricsSnapshot,
    jobs: u64,
    boots: u64,
    resets: u64,
}

/// The execution context a job receives: identity (shard, index, seed)
/// plus access to the shard's pooled platform and metrics fold.
pub struct ShardCtx<'a> {
    shard: usize,
    job: u64,
    seed: u64,
    used: bool,
    state: &'a mut ShardState,
}

impl ShardCtx<'_> {
    /// The shard (worker index) running this job. Identity only — job
    /// results must not depend on it.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// This job's fleet-wide index (submission order).
    pub fn job_index(&self) -> u64 {
        self.job
    }

    /// This job's derived platform seed:
    /// `fleet_config.platform.derive_seed(job_index)`. Depends only on
    /// the base seed and the index, never the shard.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shard's platform, guaranteed bit-for-bit fresh for this job:
    /// booted on first use (with this job's seed), recycled per the
    /// fleet's [`Recycle`] policy on reuse. The first call in a job pays
    /// the boot or reset; later calls return the same platform, carrying
    /// whatever state the job has built on it.
    pub fn platform(&mut self) -> &mut Platform {
        if !self.used {
            self.used = true;
            match self.state.platform.as_mut() {
                Some(p) => {
                    p.reset_with_seed(self.seed);
                    self.state.resets += 1;
                }
                None => {
                    let cfg = self.state.cfg.clone().with_seed(self.seed);
                    self.state.platform = Some(Platform::with_config(cfg));
                    self.state.boots += 1;
                }
            }
        }
        self.state
            .platform
            .as_mut()
            .expect("platform exists once used")
    }

    /// Folds an externally-measured counter snapshot into this shard's
    /// metrics — for jobs that drive their own machines instead of (or
    /// in addition to) the pooled platform. The pooled platform's own
    /// counters are folded automatically after the job.
    pub fn absorb(&mut self, snap: &MetricsSnapshot) {
        self.state.metrics.absorb(snap);
    }
}

/// Per-shard accounting for one fleet run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Jobs this shard executed.
    pub jobs: u64,
    /// Always 0: every worker pops the fleet's one queue, so no job is
    /// ever taken from another worker's lanes. Kept for readers that
    /// still report it (svcbench's `fleet.stolen_share`).
    pub stolen: u64,
    /// Platforms constructed from scratch.
    pub boots: u64,
    /// Fast in-place re-boots of the pooled platform.
    pub resets: u64,
}

/// Everything a fleet run produces: the body's return value plus the
/// folded metrics and per-shard accounting.
#[derive(Debug)]
pub struct FleetRun<R> {
    /// What the body closure returned.
    pub value: R,
    /// Per-shard counter snapshots and their aggregate.
    pub metrics: FleetMetrics,
    /// Per-shard job/boot accounting.
    pub shards: Vec<ShardStats>,
    /// Jobs executed across all shards.
    pub jobs: u64,
    /// Wall-clock duration of the whole run (spawn to last join).
    pub wall: Duration,
}

/// The submission interface the body closure drives. Submit jobs, keep
/// the typed handles, join them (inside the body or after [`run`]
/// returns — all handles are resolved by then either way).
pub struct Fleet<'q, 'env> {
    queue: &'q Queue<'env>,
}

impl<'env> Fleet<'_, 'env> {
    /// Submits a job in `class`; returns the typed handle to its result,
    /// or the [`SubmitError`] if the queue refused it (closed, or a
    /// bounded queue at capacity). On rejection nothing ran, no job
    /// index was consumed, and there is no handle to leak. This is
    /// [`Fleet::try_submit_batch`] with one item.
    ///
    /// The closure runs exactly once on some shard, receives that
    /// shard's [`ShardCtx`], and may return any `Send` value. Panics
    /// inside the job are caught and surface as `Err(JobPanic)` from
    /// [`JobHandle::join`]; other jobs are unaffected.
    pub fn try_submit<T, F>(&self, class: Class, f: F) -> Result<JobHandle<T>, SubmitError>
    where
        T: Send + 'env,
        F: FnOnce(&mut ShardCtx<'_>) -> T + Send + 'env,
    {
        self.try_submit_batch(vec![(class, f)])
            .pop()
            .expect("one result per submitted job")
    }

    /// Submits classed jobs in one queue pass: one lock, one result
    /// block shared by the whole submission, and at most one worker
    /// wake, so the per-submission constant costs are amortized over N
    /// jobs. Returns one `Result` per job, in item order; accepted jobs
    /// get contiguous indices assigned in item order (identical at any
    /// shard count), rejected ones consumed no index.
    ///
    /// Admission is per item: on a bounded queue the earliest
    /// data-plane items fill the room left and the rest are refused
    /// [`SubmitError::Full`]; control items are exempt from the bound;
    /// a closed queue refuses every item [`SubmitError::Closed`].
    pub fn try_submit_batch<T, F>(
        &self,
        jobs: Vec<(Class, F)>,
    ) -> Vec<Result<JobHandle<T>, SubmitError>>
    where
        T: Send + 'env,
        F: FnOnce(&mut ShardCtx<'_>) -> T + Send + 'env,
    {
        let block = Arc::new(SlotBlock {
            results: Mutex::new((0..jobs.len()).map(|_| None).collect()),
            done: Condvar::new(),
        });
        let tasks: Vec<(Class, Task<'env>)> = jobs
            .into_iter()
            .enumerate()
            .map(|(at, (class, f))| {
                let completion = Completion {
                    block: Arc::clone(&block),
                    at,
                    filled: false,
                };
                let task: Task<'env> = Box::new(move |ctx| {
                    let result = catch_unwind(AssertUnwindSafe(|| f(ctx))).map_err(|p| JobPanic {
                        message: panic_message(p),
                    });
                    completion.complete(result);
                });
                (class, task)
            })
            .collect();
        self.queue
            .push(tasks)
            .into_iter()
            .enumerate()
            .map(|(at, r)| {
                r.map(|job| JobHandle {
                    block: Arc::clone(&block),
                    at,
                    job,
                })
            })
            .collect()
    }

    /// [`Fleet::try_submit`] in [`Class::Batch`], panicking on
    /// rejection — for callers that configured an unbounded queue and
    /// submit only while the fleet body runs (both invariants hold for
    /// every in-workspace harness; the service node uses `try_submit`).
    ///
    /// # Panics
    ///
    /// Panics (in every build) if the queue is closed or full.
    pub fn submit<T, F>(&self, f: F) -> JobHandle<T>
    where
        T: Send + 'env,
        F: FnOnce(&mut ShardCtx<'_>) -> T + Send + 'env,
    {
        self.try_submit(Class::Batch, f)
            .unwrap_or_else(|e| panic!("fleet submit failed: {e}"))
    }

    /// Jobs accepted so far.
    pub fn submitted(&self) -> u64 {
        self.queue.submitted()
    }

    /// Jobs currently queued (accepted but not yet claimed by a
    /// worker). A point-in-time reading — workers drain concurrently —
    /// useful for tests and load-shedding heuristics, not invariants.
    pub fn queued(&self) -> usize {
        self.queue.queued_len()
    }
}

fn worker(queue: &Queue<'_>, cfg: &FleetConfig, shard: usize) -> ShardState {
    let mut state = ShardState {
        cfg: cfg.platform.clone(),
        recycle: cfg.recycle,
        platform: None,
        metrics: MetricsSnapshot::default(),
        jobs: 0,
        boots: 0,
        resets: 0,
    };
    while let Some((job, task)) = queue.pop() {
        let seed = cfg.platform.derive_seed(job);
        let mut ctx = ShardCtx {
            shard,
            job,
            seed,
            used: false,
            state: &mut state,
        };
        task(&mut ctx);
        let used = ctx.used;
        state.jobs += 1;
        if used {
            // The platform was fresh at job start, so its counters are
            // exactly this job's work: fold the full snapshot. Folding
            // per job (not per shard at shutdown) is what makes the
            // summed totals shard-count independent.
            let p = state.platform.as_ref().expect("used implies present");
            let snap = p.machine.metrics_snapshot();
            state.metrics.absorb(&snap);
            if state.recycle == Recycle::Rebuild {
                state.platform = None;
            }
        }
    }
    state
}

/// Runs a fleet: spawns `cfg.shards` workers, hands the body a
/// [`Fleet`] to submit jobs through, and after the body returns waits
/// for every submitted job to finish before folding shard metrics and
/// returning.
///
/// The body's environment may be borrowed (`'env`): jobs can capture
/// references to caller state, like `std::thread::scope`. If the body
/// panics, all already-submitted jobs still run, workers shut down
/// cleanly, and the panic then resumes.
pub fn run<'env, R>(cfg: FleetConfig, body: impl FnOnce(&Fleet<'_, 'env>) -> R) -> FleetRun<R> {
    let shards = cfg.shards.max(1);
    let queue = Queue::new(cfg.queue_capacity);
    let t0 = Instant::now();
    let (value, states) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..shards)
            .map(|i| {
                let q = &queue;
                let c = &cfg;
                s.spawn(move || worker(q, c, i))
            })
            .collect();
        let fleet = Fleet { queue: &queue };
        let value = catch_unwind(AssertUnwindSafe(|| body(&fleet)));
        queue.close();
        let states: Vec<ShardState> = handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker panicked"))
            .collect();
        match value {
            Ok(v) => (v, states),
            Err(p) => resume_unwind(p),
        }
    });
    let wall = t0.elapsed();
    let metrics = FleetMetrics::from_shards(states.iter().map(|s| s.metrics).collect());
    let shard_stats: Vec<ShardStats> = states
        .iter()
        .map(|s| ShardStats {
            jobs: s.jobs,
            stolen: 0,
            boots: s.boots,
            resets: s.resets,
        })
        .collect();
    let jobs = shard_stats.iter().map(|s| s.jobs).sum();
    FleetRun {
        value,
        metrics,
        shards: shard_stats,
        jobs,
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use komodo_guest::progs;
    use komodo_os::EnclaveRun;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;

    fn small() -> PlatformConfig {
        PlatformConfig::default()
            .with_insecure_size(1 << 20)
            .with_npages(32)
    }

    /// Direct handle on a queue for white-box tests: a `Fleet` whose
    /// queue this module owns, no workers attached.
    fn bare_fleet<'q, 'env>(queue: &'q Queue<'env>) -> Fleet<'q, 'env> {
        Fleet { queue }
    }

    /// The submission surface must be shareable with worker threads.
    #[test]
    fn fleet_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<FleetConfig>();
        assert_send::<JobHandle<u64>>();
        assert_send::<ShardStats>();
        assert_send::<SubmitError>();
        assert_send::<Class>();
    }

    #[test]
    fn typed_results_round_trip() {
        let r = run(FleetConfig::default().with_shards(3), |fleet| {
            let a = fleet.submit(|ctx| ctx.job_index() * 10);
            let b = fleet.submit(|_| "text".to_string());
            let c = fleet.submit(|ctx| (ctx.job_index(), vec![1u8, 2, 3]));
            (a.join().unwrap(), b.join().unwrap(), c.join().unwrap())
        });
        assert_eq!(r.value, (0, "text".to_string(), (2, vec![1, 2, 3])));
        assert_eq!(r.jobs, 3);
    }

    #[test]
    fn every_job_runs_exactly_once_even_unjoined() {
        let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        let slots = &hits;
        let r = run(FleetConfig::default().with_shards(4), |fleet| {
            for slot in slots.iter().take(64) {
                // Handles dropped: the run must still execute the jobs.
                let _ = fleet.submit(move |_| slot.fetch_add(1, Ordering::Relaxed));
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(r.jobs, 64);
        assert_eq!(r.shards.iter().map(|s| s.jobs).sum::<u64>(), 64);
    }

    #[test]
    fn batch_submission_runs_every_job_with_contiguous_indices() {
        let r = run(FleetConfig::default().with_shards(4), |fleet| {
            let handles = fleet.try_submit_batch(
                (0..32)
                    .map(|_| (Class::Batch, |ctx: &mut ShardCtx<'_>| ctx.job_index() * 3))
                    .collect::<Vec<_>>(),
            );
            handles
                .into_iter()
                .enumerate()
                .map(|(i, h)| {
                    let h = h.unwrap();
                    assert_eq!(h.index(), i as u64, "indices are item-ordered");
                    h.join().unwrap()
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(r.value, (0..32).map(|i| i * 3).collect::<Vec<u64>>());
        assert_eq!(r.jobs, 32);
    }

    /// White-box: a bounded queue admits the earliest data-plane prefix
    /// of a batch, rejects the overflow with the bound, and exempts
    /// control items.
    #[test]
    fn batch_on_a_bounded_queue_admits_a_prefix() {
        let q: Queue<'_> = Queue::new(Some(2));
        let fleet = bare_fleet(&q);
        fn own_index(ctx: &mut ShardCtx<'_>) -> u64 {
            ctx.job_index()
        }
        type Job = fn(&mut ShardCtx<'_>) -> u64;
        let jobs: Vec<(Class, Job)> = vec![
            (Class::Batch, own_index),
            (Class::Batch, own_index),
            (Class::Batch, own_index),
            (Class::Batch, own_index),
            (Class::Control, own_index),
        ];
        let results = fleet.try_submit_batch::<u64, _>(jobs);
        let indices: Vec<_> = results
            .iter()
            .map(|r| r.as_ref().map(|h| h.index()).map_err(|e| *e))
            .collect();
        assert_eq!(
            indices,
            vec![
                Ok(0),
                Ok(1),
                Err(SubmitError::Full { capacity: 2 }),
                Err(SubmitError::Full { capacity: 2 }),
                Ok(2),
            ]
        );
        // Rejected items consumed no index; accepted ones are queued.
        assert_eq!(q.submitted(), 3);
        assert_eq!(q.queued_len(), 3);
    }

    /// White-box: the bound counts every queued job, control jobs
    /// included. With two control jobs queued at a bound of 2, a data
    /// job is refused, and a third control job is still admitted.
    #[test]
    fn queued_control_jobs_count_against_the_bound() {
        let q: Queue<'_> = Queue::new(Some(2));
        let fleet = bare_fleet(&q);
        fleet.try_submit::<u32, _>(Class::Control, |_| 0).unwrap();
        fleet.try_submit::<u32, _>(Class::Control, |_| 1).unwrap();
        for class in [Class::Interactive, Class::Batch] {
            let refused = fleet.try_submit::<u32, _>(class, |_| 2);
            assert_eq!(refused.err(), Some(SubmitError::Full { capacity: 2 }));
        }
        let ctrl = fleet.try_submit::<u32, _>(Class::Control, |_| 3).unwrap();
        assert_eq!(ctrl.index(), 2, "refused jobs consumed no index");
        assert_eq!(q.queued_len(), 3);
    }

    /// White-box dispatch order: whichever path submitted them, queued
    /// jobs dispatch highest class first and, within a class, lowest
    /// index first.
    #[test]
    fn dispatches_highest_class_then_lowest_index() {
        let q: Queue<'_> = Queue::new(None);
        let fleet = bare_fleet(&q);
        fn own_index(ctx: &mut ShardCtx<'_>) -> u64 {
            ctx.job_index()
        }
        type Job = fn(&mut ShardCtx<'_>) -> u64;
        fleet
            .try_submit::<u64, Job>(Class::Batch, own_index)
            .unwrap();
        fleet
            .try_submit::<u64, Job>(Class::Interactive, own_index)
            .unwrap();
        let batch: Vec<(Class, Job)> = vec![
            (Class::Batch, own_index),
            (Class::Control, own_index),
            (Class::Interactive, own_index),
            (Class::Batch, own_index),
        ];
        fleet.try_submit_batch::<u64, _>(batch);
        fleet
            .try_submit::<u64, Job>(Class::Control, own_index)
            .unwrap();
        q.close();
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(job, _task)| job)).collect();
        // Control 3 and 6, interactive 1 and 4, batch 0, 2 and 5.
        assert_eq!(order, vec![3, 6, 1, 4, 0, 2, 5]);
    }

    #[test]
    fn panics_are_captured_per_job() {
        let r = run(FleetConfig::default().with_shards(2), |fleet| {
            let bad = fleet.submit(|_| -> u32 { panic!("job 0 exploded") });
            let good = fleet.submit(|_| 7u32);
            (bad.join(), good.join())
        });
        let (bad, good) = r.value;
        assert_eq!(bad.unwrap_err().message, "job 0 exploded");
        assert_eq!(good.unwrap(), 7);
        assert_eq!(r.jobs, 2, "a panicking job still counts as executed");
    }

    /// Regression (release-build hang): submitting after close used to
    /// be guarded only by a `debug_assert!`, so a release-build submit
    /// raced worker exit and its join could hang forever. It is now a
    /// hard [`SubmitError::Closed`] in every build.
    #[test]
    fn submit_after_close_is_a_hard_error() {
        let q: Queue<'_> = Queue::new(None);
        let fleet = bare_fleet(&q);
        let accepted = fleet.try_submit(Class::Batch, |_| 1u32);
        assert!(accepted.is_ok());
        q.close();
        let refused = fleet.try_submit(Class::Batch, |_| 2u32);
        assert_eq!(refused.err(), Some(SubmitError::Closed));
        // Control class gets no exemption from close (only from the
        // capacity bound).
        let refused = fleet.try_submit(Class::Control, |_| 3u32);
        assert_eq!(refused.err(), Some(SubmitError::Closed));
        // Batches are refused whole.
        fn five(_: &mut ShardCtx<'_>) -> u32 {
            5
        }
        type Job = fn(&mut ShardCtx<'_>) -> u32;
        let batch_jobs: Vec<(Class, Job)> = vec![(Class::Batch, five), (Class::Control, five)];
        let refused = fleet.try_submit_batch::<u32, _>(batch_jobs);
        assert!(refused
            .iter()
            .all(|r| matches!(r, Err(SubmitError::Closed))));
        // The panicking wrapper turns the same condition into an
        // unconditional panic, not a silent enqueue.
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            fleet.submit(|_| 4u32);
        }));
        assert!(
            panic_message(panicked.unwrap_err()).contains("closed"),
            "submit after close must fail loudly in every build"
        );
        // A refused submission consumed no job index.
        assert_eq!(fleet.submitted(), 1);
    }

    /// Regression (joiner hang): a job whose worker thread dies after
    /// claiming it but before running it used to leave its result slot
    /// empty forever. The completion guard now resolves it as abandoned.
    #[test]
    fn worker_death_mid_queue_wakes_joiners() {
        let q: Queue<'_> = Queue::new(None);
        let fleet = bare_fleet(&q);
        let claimed = fleet.try_submit(Class::Batch, |_| 1u32).unwrap();
        let queued = fleet.try_submit(Class::Batch, |_| 2u32).unwrap();
        q.close();
        std::thread::scope(|s| {
            // A "worker" that claims the first task and dies without
            // running it (panic outside any per-job catch_unwind — the
            // task closure is dropped during the unwind).
            let h = s.spawn(|| {
                let _task = q.pop().expect("task queued");
                panic!("worker killed mid-queue");
            });
            assert!(h.join().is_err(), "worker must have died");
        });
        let r = claimed.join();
        assert_eq!(r.unwrap_err().message, ABANDONED);
        // The still-queued task is abandoned when the queue drops.
        drop(q);
        assert_eq!(queued.join().unwrap_err().message, ABANDONED);
    }

    /// Regression (poison cascade): a panic while the queue lock was held
    /// used to turn every later `lock().unwrap()` into an opaque
    /// `PoisonError` panic on unrelated threads. Locking is now
    /// poison-tolerant.
    #[test]
    fn poisoned_locks_do_not_cascade() {
        let q: Queue<'_> = Queue::new(None);
        let fleet = bare_fleet(&q);
        // Poison the queue mutex: panic while holding it.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = q.state.lock().unwrap();
            panic!("poison the queue");
        }));
        assert!(q.state.is_poisoned(), "setup must have poisoned the lock");
        // Submission and dispatch still work.
        let h = fleet.try_submit(Class::Batch, |_| 11u32).unwrap();
        q.close();
        let (job, task) = q.pop().expect("task dispatches through poison");
        assert_eq!(job, 0);
        let cfg = FleetConfig::default();
        let mut state = ShardState {
            cfg: cfg.platform.clone(),
            recycle: cfg.recycle,
            platform: None,
            metrics: MetricsSnapshot::default(),
            jobs: 0,
            boots: 0,
            resets: 0,
        };
        let mut ctx = ShardCtx {
            shard: 0,
            job,
            seed: 0,
            used: false,
            state: &mut state,
        };
        task(&mut ctx);
        assert_eq!(h.join().unwrap(), 11);
    }

    #[test]
    fn bounded_queue_rejects_when_full() {
        let cfg = FleetConfig::default().with_shards(1).with_queue_capacity(2);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let r = run(cfg, |fleet| {
            // Occupy the only worker so later submissions stay queued.
            let blocker = fleet.submit(move |_| {
                started_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
            });
            started_rx.recv().unwrap();
            // Two queued jobs fill the bound…
            let a = fleet.try_submit(Class::Batch, |_| 1u32).unwrap();
            let b = fleet.try_submit(Class::Interactive, |_| 2u32).unwrap();
            // …the third data-plane job is rejected with the bound…
            let rejected = fleet.try_submit(Class::Batch, |_| 3u32);
            assert_eq!(rejected.err(), Some(SubmitError::Full { capacity: 2 }));
            // …but control-plane work is exempt from the bound.
            let ctrl = fleet.try_submit(Class::Control, |_| 4u32).unwrap();
            gate_tx.send(()).unwrap();
            blocker.join().unwrap();
            (a.join().unwrap(), b.join().unwrap(), ctrl.join().unwrap())
        });
        assert_eq!(r.value, (1, 2, 4));
        // blocker + a + b + ctrl ran; the rejected job never did.
        assert_eq!(r.jobs, 4);
    }

    #[test]
    fn classes_dispatch_in_priority_order() {
        let cfg = FleetConfig::default().with_shards(1);
        let order = Mutex::new(Vec::new());
        let log = &order;
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        run(cfg, |fleet| {
            let blocker = fleet.submit(move |_| {
                started_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
            });
            started_rx.recv().unwrap();
            // Queued while the worker is busy: submission order is
            // batch, batch, interactive, control — dispatch order must
            // be control, interactive, batch, batch.
            for (class, tag) in [
                (Class::Batch, "b1"),
                (Class::Batch, "b2"),
                (Class::Interactive, "i"),
                (Class::Control, "c"),
            ] {
                fleet
                    .try_submit(class, move |_| {
                        lock_unpoisoned(log).push(tag);
                    })
                    .unwrap();
            }
            gate_tx.send(()).unwrap();
            blocker.join().unwrap();
        });
        assert_eq!(*lock_unpoisoned(&order), vec!["c", "i", "b1", "b2"]);
    }

    #[test]
    fn seeds_are_index_derived() {
        let cfg = FleetConfig::default().with_shards(2);
        let base = cfg.platform.clone();
        let r = run(cfg, |fleet| {
            (0..8)
                .map(|_| fleet.submit(|ctx| (ctx.job_index(), ctx.seed())))
                .collect::<Vec<_>>()
        });
        for h in r.value {
            let (job, seed) = h.join().unwrap();
            assert_eq!(seed, base.derive_seed(job));
        }
    }

    #[test]
    fn platform_jobs_see_a_fresh_seeded_platform() {
        let cfg = FleetConfig::default().with_shards(2).with_platform(small());
        let r = run(cfg, |fleet| {
            (0..6)
                .map(|_| {
                    fleet.submit(|ctx| {
                        let seed = ctx.seed();
                        let job = ctx.job_index() as u32;
                        let p = ctx.platform();
                        assert_eq!(p.config().seed, seed);
                        // Fresh boot: full secure pool, boot-only cycles.
                        assert_eq!(p.os.secure_available(), 32);
                        let e = p.load(&progs::adder()).unwrap();
                        let run = p.run(&e, 0, [job, 1, 0]);
                        (run, p.cycles())
                    })
                })
                .collect::<Vec<_>>()
        });
        for (i, h) in r.value.into_iter().enumerate() {
            let (er, cycles) = h.join().unwrap();
            assert_eq!(er, EnclaveRun::Exited(i as u32 + 1));
            // Same workload on a scratch fresh platform: identical cycles.
            let mut fresh = Platform::with_config(
                small().with_seed(PlatformConfig::default().derive_seed(i as u64)),
            );
            let e = fresh.load(&progs::adder()).unwrap();
            fresh.run(&e, 0, [i as u32, 1, 0]);
            assert_eq!(cycles, fresh.cycles(), "job {i} diverged from fresh boot");
        }
    }

    #[test]
    fn reboot_recycling_boots_once_per_shard() {
        let cfg = FleetConfig::default().with_shards(1).with_platform(small());
        let r = run(cfg, |fleet| {
            for _ in 0..5 {
                fleet.submit(|ctx| {
                    ctx.platform();
                });
            }
        });
        assert_eq!(r.shards[0].boots, 1);
        assert_eq!(r.shards[0].resets, 4);
    }

    #[test]
    fn rebuild_recycling_boots_every_job() {
        let cfg = FleetConfig::default()
            .with_shards(1)
            .with_platform(small())
            .with_recycle(Recycle::Rebuild);
        let r = run(cfg, |fleet| {
            for _ in 0..3 {
                fleet.submit(|ctx| {
                    ctx.platform();
                });
            }
        });
        assert_eq!(r.shards[0].boots, 3);
        assert_eq!(r.shards[0].resets, 0);
    }

    #[test]
    fn platforms_boot_lazily() {
        let r = run(FleetConfig::default().with_shards(4), |fleet| {
            for i in 0..16u64 {
                fleet.submit(move |_| i);
            }
        });
        assert_eq!(r.shards.iter().map(|s| s.boots).sum::<u64>(), 0);
        assert_eq!(r.metrics.total(), MetricsSnapshot::default());
    }

    #[test]
    fn absorbed_metrics_fold_into_the_total() {
        let r = run(FleetConfig::default().with_shards(3), |fleet| {
            for i in 1..=4u64 {
                fleet.submit(move |ctx| {
                    ctx.absorb(&MetricsSnapshot {
                        cycles: i,
                        ..MetricsSnapshot::default()
                    });
                });
            }
        });
        assert_eq!(r.metrics.total().cycles, 1 + 2 + 3 + 4);
        assert_eq!(r.metrics.shard_count(), 3);
    }

    #[test]
    fn body_panic_still_runs_submitted_jobs_and_propagates() {
        let ran = AtomicU64::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run(FleetConfig::default().with_shards(2), |fleet| {
                for _ in 0..4 {
                    fleet.submit(|_| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
                panic!("body bailed");
            });
        }));
        assert_eq!(panic_message(caught.unwrap_err()), "body bailed");
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let r = run(FleetConfig::default().with_shards(0), |fleet| {
            fleet.submit(|ctx| ctx.shard()).join().unwrap()
        });
        assert_eq!(r.value, 0);
        assert_eq!(r.shards.len(), 1);
    }
}
