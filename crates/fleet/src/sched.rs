//! The sharded scheduler: worker threads with pooled platforms pulling
//! jobs from per-worker sharded lanes with work stealing.
//!
//! Ownership story: each worker thread *owns* at most one [`Platform`]
//! (lazily booted on first use, recycled between jobs), so no platform
//! is ever shared — `Platform` only needs to be `Send`, never `Sync`.
//! Jobs are `FnOnce` closures handed a [`ShardCtx`]; results travel back
//! through typed [`JobHandle`]s. Per-shard counter snapshots fold into a
//! [`FleetMetrics`] when the run finishes.
//!
//! Queue topology: instead of one central mutex-guarded queue, every
//! shard owns a lock of its own holding three class lanes. Submissions
//! round-robin across shards; a worker drains its *own* lanes first
//! (highest class first, FIFO within a class), then *steals* from
//! siblings — scanning classes in priority order and, within a class,
//! taking the oldest (lowest-index) queued job across all sibling
//! shards. Class priority (control > interactive > batch) therefore
//! holds globally even though no single lock serializes the fleet: a
//! worker never dispatches a batch job while any shard holds queued
//! control work it could see. [`Fleet::try_submit_batch`] enqueues N
//! classed jobs under one pass that takes each involved shard lock once,
//! assigns all indices contiguously in item order, and wakes workers
//! once — the amortization that makes high-rate ingestion scale.
//!
//! Submission is classed ([`Class`]): control-plane jobs are always
//! dispatched before interactive ones, which precede batch work. The
//! queue may be bounded ([`FleetConfig::with_queue_capacity`]): a full
//! queue *rejects* data-plane submissions with [`SubmitError::Full`]
//! instead of growing without limit — the backpressure surface the
//! service node builds on. The bound is enforced by an atomic
//! reservation (never overshoots, never double-counts). Submitting
//! after the fleet shut its queue is a hard [`SubmitError::Closed`]
//! error in every build.
//!
//! Liveness contract: [`JobHandle::join`] always wakes. A job's result
//! slot is completed by the job itself (value or caught panic), or — if
//! the job never runs because its worker died mid-queue or the fleet
//! tore down around it — by the completion guard that every queued task
//! carries, which fills the slot with a [`JobPanic`] when the task is
//! dropped unexecuted. Shutdown is race-free across shards: `close`
//! publishes the flag and then passes every shard lock, so a worker only
//! exits after verifying *under all shard locks at once* that no
//! accepted job remains anywhere.
//!
//! Determinism contract: a job's *result* may depend only on its index
//! and derived seed ([`PlatformConfig::derive_seed`]), never on which
//! shard runs it or whether it was stolen — the scheduler guarantees the
//! platform a job sees is bit-for-bit a fresh boot with the job's seed,
//! whichever worker picks it up and whatever ran there before. Which
//! *shard* a job lands on is scheduling noise, so the per-shard metric
//! split varies run to run, but the summed totals are shard-count
//! independent. Batch submission assigns indices in item order while
//! holding every involved shard lock, so the request→index mapping is
//! identical at any shard count.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
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
    /// Maximum queued (submitted, not yet claimed) data-plane jobs;
    /// `None` = unbounded. When bounded, [`Fleet::try_submit`] returns
    /// [`SubmitError::Full`] instead of growing the backlog.
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

    /// Returns the config with the queue bounded to `capacity` queued
    /// data-plane jobs (backpressure; see [`SubmitError::Full`]).
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

struct Slot<T> {
    result: Mutex<Option<JobResult<T>>>,
    done: Condvar,
}

/// Shared result storage for one submitted batch: one allocation and one
/// mutex/condvar pair for N jobs, instead of one `Arc<Slot>` each. Every
/// joiner waits on the shared condvar and re-checks only its own cell;
/// completions are single-assignment per cell.
struct SlotBlock<T> {
    results: Mutex<Vec<Option<JobResult<T>>>>,
    done: Condvar,
}

/// Where one job's result lives: its own slot (single submission) or a
/// cell in a batch's shared [`SlotBlock`].
enum SlotRef<T> {
    Single(Arc<Slot<T>>),
    Block(Arc<SlotBlock<T>>, usize),
}

impl<T> SlotRef<T> {
    fn fill(&self, r: JobResult<T>) {
        match self {
            SlotRef::Single(s) => {
                *lock_unpoisoned(&s.result) = Some(r);
                s.done.notify_all();
            }
            SlotRef::Block(b, at) => {
                lock_unpoisoned(&b.results)[*at] = Some(r);
                b.done.notify_all();
            }
        }
    }
}

/// Completion guard: fills the job's result slot exactly once. The task
/// closure completes it with the job's outcome; if the task is instead
/// *dropped* unexecuted — its worker thread died between claiming it and
/// running it, or the fleet tore down with the job still queued — the
/// guard's `Drop` completes the slot with a [`JobPanic`] so the joiner
/// always wakes instead of blocking forever on a slot nobody will fill.
struct Completion<T> {
    slot: SlotRef<T>,
    filled: bool,
}

impl<T> Completion<T> {
    fn complete(mut self, r: JobResult<T>) {
        self.slot.fill(r);
        self.filled = true;
    }
}

impl<T> Drop for Completion<T> {
    fn drop(&mut self) {
        if !self.filled {
            self.slot.fill(Err(JobPanic {
                message: ABANDONED.to_string(),
            }));
        }
    }
}

/// Typed handle to one submitted job's eventual result.
pub struct JobHandle<T> {
    slot: SlotRef<T>,
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
        match self.slot {
            SlotRef::Single(s) => {
                let mut r = lock_unpoisoned(&s.result);
                loop {
                    if let Some(v) = r.take() {
                        return v;
                    }
                    r = wait_unpoisoned(&s.done, r);
                }
            }
            SlotRef::Block(b, at) => {
                let mut r = lock_unpoisoned(&b.results);
                loop {
                    if let Some(v) = r[at].take() {
                        return v;
                    }
                    r = wait_unpoisoned(&b.done, r);
                }
            }
        }
    }
}

/// A queued task: type-erased job closure, paired with its index. The
/// closure owns a [`Completion`]; dropping it unexecuted resolves the
/// job as abandoned.
type Task<'env> = Box<dyn FnOnce(&mut ShardCtx<'_>) + Send + 'env>;

/// One shard's share of the queue: a FIFO lane per [`Class`], indexed
/// by `Class::lane()`, guarded by its own mutex.
struct ShardLanes<'env> {
    lanes: [VecDeque<(u64, Task<'env>)>; 3],
}

impl ShardLanes<'_> {
    fn is_empty(&self) -> bool {
        self.lanes.iter().all(VecDeque::is_empty)
    }
}

/// What one steal scan produced.
enum Steal<'env> {
    /// Claimed a job from a sibling shard.
    Got(u64, Task<'env>),
    /// Saw a candidate but lost the pop race; rescan from the top.
    Race,
    /// No sibling shard holds visible work.
    Empty,
}

/// The sharded work queue. Accounting lives in atomics; only the lanes
/// themselves sit behind (per-shard) locks:
///
/// - `pending` counts accepted-but-unclaimed jobs and doubles as the
///   capacity reservation counter: a data-plane submit reserves via CAS
///   *before* pushing, so a bounded queue never overshoots its bound
///   even under concurrent submitters.
/// - `submitted` hands out job indices; it is only advanced while the
///   target shard lock (or, for batches, every involved shard lock) is
///   held, so within any one lane indices are strictly increasing —
///   which is what makes oldest-first stealing well-defined by peeking
///   lane fronts.
/// - The sleep protocol (`sleeping` + the `sleep` mutex + `ready`)
///   never loses a wakeup: a worker advertises itself in `sleeping`
///   while holding `sleep` and re-checks for work before waiting; a
///   submitter bumps `pending` first, then (seeing a sleeper) passes
///   through `sleep` before notifying. In the total order of these
///   seq-cst operations, either the sleeper sees the new `pending` or
///   the submitter sees the sleeper — never neither.
struct Queue<'env> {
    shards: Vec<Mutex<ShardLanes<'env>>>,
    /// Accepted, not yet claimed by a worker (includes capacity
    /// reservations in flight).
    pending: AtomicUsize,
    /// Jobs accepted so far; the next job index.
    submitted: AtomicU64,
    closed: AtomicBool,
    /// Round-robin cursor for shard placement.
    rr: AtomicUsize,
    /// Companion mutex for the sleep protocol; holds no data.
    sleep: Mutex<()>,
    ready: Condvar,
    /// Workers currently inside (or entering) a condvar wait.
    sleeping: AtomicUsize,
    capacity: Option<usize>,
}

fn empty_lanes<'env>() -> ShardLanes<'env> {
    ShardLanes {
        lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
    }
}

impl<'env> Queue<'env> {
    fn new(shards: usize, capacity: Option<usize>) -> Self {
        Queue {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(empty_lanes()))
                .collect(),
            pending: AtomicUsize::new(0),
            submitted: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            rr: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            ready: Condvar::new(),
            sleeping: AtomicUsize::new(0),
            capacity,
        }
    }

    /// Reserves queue occupancy for up to `want` data-plane jobs,
    /// returning how many fit under the bound (all of them when
    /// unbounded). The reservation is taken before any push, so
    /// concurrent submitters can never overshoot a bounded queue; a
    /// reservation that is later abandoned (close raced the push) must
    /// be released with `unreserve`.
    fn reserve_data(&self, want: usize) -> usize {
        match self.capacity {
            None => {
                self.pending.fetch_add(want, SeqCst);
                want
            }
            Some(cap) => {
                let mut p = self.pending.load(SeqCst);
                loop {
                    let take = want.min(cap.saturating_sub(p));
                    if take == 0 {
                        return 0;
                    }
                    match self.pending.compare_exchange(p, p + take, SeqCst, SeqCst) {
                        Ok(_) => return take,
                        Err(cur) => p = cur,
                    }
                }
            }
        }
    }

    fn unreserve(&self, n: usize) {
        if n > 0 {
            self.pending.fetch_sub(n, SeqCst);
        }
    }

    /// Wakes workers for `n` newly queued jobs. The empty pass through
    /// the `sleep` mutex serializes with sleepers that advertised
    /// themselves but have not yet entered the wait — see the protocol
    /// note on [`Queue`].
    fn wake(&self, n: usize) {
        if n == 0 || self.sleeping.load(SeqCst) == 0 {
            return;
        }
        drop(lock_unpoisoned(&self.sleep));
        if n == 1 {
            self.ready.notify_one();
        } else {
            self.ready.notify_all();
        }
    }

    /// Enqueues a task, assigning and returning its job index. Refuses
    /// with a hard error in every build when the queue is closed, and
    /// with [`SubmitError::Full`] when a bounded queue is at capacity
    /// (control-class jobs are exempt from the bound). A refused task is
    /// dropped here, which is harmless: the completion guard inside the
    /// task resolves the (never-returned) handle as abandoned.
    fn push(&self, class: Class, task: Task<'env>) -> Result<u64, SubmitError> {
        if self.closed.load(SeqCst) {
            return Err(SubmitError::Closed);
        }
        let target = self.rr.fetch_add(1, SeqCst) % self.shards.len();
        let mut s = lock_unpoisoned(&self.shards[target]);
        // Re-check under the shard lock: `close` passes every shard
        // lock after setting the flag, so a push that got here before
        // the close is completed before workers decide to exit, and one
        // that got here after sees the flag.
        if self.closed.load(SeqCst) {
            return Err(SubmitError::Closed);
        }
        if class == Class::Control {
            self.pending.fetch_add(1, SeqCst);
        } else if self.reserve_data(1) == 0 {
            let cap = self.capacity.expect("reserve only fails when bounded");
            return Err(SubmitError::Full { capacity: cap });
        }
        let job = self.submitted.fetch_add(1, SeqCst);
        s.lanes[class.lane()].push_back((job, task));
        drop(s);
        self.wake(1);
        Ok(job)
    }

    /// Enqueues a batch of classed tasks under one pass: one capacity
    /// reservation, every involved shard lock taken once (in ascending
    /// order), indices assigned contiguously in item order, and one
    /// wake. Per-item outcomes mirror [`Queue::push`]: data-plane items
    /// beyond the capacity reservation are refused `Full` (the accepted
    /// ones are the earliest in item order), and a close that raced the
    /// batch refuses every item `Closed`.
    ///
    /// Index assignment is in item order regardless of shard count, so
    /// a batch's request→index (and therefore request→seed) mapping is
    /// identical at 1 shard and N shards — the determinism contract the
    /// service layer relies on.
    fn push_batch(&self, items: Vec<(Class, Task<'env>)>) -> Vec<Result<u64, SubmitError>> {
        if items.is_empty() {
            return Vec::new();
        }
        if self.closed.load(SeqCst) {
            return items.iter().map(|_| Err(SubmitError::Closed)).collect();
        }
        let n = self.shards.len();
        let data_total = items.iter().filter(|(c, _)| *c != Class::Control).count();
        let ctrl_total = items.len() - data_total;
        let data_take = self.reserve_data(data_total);
        if ctrl_total > 0 {
            self.pending.fetch_add(ctrl_total, SeqCst);
        }
        let accepted = ctrl_total + data_take;
        if accepted == 0 {
            let cap = self.capacity.expect("reserve only fails when bounded");
            return items
                .iter()
                .map(|_| Err(SubmitError::Full { capacity: cap }))
                .collect();
        }
        // Ascending-order multi-lock: same order as the worker exit
        // check and (trivially) `close`, so no deadlock. Holding every
        // shard lock while assigning the index block keeps per-lane
        // index order strict even against concurrent single pushes.
        let mut guards: Vec<_> = self.shards.iter().map(lock_unpoisoned).collect();
        if self.closed.load(SeqCst) {
            drop(guards);
            self.unreserve(accepted);
            return items.iter().map(|_| Err(SubmitError::Closed)).collect();
        }
        let base_shard = self.rr.fetch_add(accepted, SeqCst);
        let base_idx = self.submitted.fetch_add(accepted as u64, SeqCst);
        let cap = self.capacity.unwrap_or(usize::MAX);
        let mut out = Vec::with_capacity(items.len());
        let mut placed = 0usize;
        let mut data_used = 0usize;
        for (class, task) in items {
            let admit = if class == Class::Control {
                true
            } else if data_used < data_take {
                data_used += 1;
                true
            } else {
                false
            };
            if !admit {
                out.push(Err(SubmitError::Full { capacity: cap }));
                continue;
            }
            let job = base_idx + placed as u64;
            let shard = (base_shard + placed) % n;
            guards[shard].lanes[class.lane()].push_back((job, task));
            placed += 1;
            out.push(Ok(job));
        }
        debug_assert_eq!(placed, accepted);
        drop(guards);
        self.wake(placed);
        out
    }

    /// One steal scan on behalf of worker `me`: classes in priority
    /// order; within a class, the oldest (lowest-index) front across
    /// all sibling shards. Locks are taken one shard at a time, so a
    /// peeked candidate can be claimed by its owner (or another thief)
    /// before we pop it — that is reported as [`Steal::Race`] and the
    /// caller rescans.
    fn try_steal(&self, me: usize) -> Steal<'env> {
        for lane in 0..3 {
            let mut best: Option<(usize, u64)> = None;
            for (v, shard) in self.shards.iter().enumerate() {
                if v == me {
                    continue;
                }
                let s = lock_unpoisoned(shard);
                if let Some(front) = s.lanes[lane].front() {
                    let idx = front.0;
                    if best.is_none_or(|(_, b)| idx < b) {
                        best = Some((v, idx));
                    }
                }
            }
            if let Some((v, _)) = best {
                let mut s = lock_unpoisoned(&self.shards[v]);
                return match s.lanes[lane].pop_front() {
                    Some((job, task)) => {
                        self.pending.fetch_sub(1, SeqCst);
                        Steal::Got(job, task)
                    }
                    None => Steal::Race,
                };
            }
        }
        Steal::Empty
    }

    /// Claims the next task for worker `me` — own lanes first (highest
    /// class first, FIFO within a class), then stealing oldest-first
    /// from siblings — blocking while the queue is open and empty.
    /// After close, drains the backlog and then returns `None`; the
    /// all-shard emptiness check under every lock guarantees no
    /// accepted job is ever abandoned by an early exit. The returned
    /// flag is true when the job was stolen from a sibling shard.
    fn pop(&self, me: usize) -> Option<(u64, Task<'env>, bool)> {
        loop {
            {
                let mut s = lock_unpoisoned(&self.shards[me]);
                if let Some((job, task)) = s.lanes.iter_mut().find_map(VecDeque::pop_front) {
                    self.pending.fetch_sub(1, SeqCst);
                    return Some((job, task, false));
                }
            }
            if self.shards.len() > 1 && self.pending.load(SeqCst) > 0 {
                match self.try_steal(me) {
                    Steal::Got(job, task) => return Some((job, task, true)),
                    Steal::Race => continue,
                    Steal::Empty => {}
                }
            }
            if self.closed.load(SeqCst) {
                // Exit decision under every shard lock at once: any
                // in-flight push either completed (we see its task) or
                // will observe `closed` under its shard lock and refuse.
                let guards: Vec<_> = self.shards.iter().map(lock_unpoisoned).collect();
                if guards.iter().all(|g| g.is_empty()) {
                    return None;
                }
                drop(guards);
                continue;
            }
            if self.pending.load(SeqCst) > 0 {
                // A submitter holds a reservation it has not pushed yet
                // (or a racing claim emptied what we saw). Let it run,
                // then rescan.
                std::thread::yield_now();
                continue;
            }
            let guard = lock_unpoisoned(&self.sleep);
            self.sleeping.fetch_add(1, SeqCst);
            // Re-check before committing to the wait: a submitter that
            // missed us in `sleeping` must have already bumped
            // `pending` (or set `closed`) — seq-cst total order
            // guarantees we see it here.
            if self.pending.load(SeqCst) == 0 && !self.closed.load(SeqCst) {
                let guard = wait_unpoisoned(&self.ready, guard);
                self.sleeping.fetch_sub(1, SeqCst);
                drop(guard);
            } else {
                self.sleeping.fetch_sub(1, SeqCst);
                drop(guard);
            }
        }
    }

    fn close(&self) {
        self.closed.store(true, SeqCst);
        // Pass every shard lock: serializes with in-flight pushes that
        // read `closed == false` before the store (their push completes
        // before we pass their shard, and workers cannot conclude
        // emptiness without these locks either).
        for shard in &self.shards {
            drop(lock_unpoisoned(shard));
        }
        drop(lock_unpoisoned(&self.sleep));
        self.ready.notify_all();
    }

    fn submitted(&self) -> u64 {
        self.submitted.load(SeqCst)
    }

    fn queued_len(&self) -> usize {
        self.pending.load(SeqCst)
    }
}

/// One worker's pooled state, threaded through every job it runs.
struct ShardState {
    cfg: PlatformConfig,
    recycle: Recycle,
    platform: Option<Platform>,
    metrics: MetricsSnapshot,
    jobs: u64,
    own: u64,
    stolen: u64,
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
    /// Jobs this shard executed (`own + stolen`).
    pub jobs: u64,
    /// Jobs claimed from this worker's own lanes.
    pub own: u64,
    /// Jobs stolen from sibling shards' lanes.
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

impl<R> FleetRun<R> {
    /// Jobs dispatched from the claiming worker's own lanes, summed.
    pub fn own_jobs(&self) -> u64 {
        self.shards.iter().map(|s| s.own).sum()
    }

    /// Jobs stolen across shards, summed.
    pub fn stolen_jobs(&self) -> u64 {
        self.shards.iter().map(|s| s.stolen).sum()
    }
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
    /// index was consumed, and there is no handle to leak.
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
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            done: Condvar::new(),
        });
        let completion = Completion {
            slot: SlotRef::Single(Arc::clone(&slot)),
            filled: false,
        };
        let job = self.queue.push(
            class,
            Box::new(move |ctx| {
                let result = catch_unwind(AssertUnwindSafe(|| f(ctx))).map_err(|p| JobPanic {
                    message: panic_message(p),
                });
                completion.complete(result);
            }),
        )?;
        Ok(JobHandle {
            slot: SlotRef::Single(slot),
            job,
        })
    }

    /// Submits a batch of classed jobs in one queue pass: one capacity
    /// reservation, one traversal of the shard locks, one result-block
    /// allocation shared by the whole batch, and one worker wake —
    /// the per-job constant costs of [`Fleet::try_submit`] amortized
    /// over N jobs. Returns one `Result` per job, in item order;
    /// accepted jobs get contiguous indices assigned in item order
    /// (identical at any shard count), rejected ones consumed no index.
    ///
    /// Admission matches `try_submit` per item: on a bounded queue the
    /// earliest data-plane items fill the remaining capacity and the
    /// rest are refused [`SubmitError::Full`]; control items are exempt
    /// from the bound; a close refuses the whole batch.
    pub fn try_submit_batch<T, F>(
        &self,
        jobs: Vec<(Class, F)>,
    ) -> Vec<Result<JobHandle<T>, SubmitError>>
    where
        T: Send + 'env,
        F: FnOnce(&mut ShardCtx<'_>) -> T + Send + 'env,
    {
        if jobs.is_empty() {
            return Vec::new();
        }
        let block = Arc::new(SlotBlock {
            results: Mutex::new((0..jobs.len()).map(|_| None).collect()),
            done: Condvar::new(),
        });
        let tasks: Vec<(Class, Task<'env>)> = jobs
            .into_iter()
            .enumerate()
            .map(|(at, (class, f))| {
                let completion = Completion {
                    slot: SlotRef::Block(Arc::clone(&block), at),
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
            .push_batch(tasks)
            .into_iter()
            .enumerate()
            .map(|(at, r)| {
                r.map(|job| JobHandle {
                    slot: SlotRef::Block(Arc::clone(&block), at),
                    job,
                })
            })
            .collect()
    }

    /// [`Fleet::try_submit_batch`], panicking on any rejection — for
    /// harnesses that submit to an unbounded queue while the fleet body
    /// runs.
    ///
    /// # Panics
    ///
    /// Panics (in every build) if any item is refused.
    pub fn submit_batch<T, F>(&self, jobs: Vec<(Class, F)>) -> Vec<JobHandle<T>>
    where
        T: Send + 'env,
        F: FnOnce(&mut ShardCtx<'_>) -> T + Send + 'env,
    {
        self.try_submit_batch(jobs)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("fleet batch submit failed: {e}")))
            .collect()
    }

    /// [`Fleet::try_submit`] in `class`, panicking on rejection — for
    /// callers that configured an unbounded queue and submit only while
    /// the fleet body runs (both invariants hold for every in-workspace
    /// harness; the service node uses `try_submit`).
    ///
    /// # Panics
    ///
    /// Panics (in every build) if the queue is closed or full.
    pub fn submit_class<T, F>(&self, class: Class, f: F) -> JobHandle<T>
    where
        T: Send + 'env,
        F: FnOnce(&mut ShardCtx<'_>) -> T + Send + 'env,
    {
        self.try_submit(class, f)
            .unwrap_or_else(|e| panic!("fleet submit failed: {e}"))
    }

    /// [`Fleet::submit_class`] in [`Class::Batch`] — the compatibility
    /// surface predating priority classes.
    ///
    /// # Panics
    ///
    /// Panics (in every build) if the queue is closed or full.
    pub fn submit<T, F>(&self, f: F) -> JobHandle<T>
    where
        T: Send + 'env,
        F: FnOnce(&mut ShardCtx<'_>) -> T + Send + 'env,
    {
        self.submit_class(Class::Batch, f)
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
        own: 0,
        stolen: 0,
        boots: 0,
        resets: 0,
    };
    while let Some((job, task, stolen)) = queue.pop(shard) {
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
        if stolen {
            state.stolen += 1;
        } else {
            state.own += 1;
        }
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
    let queue = Queue::new(shards, cfg.queue_capacity);
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
            own: s.own,
            stolen: s.stolen,
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
        // Every dispatch was either an own-lane claim or a steal.
        assert_eq!(r.own_jobs() + r.stolen_jobs(), 64);
    }

    #[test]
    fn batch_submission_runs_every_job_with_contiguous_indices() {
        let r = run(FleetConfig::default().with_shards(4), |fleet| {
            let handles = fleet.submit_batch(
                (0..32)
                    .map(|_| (Class::Batch, |ctx: &mut ShardCtx<'_>| ctx.job_index() * 3))
                    .collect::<Vec<_>>(),
            );
            handles
                .into_iter()
                .enumerate()
                .map(|(i, h)| {
                    assert_eq!(h.index(), i as u64, "indices are item-ordered");
                    h.join().unwrap()
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(r.value, (0..32).map(|i| i * 3).collect::<Vec<u64>>());
        assert_eq!(r.jobs, 32);
        assert_eq!(r.own_jobs() + r.stolen_jobs(), 32);
    }

    /// White-box: a bounded queue admits the earliest data-plane prefix
    /// of a batch, rejects the overflow with the bound, and exempts
    /// control items.
    #[test]
    fn batch_on_a_bounded_queue_admits_a_prefix() {
        let q: Queue<'_> = Queue::new(1, Some(2));
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

    /// White-box steal order: an idle worker whose own lanes are empty
    /// steals classes in priority order and, within a class, the oldest
    /// job across all sibling shards.
    #[test]
    fn steals_highest_class_then_oldest_first() {
        let q: Queue<'_> = Queue::new(3, None);
        let fleet = bare_fleet(&q);
        // Round-robin placement is deterministic from rr = 0:
        // j0→shard0, j1→shard1, j2→shard2, j3→shard0, j4→shard1, j5→shard2.
        fleet.try_submit::<u64, _>(Class::Batch, |_| 0).unwrap();
        fleet
            .try_submit::<u64, _>(Class::Interactive, |_| 1)
            .unwrap();
        fleet.try_submit::<u64, _>(Class::Batch, |_| 2).unwrap();
        fleet.try_submit::<u64, _>(Class::Batch, |_| 3).unwrap();
        fleet.try_submit::<u64, _>(Class::Control, |_| 4).unwrap();
        fleet.try_submit::<u64, _>(Class::Batch, |_| 5).unwrap();
        q.close();
        let mut order = Vec::new();
        while let Some((job, _task, stolen)) = q.pop(2) {
            order.push((job, stolen));
        }
        assert_eq!(
            order,
            vec![
                // Own shard (2) drains first: j2 then j5, both batch.
                (2, false),
                (5, false),
                // Then steal: control (j4), interactive (j1), then the
                // oldest batch across siblings (j0 before j3).
                (4, true),
                (1, true),
                (0, true),
                (3, true),
            ]
        );
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
        let q: Queue<'_> = Queue::new(1, None);
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
        let q: Queue<'_> = Queue::new(1, None);
        let fleet = bare_fleet(&q);
        let claimed = fleet.try_submit(Class::Batch, |_| 1u32).unwrap();
        let queued = fleet.try_submit(Class::Batch, |_| 2u32).unwrap();
        q.close();
        std::thread::scope(|s| {
            // A "worker" that claims the first task and dies without
            // running it (panic outside any per-job catch_unwind — the
            // task closure is dropped during the unwind).
            let h = s.spawn(|| {
                let _task = q.pop(0).expect("task queued");
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

    /// Regression (poison cascade): a panic while a shard lock was held
    /// used to turn every later `lock().unwrap()` into an opaque
    /// `PoisonError` panic on unrelated threads. Locking is now
    /// poison-tolerant.
    #[test]
    fn poisoned_locks_do_not_cascade() {
        let q: Queue<'_> = Queue::new(1, None);
        let fleet = bare_fleet(&q);
        // Poison the shard mutex: panic while holding it.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = q.shards[0].lock().unwrap();
            panic!("poison the queue");
        }));
        assert!(
            q.shards[0].is_poisoned(),
            "setup must have poisoned the lock"
        );
        // Submission and dispatch still work.
        let h = fleet.try_submit(Class::Batch, |_| 11u32).unwrap();
        q.close();
        let (job, task, stolen) = q.pop(0).expect("task dispatches through poison");
        assert_eq!(job, 0);
        assert!(!stolen);
        let cfg = FleetConfig::default();
        let mut state = ShardState {
            cfg: cfg.platform.clone(),
            recycle: cfg.recycle,
            platform: None,
            metrics: MetricsSnapshot::default(),
            jobs: 0,
            own: 0,
            stolen: 0,
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
                fleet.submit_class(class, move |_| {
                    lock_unpoisoned(log).push(tag);
                });
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
