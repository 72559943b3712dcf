//! The service node: a scoped run wrapping the fleet scheduler behind
//! the request API.
//!
//! [`Service::run`] spawns a fleet, hands the body a [`ServiceHandle`]
//! to submit [`Request`]s through, and when the body returns lets every
//! accepted request drain before folding metrics and returning. The
//! node adds three things over the raw fleet:
//!
//! - **Typed requests with priority classes**: each request kind maps
//!   to a fleet [`Class`] lane ([`Request::class`]) and a handler that
//!   runs it on the dispatching shard.
//! - **Backpressure and shutdown semantics**: every request enters
//!   through [`ServiceHandle::submit_batch`] ([`ServiceHandle::submit`]
//!   is its one-item case). A bounded queue rejects data-plane requests
//!   with [`Reject::QueueFull`] at the door;
//!   [`ServiceHandle::shutdown`] stops admission
//!   ([`Reject::ShuttingDown`]) and makes already-queued data-plane
//!   requests resolve to [`ServiceError::Shutdown`] at dispatch instead
//!   of running — in-flight requests always complete or fail typed,
//!   never hang (the fleet's completion guard backs the last-resort
//!   case).
//! - **Per-request accounting**: every accepted request produces a
//!   [`RequestRecord`] with wall-clock queue/service latency and the
//!   simulated-machine counters it accrued. The counters a request
//!   records are exactly what its job folds into the fleet metrics, so
//!   the record stream sums to the fleet total — tested as the service
//!   conservation law. Every handler that runs a platform runs its
//!   work inside the request's one trace frame, which stamps
//!   cycle-stamped [`Event::ReqDispatch`]/[`Event::ReqComplete`] spans
//!   into the machine's flight recorder when tracing is armed.
//!
//! Sessions are the one stateful surface. Every protocol opens a
//! session through one path: boot a dedicated [`Platform`], allocate
//! the session id, load the protocol's enclave and run its start step
//! (none for the secret-keeper, the in-enclave handshake for the RA
//! enclave). Open sessions live in a striped table shared across
//! shards — stripe `id % 8` owns session `id`, so operations on
//! different sessions only serialize when they collide on a stripe
//! (the data plane never touches the table).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use komodo::{Enclave, Platform, PlatformConfig};
use komodo_armv7::{ExitReason, Word};
use komodo_fleet::{Class, Fleet, FleetConfig, JobHandle, ShardCtx, ShardStats, SubmitError};
use komodo_guest::notary::notary_image;
use komodo_guest::{user, Image};
use komodo_os::EnclaveRun;
use komodo_spec::seed::splitmix64;
use komodo_trace::{Event, FleetMetrics, MetricsSnapshot};

use crate::latency::RequestRecord;
use crate::protocol::{
    self, Attested, AttestedStep, KvStep, ProtoStep, Protocol, SecretKeeper, SessionState, StepCtx,
    Verdict,
};
use crate::report::ServiceReport;
use crate::request::{Reject, Request, Response, ServiceError};

/// Poison-tolerant lock, same invariant as the fleet scheduler's: all
/// state under these mutexes (record vector, session table) is mutated
/// to completion before the guard drops, so it stays consistent across
/// another thread's unwind.
fn lock_unpoisoned<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Service construction parameters.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker shards of the underlying fleet (clamped to at least 1).
    pub shards: usize,
    /// Base platform parameters for pooled shard platforms and session
    /// platforms alike. The default is sized for the notary (2 MiB
    /// insecure memory, 256 secure pages).
    pub platform: PlatformConfig,
    /// Bound on the total queued backlog, control-plane requests
    /// included; `None` = unbounded. When bounded, a data-plane
    /// [`ServiceHandle::submit`] that finds no room left returns
    /// [`Reject::QueueFull`] instead of growing the backlog;
    /// control-plane teardown is always admitted.
    pub queue_capacity: Option<usize>,
    /// Flight-recorder capacity armed on each machine a request touches
    /// (0 disables). When armed, request dispatch/completion are
    /// stamped into the recorder as cycle-stamped span events.
    pub trace_capacity: usize,
    /// How long an attested session may wait for its confirmation tag,
    /// measured in request ids (the node's deterministic clock): a
    /// `HandshakeConfirm` arriving more than this many requests after
    /// its `HandshakeBegin` is rejected
    /// [`ProtocolError::Expired`](crate::protocol::ProtocolError) and
    /// the session torn down. The default is generous (a million ids);
    /// tests shrink it to exercise the expiry path.
    pub handshake_ttl: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            platform: PlatformConfig::default()
                .with_insecure_size(2 << 20)
                .with_npages(256),
            queue_capacity: None,
            trace_capacity: 0,
            handshake_ttl: 1 << 20,
        }
    }
}

impl ServiceConfig {
    /// Returns the config with `shards` fleet workers.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Returns the config with the given base platform parameters.
    pub fn with_platform(mut self, platform: PlatformConfig) -> Self {
        self.platform = platform;
        self
    }

    /// Returns the config with the request queue bounded to `capacity`.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }

    /// Returns the config with per-machine flight recorders armed at
    /// `capacity` events.
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Returns the config with the handshake TTL set to `ttl` request
    /// ids.
    pub fn with_handshake_ttl(mut self, ttl: u64) -> Self {
        self.handshake_ttl = ttl;
        self
    }
}

/// One open session: a dedicated platform running its protocol's
/// enclave, the protocol's per-session state machine, plus the last
/// counter snapshot (so each operation absorbs only its own delta into
/// the fleet metrics).
struct Session {
    platform: Platform,
    enclave: Enclave,
    state: SessionState,
    last: MetricsSnapshot,
}

impl Session {
    /// The counters the session's platform accrued since the previous
    /// call (or since open): the current request's share. The snapshot
    /// becomes the baseline for the next request.
    fn take_delta(&mut self) -> MetricsSnapshot {
        let snap = self.platform.machine.metrics_snapshot();
        let delta = snap.delta_since(&self.last);
        self.last = snap;
        delta
    }
}

/// Lock stripes in the session table. Any two concurrent operations
/// whose session ids land on the same stripe serialize, whatever the
/// shard count: two random ids collide one time in eight.
const SESSION_STRIPES: u64 = 8;

/// The session table, striped so session operations on different
/// sessions do not serialize on a single table lock: stripe `id % 8`
/// owns session `id`, and an operation locks only its own stripe for
/// its full duration (lookup through enclave run through snapshot
/// delta, preserving the per-session serialization the conservation
/// law depends on).
struct SessionTable {
    stripes: Vec<Mutex<HashMap<u64, Session>>>,
}

impl SessionTable {
    fn new() -> Self {
        SessionTable {
            stripes: (0..SESSION_STRIPES)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn stripe(&self, id: u64) -> &Mutex<HashMap<u64, Session>> {
        &self.stripes[(id % SESSION_STRIPES) as usize]
    }

    fn insert(&self, id: u64, s: Session) {
        lock_unpoisoned(self.stripe(id)).insert(id, s);
    }

    fn remove(&self, id: u64) -> Option<Session> {
        lock_unpoisoned(self.stripe(id)).remove(&id)
    }

    /// Runs one protocol step over session `id` with its stripe held;
    /// a [`Verdict::Close`] drops the session before the stripe is
    /// released (fail-closed teardown is atomic with the step). Returns
    /// `None` for an unknown session.
    fn step<R>(&self, id: u64, f: impl FnOnce(&mut Session) -> (R, Verdict)) -> Option<R> {
        let mut g = lock_unpoisoned(self.stripe(id));
        let s = g.get_mut(&id)?;
        let (r, verdict) = f(s);
        if verdict == Verdict::Close {
            g.remove(&id);
        }
        Some(r)
    }

    fn clear(&self) {
        for s in &self.stripes {
            lock_unpoisoned(s).clear();
        }
    }
}

/// State shared between the handle and every request job.
struct Shared {
    platform_cfg: PlatformConfig,
    handshake_ttl: u64,
    trace_capacity: usize,
    shutdown: AtomicBool,
    /// Per-shard latency-record buffers, indexed by the dispatching
    /// shard: a completing request appends only to its own shard's
    /// buffer, so record-keeping never serializes shards on one global
    /// mutex. Flushed and concatenated when the run drains.
    records: Vec<Mutex<Vec<RequestRecord>>>,
    sessions: SessionTable,
    next_session: AtomicU64,
    rejected_full: AtomicU64,
    rejected_shutdown: AtomicU64,
}

/// Typed handle to one accepted request's eventual outcome.
pub struct Ticket {
    handle: JobHandle<Result<Response, ServiceError>>,
}

impl Ticket {
    /// The request's id (its fleet job index).
    pub fn id(&self) -> u64 {
        self.handle.index()
    }

    /// Blocks until the request resolves. Never hangs: the fleet's
    /// completion guard resolves even abandoned jobs, surfacing here as
    /// [`ServiceError::Panic`].
    pub fn wait(self) -> Result<Response, ServiceError> {
        match self.handle.join() {
            Ok(r) => r,
            Err(p) => Err(ServiceError::Panic(p.message)),
        }
    }
}

/// The submission interface the body closure drives.
pub struct ServiceHandle<'a, 'env> {
    fleet: &'a Fleet<'a, 'env>,
    shared: &'env Shared,
}

/// Builds the fleet job for one admitted request: dispatch-time
/// shutdown re-check, handler dispatch, and the latency record appended
/// to the dispatching shard's buffer. `enqueued` is when the request
/// entered the queue — one timestamp shared by the whole batch (the
/// submit pass is one queue entry).
fn request_job<'env>(
    shared: &'env Shared,
    req: Request,
    class: Class,
    enqueued: Instant,
) -> impl FnOnce(&mut ShardCtx<'_>) -> Result<Response, ServiceError> + Send + 'env {
    move |ctx| {
        let dispatched = Instant::now();
        let kind = req.kind_code();
        // Shutdown may have raced admission: a data-plane request
        // already queued when the flag flipped resolves typed
        // instead of running (control-plane teardown still runs —
        // it frees resources).
        let (result, sim) = if class != Class::Control && shared.shutdown.load(Ordering::SeqCst) {
            (Err(ServiceError::Shutdown), MetricsSnapshot::default())
        } else {
            handle_request(req, ctx, shared)
        };
        lock_unpoisoned(&shared.records[ctx.shard()]).push(RequestRecord {
            req: ctx.job_index(),
            kind,
            class,
            ok: result.is_ok(),
            queued_ns: dispatched.duration_since(enqueued).as_nanos() as u64,
            service_ns: dispatched.elapsed().as_nanos() as u64,
            sim,
        });
        result
    }
}

impl ServiceHandle<'_, '_> {
    /// Submits a request: the one-item case of
    /// [`submit_batch`](Self::submit_batch). Returns its [`Ticket`], or
    /// the [`Reject`] if the node refused it at the door (queue full,
    /// or shutting down). A rejected request never entered the queue
    /// and produces no record.
    pub fn submit(&self, req: Request) -> Result<Ticket, Reject> {
        self.submit_batch(vec![req])
            .pop()
            .expect("one result per submitted request")
    }

    /// Submits a batch of requests in one queue pass, amortizing the
    /// per-request submit costs (shutdown check, enqueue timestamp,
    /// result-slot allocation, queue lock, worker wake) over the whole
    /// batch. Admission control still applies *per request*:
    /// each item independently resolves to a [`Ticket`] or a
    /// [`Reject`], in item order — on a bounded queue the earliest
    /// data-plane items take the remaining capacity and the rest are
    /// rejected [`Reject::QueueFull`]; control-plane items are exempt.
    ///
    /// Accepted requests get contiguous, item-ordered ids regardless of
    /// shard count, so a batched load's request→seed mapping is
    /// shard-count independent (the determinism contract).
    pub fn submit_batch(&self, reqs: Vec<Request>) -> Vec<Result<Ticket, Reject>> {
        let shutting_down = self.shared.shutdown.load(Ordering::SeqCst);
        let enqueued = Instant::now();
        let mut out = Vec::with_capacity(reqs.len());
        let mut jobs = Vec::with_capacity(reqs.len());
        let mut slots = Vec::with_capacity(reqs.len());
        for (at, req) in reqs.into_iter().enumerate() {
            let class = req.class();
            out.push(Err(Reject::ShuttingDown));
            if class != Class::Control && shutting_down {
                self.shared
                    .rejected_shutdown
                    .fetch_add(1, Ordering::Relaxed);
                continue;
            }
            jobs.push((class, request_job(self.shared, req, class, enqueued)));
            slots.push(at);
        }
        for (slot, r) in slots.into_iter().zip(self.fleet.try_submit_batch(jobs)) {
            out[slot] = match r {
                Ok(handle) => Ok(Ticket { handle }),
                Err(SubmitError::Full { capacity }) => {
                    self.shared.rejected_full.fetch_add(1, Ordering::Relaxed);
                    Err(Reject::QueueFull { capacity })
                }
                Err(SubmitError::Closed) => {
                    self.shared
                        .rejected_shutdown
                        .fetch_add(1, Ordering::Relaxed);
                    Err(Reject::ShuttingDown)
                }
            };
        }
        out
    }

    /// Begins shutdown: new data-plane submissions are rejected with
    /// [`Reject::ShuttingDown`], and queued data-plane requests resolve
    /// to [`ServiceError::Shutdown`] at dispatch instead of running.
    /// Control-plane teardown still runs. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Requests currently queued (accepted, not yet dispatched). A
    /// point-in-time reading for tests and load-shedding heuristics.
    pub fn pending(&self) -> usize {
        self.fleet.queued()
    }

    /// Requests accepted so far.
    pub fn accepted(&self) -> u64 {
        self.fleet.submitted()
    }
}

/// Everything a service run produces.
#[derive(Debug)]
pub struct ServiceRun<R> {
    /// What the body closure returned.
    pub value: R,
    /// One record per accepted request: each shard's buffer in its own
    /// completion order, concatenated by shard index at drain. Every
    /// aggregate over the records (sums, percentiles, the conservation
    /// law) is order-independent.
    pub records: Vec<RequestRecord>,
    /// Folded per-shard machine counters (the fleet metrics surface).
    pub metrics: FleetMetrics,
    /// Per-shard job/boot accounting.
    pub shards: Vec<ShardStats>,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// Requests refused at the door because the bounded queue was full.
    pub rejected_full: u64,
    /// Requests refused at the door during shutdown.
    pub rejected_shutdown: u64,
}

impl<R> ServiceRun<R> {
    /// Builds the aggregate report (latency percentiles, histogram,
    /// folded counters) from this run.
    pub fn report(&self) -> ServiceReport {
        ServiceReport::from_parts(
            &self.records,
            self.metrics.total(),
            self.rejected_full,
            self.rejected_shutdown,
        )
    }
}

/// The service node entry point; see the module docs.
pub struct Service;

impl Service {
    /// Runs a service node: spawns the fleet, hands the body a
    /// [`ServiceHandle`], and after the body returns drains every
    /// accepted request (graceful end — queued work completes) before
    /// tearing down leftover sessions and returning the accounting.
    pub fn run<R>(
        cfg: ServiceConfig,
        body: impl FnOnce(&ServiceHandle<'_, '_>) -> R,
    ) -> ServiceRun<R> {
        let shards = cfg.shards.max(1);
        let shared = Shared {
            platform_cfg: cfg.platform.clone(),
            handshake_ttl: cfg.handshake_ttl,
            trace_capacity: cfg.trace_capacity,
            shutdown: AtomicBool::new(false),
            records: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            sessions: SessionTable::new(),
            next_session: AtomicU64::new(1),
            rejected_full: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
        };
        let fleet_cfg = {
            let mut f = FleetConfig::default()
                .with_shards(cfg.shards)
                .with_platform(cfg.platform);
            f.queue_capacity = cfg.queue_capacity;
            f
        };
        let run = komodo_fleet::run(fleet_cfg, |fleet| {
            body(&ServiceHandle {
                fleet,
                shared: &shared,
            })
        });
        // Sessions left open by the client are torn down with the node
        // (their platforms are owned here; dropping them frees
        // everything — enclave destruction inside a machine about to be
        // dropped would cost cycles attributed to no request).
        shared.sessions.clear();
        ServiceRun {
            value: run.value,
            records: shared
                .records
                .into_iter()
                .flat_map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
                .collect(),
            metrics: run.metrics,
            shards: run.shards,
            wall: run.wall,
            rejected_full: shared.rejected_full.load(Ordering::Relaxed),
            rejected_shutdown: shared.rejected_shutdown.load(Ordering::Relaxed),
        }
    }
}

/// What a handler returns: the outcome plus the simulated-machine
/// counters the request accrued — exactly what its job folds into the
/// fleet metrics (the conservation law the tests check).
type Handled = (Result<Response, ServiceError>, MetricsSnapshot);

/// A request's trace frame: the one place a handler's platform work is
/// bracketed by the request's dispatch and completion events.
#[derive(Clone, Copy)]
struct Frame {
    req: u32,
    kind: u8,
}

impl Frame {
    /// Records [`Event::ReqDispatch`], runs `work` on `p`, and records
    /// [`Event::ReqComplete`] with whether the work succeeded.
    fn run<T, E>(
        self,
        p: &mut Platform,
        work: impl FnOnce(&mut Platform) -> Result<T, E>,
    ) -> Result<T, E> {
        let Frame { req, kind } = self;
        let c = p.cycles();
        p.machine.trace.record(c, Event::ReqDispatch { req, kind });
        let res = work(p);
        let c = p.cycles();
        p.machine.trace.record(
            c,
            Event::ReqComplete {
                req,
                ok: res.is_ok(),
            },
        );
        res
    }
}

/// Dispatches one request to its handler.
fn handle_request(req: Request, ctx: &mut ShardCtx<'_>, shared: &Shared) -> Handled {
    let frame = Frame {
        req: ctx.job_index() as u32,
        kind: req.kind_code(),
    };
    let (session, step) = match req {
        Request::Attest { report } => {
            return pooled(ctx, shared, frame, |p| {
                run_notary(p, 1, &pad_report(&report))
                    .map(|(counter, mac)| Response::Quote { counter, mac })
            })
        }
        Request::Notarize { doc_kb } => {
            let seed = ctx.seed();
            return pooled(ctx, shared, frame, |p| {
                let kb = doc_kb.max(1);
                let doc: Vec<u32> = (0..kb * 256)
                    .map(|i| (splitmix64(seed.wrapping_add(i as u64)) >> 32) as u32)
                    .collect();
                let doc_pages = (kb * 1024).div_ceil(4096);
                run_notary(p, doc_pages, &doc)
                    .map(|(counter, mac)| Response::Notarized { counter, mac })
            });
        }
        Request::Invoke { code, steps } => return invoke(ctx, shared, frame, &code, steps),
        Request::SessionOpen => {
            return open_session(
                ctx,
                shared,
                frame,
                SecretKeeper::image(),
                |_, _, session| {
                    Ok((
                        SessionState::SecretKeeper(()),
                        Response::SessionOpened { session },
                    ))
                },
            )
        }
        Request::HandshakeBegin {
            nonce,
            verifier_share,
        } => {
            let begun = Attested::open(ctx.job_index());
            return open_session(ctx, shared, frame, Attested::image(), |p, e, session| {
                let quote = Attested::begin(p, e, session, &nonce, verifier_share)?;
                Ok((
                    SessionState::Attested(begun),
                    Response::HandshakeQuote { session, quote },
                ))
            });
        }
        Request::SessionClose { session } => return session_close(ctx, shared, frame, session),
        Request::SessionPut { session, value } => (session, ProtoStep::Kv(KvStep::Put { value })),
        Request::SessionGet { session } => (session, ProtoStep::Kv(KvStep::Get)),
        Request::HandshakeConfirm { session, tag } => {
            (session, ProtoStep::Attested(AttestedStep::Confirm { tag }))
        }
        Request::AttestedSend { session, payload } => {
            (session, ProtoStep::Attested(AttestedStep::Send { payload }))
        }
    };
    session_step(ctx, shared, frame, session, step)
}

/// Runs `f` on the shard's pooled platform inside the request's frame,
/// returning the platform's full counter snapshot (the platform was
/// fresh at job start, so the snapshot is exactly this request's work —
/// matching what the scheduler folds).
fn pooled(
    ctx: &mut ShardCtx<'_>,
    shared: &Shared,
    frame: Frame,
    f: impl FnOnce(&mut Platform) -> Result<Response, ServiceError>,
) -> Handled {
    let p = ctx.platform();
    if shared.trace_capacity > 0 {
        p.set_trace(shared.trace_capacity);
    }
    let res = frame.run(p, f);
    (res, p.machine.metrics_snapshot())
}

/// Zero-pads an 8-word report to one SHA block (16 words).
fn pad_report(report: &[u32; 8]) -> Vec<u32> {
    let mut doc = report.to_vec();
    doc.resize(16, 0);
    doc
}

/// Loads the notary over `doc` and runs one signing pass, returning
/// (counter, MAC). The one-page image every `Attest` loads is assembled
/// once per process; other document sizes assemble their own.
fn run_notary(
    p: &mut Platform,
    doc_pages: usize,
    doc: &[u32],
) -> Result<(u32, [u32; 8]), ServiceError> {
    static ONE_PAGE: OnceLock<Image> = OnceLock::new();
    let sized;
    let img = if doc_pages == 1 {
        ONE_PAGE.get_or_init(|| notary_image(1))
    } else {
        sized = notary_image(doc_pages);
        &sized
    };
    let e = p
        .load(img)
        .map_err(|k| ServiceError::Enclave(format!("notary load: {k:?}")))?;
    // Document segment is index 3, output segment index 4 (see
    // `notary_image`).
    p.write_shared(&e, 3, 0, doc);
    let nblocks = (doc.len() / 16) as u32;
    match p.run(&e, 0, [nblocks, 0, 0]) {
        EnclaveRun::Exited(counter) => {
            let mac_words = p.read_shared(&e, 4, 0, 8);
            let mut mac = [0u32; 8];
            mac.copy_from_slice(&mac_words);
            Ok((counter, mac))
        }
        r => Err(ServiceError::Enclave(format!("notary did not exit: {r:?}"))),
    }
}

/// Bulk invoke on a bare sandbox machine (same shape as the fleet
/// bench's jobs); the machine's counters are absorbed into the shard
/// fold and returned as the request's snapshot.
fn invoke(
    ctx: &mut ShardCtx<'_>,
    shared: &Shared,
    frame: Frame,
    code: &[Word],
    steps: u64,
) -> Handled {
    let Frame { req, kind } = frame;
    let mut m = user::sandbox(code);
    if shared.trace_capacity > 0 {
        m.set_trace_capacity(shared.trace_capacity);
    }
    m.trace.record(m.cycles, Event::ReqDispatch { req, kind });
    let exit = m.run_user(steps);
    let ok = matches!(exit, Ok(ExitReason::StepLimit));
    m.trace.record(m.cycles, Event::ReqComplete { req, ok });
    let sim = m.metrics_snapshot();
    ctx.absorb(&sim);
    let res = if ok {
        Ok(Response::Invoked { steps })
    } else {
        Err(ServiceError::Enclave(format!(
            "invoke did not run to budget: {exit:?}"
        )))
    };
    (res, sim)
}

/// Opens a session of any protocol: boots a dedicated platform (seed
/// derived from this request's id, so batched opens are
/// shard-count-invariant), allocates the session id, then loads `image`
/// and runs the protocol's `start` step inside the request's frame.
/// `start` gets the session id and returns the session's initial state
/// and the open reply. Boot, load and start cycles are the open
/// request's; a session whose load or start fails never enters the
/// table.
fn open_session(
    ctx: &mut ShardCtx<'_>,
    shared: &Shared,
    frame: Frame,
    image: &Image,
    start: impl FnOnce(&mut Platform, &Enclave, u64) -> Result<(SessionState, Response), ServiceError>,
) -> Handled {
    let seed = protocol::session_seed(&shared.platform_cfg, ctx.job_index());
    let mut platform = Platform::with_config(shared.platform_cfg.clone().with_seed(seed));
    if shared.trace_capacity > 0 {
        platform.set_trace(shared.trace_capacity);
    }
    // Allocated before the enclave runs, so the start step's trace
    // events carry it.
    let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
    let opened = frame.run(&mut platform, |p| {
        let enclave = p
            .load(image)
            .map_err(|k| ServiceError::Enclave(format!("session load: {k:?}")))?;
        let (state, reply) = start(p, &enclave, id)?;
        Ok((enclave, state, reply))
    });
    let sim = platform.machine.metrics_snapshot();
    ctx.absorb(&sim);
    let res = opened.map(|(enclave, state, reply)| {
        shared.sessions.insert(
            id,
            Session {
                platform,
                enclave,
                state,
                last: sim,
            },
        );
        reply
    });
    (res, sim)
}

/// Runs one typed protocol step on an open session, absorbing only the
/// delta since the session's last snapshot (the session machine is
/// long-lived — its lifetime counters span many requests). Operations
/// on the same session serialize on its stripe lock; operations on
/// sessions in other stripes — and the data plane — run concurrently.
/// A terminal step ([`Verdict::Close`]) tears the session down under
/// the same stripe hold.
fn session_step(
    ctx: &mut ShardCtx<'_>,
    shared: &Shared,
    frame: Frame,
    session: u64,
    step: ProtoStep,
) -> Handled {
    let step_ctx = StepCtx {
        session,
        now_req: ctx.job_index(),
        handshake_ttl: shared.handshake_ttl,
    };
    let out = shared.sessions.step(session, |s| {
        let mut verdict = Verdict::Keep;
        let res = frame.run(&mut s.platform, |p| {
            let (res, v) = protocol::dispatch(&mut s.state, p, &s.enclave, step, &step_ctx);
            verdict = v;
            res
        });
        ((res, s.take_delta()), verdict)
    });
    let (res, delta) = out.unwrap_or_else(|| {
        (
            Err(ServiceError::NoSuchSession(session)),
            MetricsSnapshot::default(),
        )
    });
    ctx.absorb(&delta);
    (res, delta)
}

/// Tears a session down: removes it from the table, then destroys its
/// enclave inside the request's frame.
fn session_close(ctx: &mut ShardCtx<'_>, shared: &Shared, frame: Frame, session: u64) -> Handled {
    let Some(mut s) = shared.sessions.remove(session) else {
        return (
            Err(ServiceError::NoSuchSession(session)),
            MetricsSnapshot::default(),
        );
    };
    let destroyed = frame.run(&mut s.platform, |p| p.destroy(&s.enclave));
    let delta = s.take_delta();
    ctx.absorb(&delta);
    let res = destroyed
        .map(|()| Response::SessionClosed)
        .map_err(|k| ServiceError::Enclave(format!("session destroy: {k:?}")));
    (res, delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ids congruent mod 8 share a stripe; all others must be lockable
    /// while a stripe is held — the property that lets session
    /// operations on different sessions proceed concurrently.
    #[test]
    fn session_stripes_lock_independently() {
        let t = SessionTable::new();
        let held = t.stripe(3).try_lock().expect("stripe starts free");
        assert!(
            t.stripe(3 + SESSION_STRIPES).try_lock().is_err(),
            "ids congruent mod {SESSION_STRIPES} must share a stripe"
        );
        for id in 0..SESSION_STRIPES {
            if id % SESSION_STRIPES == 3 {
                continue;
            }
            assert!(
                t.stripe(id).try_lock().is_ok(),
                "stripe of id {id} must be independent of the held stripe"
            );
        }
        drop(held);
        assert!(t.stripe(3).try_lock().is_ok(), "drop releases the stripe");
    }

    /// The frame brackets the work: `ReqDispatch` before anything the
    /// work records, `ReqComplete` after it, carrying the outcome.
    #[test]
    fn frame_brackets_the_work_with_the_request_events() {
        let mut p = Platform::with_config(ServiceConfig::default().platform);
        p.set_trace(16);
        let frame = Frame { req: 7, kind: 3 };
        let inner = Event::HsPhase {
            phase: 0,
            session: 1,
        };
        let work = |ok: bool| {
            move |p: &mut Platform| {
                let c = p.cycles();
                p.machine.trace.record(c, inner);
                if ok {
                    Ok(())
                } else {
                    Err(())
                }
            }
        };
        assert_eq!(frame.run(&mut p, work(true)), Ok(()));
        assert_eq!(frame.run(&mut p, work(false)), Err(()));
        let events: Vec<Event> = p.machine.trace.iter().map(|s| s.event).collect();
        let dispatch = Event::ReqDispatch { req: 7, kind: 3 };
        let complete = |ok| Event::ReqComplete { req: 7, ok };
        assert_eq!(
            events,
            [
                dispatch,
                inner,
                complete(true),
                dispatch,
                inner,
                complete(false)
            ]
        );
    }

    /// A step on an unknown id sees `None`; `clear` empties every
    /// stripe without deadlocking on any of them.
    #[test]
    fn session_table_lookup_and_clear() {
        let t = SessionTable::new();
        let unknown = |t: &SessionTable| t.step(17, |_| ((), Verdict::Keep)).is_none();
        assert!(unknown(&t));
        assert!(t.remove(17).is_none());
        t.clear();
        assert!(unknown(&t));
    }
}
