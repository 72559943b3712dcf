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
//! - **Backpressure and shutdown semantics**: a bounded queue rejects
//!   data-plane requests with [`Reject::QueueFull`] at the door;
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
//!   conservation law. When tracing is armed, request dispatch and
//!   completion are also stamped into the machine's flight recorder as
//!   cycle-stamped [`Event::ReqDispatch`]/[`Event::ReqComplete`] spans.
//!
//! Sessions are the one stateful surface: each open session owns a
//! dedicated [`Platform`] running the secret-keeper enclave, kept in a
//! striped table shared across shards — stripe `id % 8` owns session
//! `id`, so operations on different sessions only serialize when they
//! collide on a stripe (the data plane never touches the table).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use komodo::{Enclave, Platform, PlatformConfig};
use komodo_armv7::{ExitReason, Word};
use komodo_fleet::{Class, Fleet, FleetConfig, JobHandle, ShardCtx, ShardStats, SubmitError};
use komodo_guest::notary::notary_image;
use komodo_guest::user;
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

/// Lock stripes in the session table. Eight matches the default bench
/// shard counts; contention only returns when more than eight shards
/// operate on stripe-colliding session ids simultaneously.
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

    /// Runs `f` over session `id` (or `None` if unknown) with its
    /// stripe held.
    #[cfg(test)]
    fn with<R>(&self, id: u64, f: impl FnOnce(Option<&mut Session>) -> R) -> R {
        let mut g = lock_unpoisoned(self.stripe(id));
        f(g.get_mut(&id))
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
    trace_capacity: usize,
}

/// Builds the fleet job for one admitted request: dispatch-time
/// shutdown re-check, handler dispatch, and the latency record appended
/// to the dispatching shard's buffer. `enqueued` is when the request
/// entered the queue — for batches, one timestamp is shared by the
/// whole batch (the submit pass is one queue entry).
fn request_job<'env>(
    shared: &'env Shared,
    trace_capacity: usize,
    req: Request,
    class: Class,
    kind: u8,
    enqueued: Instant,
) -> impl FnOnce(&mut ShardCtx<'_>) -> Result<Response, ServiceError> + Send + 'env {
    move |ctx| {
        let dispatched = Instant::now();
        // Shutdown may have raced admission: a data-plane request
        // already queued when the flag flipped resolves typed
        // instead of running (control-plane teardown still runs —
        // it frees resources).
        let (result, sim) = if class != Class::Control && shared.shutdown.load(Ordering::SeqCst) {
            (Err(ServiceError::Shutdown), MetricsSnapshot::default())
        } else {
            handle_request(req, ctx, shared, trace_capacity)
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
    /// Maps a fleet-level refusal to the service's typed rejection,
    /// bumping the matching door counter.
    fn count_reject(&self, e: SubmitError) -> Reject {
        match e {
            SubmitError::Full { capacity } => {
                self.shared.rejected_full.fetch_add(1, Ordering::Relaxed);
                Reject::QueueFull { capacity }
            }
            SubmitError::Closed => {
                self.shared
                    .rejected_shutdown
                    .fetch_add(1, Ordering::Relaxed);
                Reject::ShuttingDown
            }
        }
    }

    /// Submits a request; returns its [`Ticket`], or the [`Reject`] if
    /// the node refused it at the door (queue full, or shutting down).
    /// A rejected request never entered the queue and produces no
    /// record.
    pub fn submit(&self, req: Request) -> Result<Ticket, Reject> {
        let class = req.class();
        if class != Class::Control && self.shared.shutdown.load(Ordering::SeqCst) {
            self.shared
                .rejected_shutdown
                .fetch_add(1, Ordering::Relaxed);
            return Err(Reject::ShuttingDown);
        }
        let kind = req.kind_code();
        let job = request_job(
            self.shared,
            self.trace_capacity,
            req,
            class,
            kind,
            Instant::now(),
        );
        match self.fleet.try_submit(class, job) {
            Ok(handle) => Ok(Ticket { handle }),
            Err(e) => Err(self.count_reject(e)),
        }
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
        let mut out: Vec<Option<Result<Ticket, Reject>>> = Vec::with_capacity(reqs.len());
        let mut jobs = Vec::with_capacity(reqs.len());
        let mut slots = Vec::with_capacity(reqs.len());
        for (at, req) in reqs.into_iter().enumerate() {
            let class = req.class();
            if class != Class::Control && shutting_down {
                self.shared
                    .rejected_shutdown
                    .fetch_add(1, Ordering::Relaxed);
                out.push(Some(Err(Reject::ShuttingDown)));
                continue;
            }
            let kind = req.kind_code();
            jobs.push((
                class,
                request_job(self.shared, self.trace_capacity, req, class, kind, enqueued),
            ));
            slots.push(at);
            out.push(None);
        }
        for (slot, r) in slots.into_iter().zip(self.fleet.try_submit_batch(jobs)) {
            out[slot] = Some(match r {
                Ok(handle) => Ok(Ticket { handle }),
                Err(e) => Err(self.count_reject(e)),
            });
        }
        out.into_iter()
            .map(|o| o.expect("every batch slot resolves"))
            .collect()
    }

    /// Begins shutdown: new data-plane submissions are rejected with
    /// [`Reject::ShuttingDown`], and queued data-plane requests resolve
    /// to [`ServiceError::Shutdown`] at dispatch instead of running.
    /// Control-plane teardown still runs. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
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
            shutdown: AtomicBool::new(false),
            records: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            sessions: SessionTable::new(),
            next_session: AtomicU64::new(1),
            rejected_full: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
        };
        let trace_capacity = cfg.trace_capacity;
        let fleet_cfg = {
            let mut f = FleetConfig::default()
                .with_shards(cfg.shards)
                .with_platform(cfg.platform);
            f.queue_capacity = cfg.queue_capacity;
            f
        };
        let run = komodo_fleet::run(fleet_cfg, |fleet| {
            let handle = ServiceHandle {
                fleet,
                shared: &shared,
                trace_capacity,
            };
            body(&handle)
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

/// Dispatches one request to its handler. Returns the outcome plus the
/// simulated-machine counters the request accrued — exactly what the
/// job folds into the fleet metrics (the conservation law the tests
/// check).
fn handle_request(
    req: Request,
    ctx: &mut ShardCtx<'_>,
    shared: &Shared,
    trace_capacity: usize,
) -> (Result<Response, ServiceError>, MetricsSnapshot) {
    let req_id = ctx.job_index() as u32;
    let kind = req.kind_code();
    match req {
        Request::Attest { report } => pooled(ctx, trace_capacity, req_id, kind, |p| {
            run_notary(p, 1, &pad_report(&report))
                .map(|(counter, mac)| Response::Quote { counter, mac })
        }),
        Request::Notarize { doc_kb } => {
            let seed = ctx.seed();
            pooled(ctx, trace_capacity, req_id, kind, |p| {
                let kb = doc_kb.max(1);
                let doc: Vec<u32> = (0..kb * 256)
                    .map(|i| (splitmix64(seed.wrapping_add(i as u64)) >> 32) as u32)
                    .collect();
                let doc_pages = (kb * 1024).div_ceil(4096);
                run_notary(p, doc_pages, &doc)
                    .map(|(counter, mac)| Response::Notarized { counter, mac })
            })
        }
        Request::Invoke { code, steps } => invoke(ctx, trace_capacity, req_id, kind, &code, steps),
        Request::SessionOpen => session_open(ctx, shared, trace_capacity, req_id, kind),
        Request::SessionPut { session, value } => session_step(
            shared,
            session,
            req_id,
            kind,
            ctx,
            ProtoStep::Kv(KvStep::Put { value }),
        ),
        Request::SessionGet { session } => session_step(
            shared,
            session,
            req_id,
            kind,
            ctx,
            ProtoStep::Kv(KvStep::Get),
        ),
        Request::SessionClose { session } => session_close(shared, session, req_id, kind, ctx),
        Request::HandshakeBegin {
            nonce,
            verifier_share,
        } => handshake_begin(
            ctx,
            shared,
            trace_capacity,
            req_id,
            kind,
            nonce,
            verifier_share,
        ),
        Request::HandshakeConfirm { session, tag } => session_step(
            shared,
            session,
            req_id,
            kind,
            ctx,
            ProtoStep::Attested(AttestedStep::Confirm { tag }),
        ),
        Request::AttestedSend { session, payload } => session_step(
            shared,
            session,
            req_id,
            kind,
            ctx,
            ProtoStep::Attested(AttestedStep::Send { payload }),
        ),
    }
}

/// Runs `f` on the shard's pooled platform with request-span trace
/// events around it, returning the platform's full counter snapshot
/// (the platform was fresh at job start, so the snapshot is exactly
/// this request's work — matching what the scheduler folds).
fn pooled(
    ctx: &mut ShardCtx<'_>,
    trace_capacity: usize,
    req: u32,
    kind: u8,
    f: impl FnOnce(&mut Platform) -> Result<Response, ServiceError>,
) -> (Result<Response, ServiceError>, MetricsSnapshot) {
    let p = ctx.platform();
    if trace_capacity > 0 {
        p.set_trace(trace_capacity);
    }
    let c = p.cycles();
    p.machine.trace.record(c, Event::ReqDispatch { req, kind });
    let res = f(p);
    let c = p.cycles();
    p.machine.trace.record(
        c,
        Event::ReqComplete {
            req,
            ok: res.is_ok(),
        },
    );
    let sim = p.machine.metrics_snapshot();
    (res, sim)
}

/// Zero-pads an 8-word report to one SHA block (16 words).
fn pad_report(report: &[u32; 8]) -> Vec<u32> {
    let mut doc = report.to_vec();
    doc.resize(16, 0);
    doc
}

/// Loads the notary over `doc` and runs one signing pass, returning
/// (counter, MAC).
fn run_notary(
    p: &mut Platform,
    doc_pages: usize,
    doc: &[u32],
) -> Result<(u32, [u32; 8]), ServiceError> {
    let img = notary_image(doc_pages);
    let e = p
        .load(&img)
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
    trace_capacity: usize,
    req: u32,
    kind: u8,
    code: &[Word],
    steps: u64,
) -> (Result<Response, ServiceError>, MetricsSnapshot) {
    let mut m = user::sandbox(code);
    if trace_capacity > 0 {
        m.set_trace_capacity(trace_capacity);
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

fn session_open(
    ctx: &mut ShardCtx<'_>,
    shared: &Shared,
    trace_capacity: usize,
    req: u32,
    kind: u8,
) -> (Result<Response, ServiceError>, MetricsSnapshot) {
    let open_req = ctx.job_index();
    let seed = protocol::session_seed(&shared.platform_cfg, open_req);
    let cfg = shared.platform_cfg.clone().with_seed(seed);
    let mut platform = Platform::with_config(cfg);
    if trace_capacity > 0 {
        platform.set_trace(trace_capacity);
    }
    let c = platform.cycles();
    platform
        .machine
        .trace
        .record(c, Event::ReqDispatch { req, kind });
    let loaded = platform.load(&SecretKeeper::image());
    let c = platform.cycles();
    platform.machine.trace.record(
        c,
        Event::ReqComplete {
            req,
            ok: loaded.is_ok(),
        },
    );
    // Boot and load cycles are attributed to the open request.
    let sim = platform.machine.metrics_snapshot();
    ctx.absorb(&sim);
    match loaded {
        Ok(enclave) => {
            let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
            // SecretKeeper's open is stateless (State = ()); the call
            // stays so the Protocol contract is exercised uniformly.
            SecretKeeper::open(open_req);
            shared.sessions.insert(
                id,
                Session {
                    platform,
                    enclave,
                    state: SessionState::SecretKeeper(()),
                    last: sim,
                },
            );
            (Ok(Response::SessionOpened { session: id }), sim)
        }
        Err(k) => (
            Err(ServiceError::Enclave(format!("session load: {k:?}"))),
            sim,
        ),
    }
}

/// Opens an attested session: a dedicated platform (seed derived from
/// this request's id, so batched handshakes are shard-count-invariant),
/// the RA enclave, and the in-enclave handshake — keypair, DH, key
/// derivation, quote. The session enters the table awaiting the
/// verifier's confirmation; a failed handshake never enters the table
/// at all.
fn handshake_begin(
    ctx: &mut ShardCtx<'_>,
    shared: &Shared,
    trace_capacity: usize,
    req: u32,
    kind: u8,
    nonce: [u32; 4],
    verifier_share: u64,
) -> (Result<Response, ServiceError>, MetricsSnapshot) {
    let open_req = ctx.job_index();
    let seed = protocol::session_seed(&shared.platform_cfg, open_req);
    let cfg = shared.platform_cfg.clone().with_seed(seed);
    let mut platform = Platform::with_config(cfg);
    if trace_capacity > 0 {
        platform.set_trace(trace_capacity);
    }
    let c = platform.cycles();
    platform
        .machine
        .trace
        .record(c, Event::ReqDispatch { req, kind });
    // The session id is allocated before the quote runs so the
    // handshake-phase trace events carry it.
    let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
    let quoted = match platform.load(&Attested::image()) {
        Ok(enclave) => Attested::begin(&mut platform, &enclave, id, &nonce, verifier_share)
            .map(|q| (enclave, q)),
        Err(k) => Err(ServiceError::Enclave(format!("ra load: {k:?}"))),
    };
    let c = platform.cycles();
    platform.machine.trace.record(
        c,
        Event::ReqComplete {
            req,
            ok: quoted.is_ok(),
        },
    );
    // Boot, load and handshake cycles are attributed to the begin
    // request.
    let sim = platform.machine.metrics_snapshot();
    ctx.absorb(&sim);
    match quoted {
        Ok((enclave, quote)) => {
            shared.sessions.insert(
                id,
                Session {
                    platform,
                    enclave,
                    state: SessionState::Attested(Attested::open(open_req)),
                    last: sim,
                },
            );
            (Ok(Response::HandshakeQuote { session: id, quote }), sim)
        }
        Err(e) => (Err(e), sim),
    }
}

/// Runs one typed protocol step on an open session, absorbing only the
/// delta since the session's last snapshot (the session machine is
/// long-lived — its lifetime counters span many requests). Operations
/// on the same session serialize on its stripe lock; operations on
/// sessions in other stripes — and the data plane — run concurrently.
/// A terminal step ([`Verdict::Close`]) tears the session down under
/// the same stripe hold.
fn session_step(
    shared: &Shared,
    session: u64,
    req: u32,
    kind: u8,
    ctx: &mut ShardCtx<'_>,
    step: ProtoStep,
) -> (Result<Response, ServiceError>, MetricsSnapshot) {
    let step_ctx = StepCtx {
        session,
        now_req: ctx.job_index(),
        handshake_ttl: shared.handshake_ttl,
    };
    let out = shared.sessions.step(session, |s| {
        let c = s.platform.cycles();
        s.platform
            .machine
            .trace
            .record(c, Event::ReqDispatch { req, kind });
        let (res, verdict) =
            protocol::dispatch(&mut s.state, &mut s.platform, &s.enclave, step, &step_ctx);
        let c = s.platform.cycles();
        s.platform.machine.trace.record(
            c,
            Event::ReqComplete {
                req,
                ok: res.is_ok(),
            },
        );
        let snap = s.platform.machine.metrics_snapshot();
        let delta = snap.delta_since(&s.last);
        s.last = snap;
        ((res, delta), verdict)
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

fn session_close(
    shared: &Shared,
    session: u64,
    req: u32,
    kind: u8,
    ctx: &mut ShardCtx<'_>,
) -> (Result<Response, ServiceError>, MetricsSnapshot) {
    let Some(mut s) = shared.sessions.remove(session) else {
        return (
            Err(ServiceError::NoSuchSession(session)),
            MetricsSnapshot::default(),
        );
    };
    let c = s.platform.cycles();
    s.platform
        .machine
        .trace
        .record(c, Event::ReqDispatch { req, kind });
    let destroyed = s.platform.destroy(&s.enclave);
    let c = s.platform.cycles();
    s.platform.machine.trace.record(
        c,
        Event::ReqComplete {
            req,
            ok: destroyed.is_ok(),
        },
    );
    let snap = s.platform.machine.metrics_snapshot();
    let delta = snap.delta_since(&s.last);
    ctx.absorb(&delta);
    let res = match destroyed {
        Ok(()) => Ok(Response::SessionClosed),
        Err(k) => Err(ServiceError::Enclave(format!("session destroy: {k:?}"))),
    };
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

    /// `with` on an unknown id sees `None`; `clear` empties every
    /// stripe without deadlocking on any of them.
    #[test]
    fn session_table_lookup_and_clear() {
        let t = SessionTable::new();
        assert!(t.with(17, |s| s.is_none()));
        assert!(t.remove(17).is_none());
        t.clear();
        assert!(t.with(17, |s| s.is_none()));
    }
}
