//! The layer replay.
//!
//! The traced window's op inputs are driven again, after the node has
//! stopped, through the lower crates' public functions: each
//! call below the service (platform boot, reset and drop; monitor load
//! and destroy; guest handshake, send and notary runs) gets its own
//! span and its simulated-cycle delta. The replay also checks that it
//! reproduces the node's outputs and the simulated cycles the node
//! recorded for each request; a difference counts as a mismatch, which
//! says the replay no longer mirrors the handler and its shares cannot
//! be trusted.

use std::collections::{BTreeMap, HashMap};

use komodo::{Enclave, EnclaveRun, Platform, PlatformConfig};
use komodo_guest::notary::notary_image;
use komodo_guest::ra::ra_image;
use komodo_service::protocol::{
    dispatch, Attested, AttestedState, AttestedStep, ProtoStep, Protocol, SessionState, StepCtx,
};
use komodo_service::{RequestRecord, Response, ServiceConfig};

use crate::generator::{Done, Resident};
use crate::spans::{SpanId, Spans};
use crate::SHARDS;

/// What the replay measured besides its spans.
#[derive(Debug, Default)]
pub struct Replay {
    /// Simulated cycles spent inside each layer span, by span name.
    pub cycles: BTreeMap<&'static str, u64>,
    /// Replayed outputs or per-request cycle counts that differ from
    /// the node's.
    pub mismatches: u64,
}

struct Ctx<'s> {
    base: PlatformConfig,
    ttl: u64,
    records: &'s HashMap<u64, &'s RequestRecord>,
    spans: &'s mut Spans,
    out: Replay,
}

impl Ctx<'_> {
    /// Runs one layer call on `p` inside a span named `name`, adding its
    /// simulated-cycle delta to the layer's total.
    fn layer<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        p: &mut Platform,
        f: impl FnOnce(&mut Platform) -> R,
    ) -> R {
        let c0 = p.cycles();
        let r = self.spans.time(name, op, parent, || f(p));
        *self.out.cycles.entry(name).or_default() += p.cycles().saturating_sub(c0);
        r
    }

    fn check(&mut self, ok: bool) {
        if !ok {
            self.out.mismatches += 1;
        }
    }

    /// Whether `cycles` equals what the node recorded for request `req`.
    fn same_cycles(&self, req: u64, cycles: u64) -> bool {
        self.records
            .get(&req)
            .is_some_and(|r| r.sim.cycles == cycles)
    }

    /// Boots the session's platform, loads the RA enclave, runs the
    /// in-enclave handshake and delivers the confirmation, as
    /// `HandshakeBegin` and `HandshakeConfirm` did on the node.
    fn open(&mut self, op: u64, parent: SpanId, r: &Resident) -> Option<(Platform, Enclave)> {
        let cfg = self
            .base
            .clone()
            .with_seed(self.base.derive_seed(r.begin_req));
        let mut p = self
            .spans
            .time("komodo.boot", op, parent, || Platform::with_config(cfg));
        let Ok(e) = self.layer("monitor.load.ra", op, parent, &mut p, |p| {
            p.load(&ra_image())
        }) else {
            self.check(false);
            return None;
        };
        let quote = self.layer("guest.ra_begin", op, parent, &mut p, |p| {
            Attested::begin(p, &e, r.session, &r.vs.nonce, r.vs.share)
        });
        self.check(quote.as_ref().ok() == Some(&r.quote));
        let begin_cycles = p.machine.metrics_snapshot().cycles;
        self.check(self.same_cycles(r.begin_req, begin_cycles));
        let mut state = SessionState::Attested(Attested::open(r.begin_req));
        let ctx = StepCtx {
            session: r.session,
            now_req: r.confirm_req,
            handshake_ttl: self.ttl,
        };
        let c0 = p.cycles();
        let (reply, _) = self.layer("guest.confirm", op, parent, &mut p, |p| {
            let step = ProtoStep::Attested(AttestedStep::Confirm { tag: r.confirm });
            dispatch(&mut state, p, &e, step, &ctx)
        });
        self.check(reply == Ok(Response::SessionEstablished));
        let ok = self.same_cycles(r.confirm_req, p.cycles() - c0);
        self.check(ok);
        Some((p, e))
    }

    /// One `AttestedSend` step at sequence number `seq`.
    #[allow(clippy::too_many_arguments)]
    fn send(
        &mut self,
        op: u64,
        parent: SpanId,
        p: &mut Platform,
        e: &Enclave,
        r: &Resident,
        seq: u32,
        payload: [u32; 8],
        req: u64,
        tag: [u32; 8],
    ) {
        let mut state = SessionState::Attested(AttestedState::Established { next_seq: seq });
        let ctx = StepCtx {
            session: r.session,
            now_req: req,
            handshake_ttl: self.ttl,
        };
        let c0 = p.cycles();
        let (reply, _) = self.layer("guest.send", op, parent, p, |p| {
            let step = ProtoStep::Attested(AttestedStep::Send { payload });
            dispatch(&mut state, p, e, step, &ctx)
        });
        self.check(reply == Ok(Response::AttestedTag { seq, tag }));
        let ok = self.same_cycles(req, p.cycles() - c0);
        self.check(ok);
    }

    /// Destroys the enclave and drops the platform, as `SessionClose`
    /// did; `close_req` is the node's close request, if there was one.
    fn close(
        &mut self,
        op: u64,
        parent: SpanId,
        mut p: Platform,
        e: Enclave,
        close_req: Option<u64>,
    ) {
        let c0 = p.cycles();
        let destroyed = self.layer("monitor.destroy", op, parent, &mut p, |p| p.destroy(&e));
        self.check(destroyed.is_ok());
        if let Some(req) = close_req {
            let ok = self.same_cycles(req, p.cycles() - c0);
            self.check(ok);
        }
        self.spans.time("komodo.drop", op, parent, || drop(p));
    }
}

/// One unit of replay work: a churned lifecycle or an attestation, or a
/// resident session rebuilt with every send the traced window made to it.
enum Work<'d> {
    Op(&'d Done),
    Resident(usize, Vec<&'d Done>),
}

/// At most `limit` units of work from `done`, in order of first use.
fn plan(done: &[Done], limit: usize) -> Vec<Work<'_>> {
    let mut work = Vec::new();
    let mut at: HashMap<usize, usize> = HashMap::new();
    for d in done {
        match d {
            Done::Send { resident, .. } => {
                let i = match at.get(resident) {
                    Some(&i) => i,
                    None if work.len() < limit => {
                        work.push(Work::Resident(*resident, Vec::new()));
                        at.insert(*resident, work.len() - 1);
                        work.len() - 1
                    }
                    None => continue,
                };
                if let Work::Resident(_, sends) = &mut work[i] {
                    sends.push(d);
                }
            }
            _ if work.len() < limit => work.push(Work::Op(d)),
            _ => {}
        }
    }
    work
}

impl Ctx<'_> {
    /// Replays one unit of work as op `op`. `pooled` is this thread's
    /// pool platform, as each shard keeps one.
    fn run(&mut self, op: u64, w: &Work, residents: &[Resident], pooled: &mut Option<Platform>) {
        let span = self.spans.open("replay.op", op, None);
        match w {
            Work::Op(Done::Lifecycle {
                resident,
                payload,
                send_req,
                close_req,
                tag,
            }) => {
                if let Some((mut p, e)) = self.open(op, span, resident) {
                    self.send(op, span, &mut p, &e, resident, 0, *payload, *send_req, *tag);
                    self.close(op, span, p, e, Some(*close_req));
                }
            }
            Work::Op(Done::Attest { report, req, mac }) => {
                // Booted once outside the spans, then reset per request
                // as the fleet does.
                let p = pooled.get_or_insert_with(|| Platform::with_config(self.base.clone()));
                let seed = self.base.derive_seed(*req);
                self.layer("komodo.reset", op, span, p, |p| p.reset_with_seed(seed));
                let loaded = self.layer("monitor.load.notary", op, span, p, |p| {
                    p.load(&notary_image(1))
                });
                let Ok(e) = loaded else {
                    self.check(false);
                    self.spans.close(span);
                    return;
                };
                let mut doc = report.to_vec();
                doc.resize(16, 0);
                let out = self.layer("guest.notary", op, span, p, |p| {
                    p.write_shared(&e, 3, 0, &doc);
                    match p.run(&e, 0, [1, 0, 0]) {
                        EnclaveRun::Exited(counter) => Some((counter, p.read_shared(&e, 4, 0, 8))),
                        _ => None,
                    }
                });
                self.check(out == Some((1, mac.to_vec())));
                let ok = self.same_cycles(*req, p.machine.metrics_snapshot().cycles);
                self.check(ok);
            }
            Work::Resident(ri, sends) => {
                let r = &residents[*ri];
                if let Some((mut p, e)) = self.open(op, span, r) {
                    for d in sends {
                        if let Done::Send {
                            seq,
                            payload,
                            req,
                            tag,
                            ..
                        } = d
                        {
                            self.send(op, span, &mut p, &e, r, *seq, *payload, *req, *tag);
                        }
                    }
                    self.close(op, span, p, e, None);
                }
            }
            Work::Op(Done::Send { .. }) => {}
        }
        self.spans.close(span);
    }
}

/// Replays `done` (the traced window's ops): at most `limit` churned
/// lifecycles or attestations, or every send of the first `limit`
/// resident sessions the window touched. The work is shared out over as
/// many threads as the node has shards, so the layer calls run under the
/// same CPU contention as the node's handlers did. Spans go to `spans`,
/// whose recording must be on.
pub fn replay(
    cfg: &ServiceConfig,
    records: &[RequestRecord],
    residents: &[Resident],
    done: &[Done],
    limit: usize,
    spans: &mut Spans,
) -> Replay {
    let work = plan(done, limit);
    let records: HashMap<u64, &RequestRecord> = records.iter().map(|r| (r.req, r)).collect();
    let mut out = Replay::default();
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..SHARDS)
            .map(|k| {
                let (work, records, mut own) = (&work, &records, spans.fork());
                s.spawn(move || {
                    let mut cx = Ctx {
                        base: cfg.platform.clone(),
                        ttl: cfg.handshake_ttl,
                        records,
                        spans: &mut own,
                        out: Replay::default(),
                    };
                    let mut pooled = None;
                    for (i, w) in work.iter().enumerate().skip(k).step_by(SHARDS) {
                        cx.run(i as u64, w, residents, &mut pooled);
                    }
                    (cx.out, own)
                })
            })
            .collect();
        for t in threads {
            let (r, own) = t.join().expect("replay threads do not panic");
            spans.join(own);
            out.mismatches += r.mismatches;
            for (name, c) in r.cycles {
                *out.cycles.entry(name).or_default() += c;
            }
        }
    });
    out
}
