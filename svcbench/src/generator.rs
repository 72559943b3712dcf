//! The closed-loop generator.
//!
//! One thread keeps exactly [`DEPTH`] ops in flight. It always waits on
//! the oldest outstanding ticket, checks the reply, and submits the
//! op's next request (or starts the next op) at the back of the line.
//! Because a single thread submits in an order that depends only on
//! replies, never on timing, the node assigns the same request ids on
//! every run with the same seed, so platform seeds and every simulated
//! counter repeat exactly.

use std::collections::VecDeque;
use std::time::Instant;

use komodo_crypto::{Digest, VerifierSession};
use komodo_service::{QuoteWords, Request, Response, ServiceError, ServiceHandle, Ticket};

use crate::client::{check_tag, fold, Client, Inputs};
use crate::spans::{SpanId, Spans};

/// Ops in flight: one per worker thread of the two-core hosts the
/// benchmark was built on.
pub const DEPTH: usize = 2;

/// Verified ops per block of a phase: each block has ten latency
/// samples beyond its p99.
pub const BLOCK_OPS: usize = 1000;

/// Which op a phase drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// `HandshakeBegin` → quote check → `HandshakeConfirm` →
    /// `AttestedSend` → `SessionClose`.
    Lifecycle,
    /// `HandshakeBegin` → quote check → `HandshakeConfirm`; the session
    /// stays open as a resident.
    Open,
    /// `Attest` → MAC check.
    Attest,
    /// `AttestedSend` to a resident session → tag check.
    Send,
}

/// An attested session the client holds open, with what a replay needs
/// to rebuild it.
#[derive(Clone, Debug)]
pub struct Resident {
    /// The node's session id.
    pub session: u64,
    /// The client's session key.
    pub key: Digest,
    /// Sequence number the next send must carry.
    pub next_seq: u32,
    /// Id of the `HandshakeBegin` request (the platform seed's stream).
    pub begin_req: u64,
    /// Id of the `HandshakeConfirm` request.
    pub confirm_req: u64,
    /// The verifier's challenge.
    pub vs: VerifierSession,
    /// The quote the node returned.
    pub quote: QuoteWords,
    /// The confirmation tag the client sent.
    pub confirm: [u32; 8],
}

/// One completed op as the traced run logs it for the replay.
#[derive(Clone, Debug)]
pub enum Done {
    /// A churned session lifecycle.
    Lifecycle {
        /// The session as opened.
        resident: Box<Resident>,
        /// The message payload.
        payload: [u32; 8],
        /// Id of the send request.
        send_req: u64,
        /// Id of the close request.
        close_req: u64,
        /// The traffic tag the node returned.
        tag: [u32; 8],
    },
    /// One attestation.
    Attest {
        /// The report.
        report: [u32; 8],
        /// The request id.
        req: u64,
        /// The MAC the node returned.
        mac: [u32; 8],
    },
    /// One traffic send.
    Send {
        /// Index into the resident table.
        resident: usize,
        /// The sequence number the tag carries.
        seq: u32,
        /// The message payload.
        payload: [u32; 8],
        /// The request id.
        req: u64,
        /// The tag the node returned.
        tag: [u32; 8],
    },
}

/// Per-op timing the traced run keeps: the op's latency and the ids of
/// the requests that fall inside it.
#[derive(Clone, Debug)]
pub struct Timed {
    /// Submit of the first request to the verified result.
    pub latency_ns: u64,
    /// Requests submitted inside the latency interval.
    pub reqs: Vec<u64>,
}

/// Why an op failed.
#[derive(Clone, Debug)]
pub enum Fail {
    /// The node refused a request at the door.
    Refused,
    /// A request resolved to a typed error.
    Service(ServiceError),
    /// A reply was of the wrong kind or failed the client's check.
    Unverified(&'static str),
}

/// What one phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Ops attempted.
    pub ops: u64,
    /// Ops refused at the door.
    pub refused: u64,
    /// Ops that got a typed error.
    pub errors: u64,
    /// Ops whose reply failed verification.
    pub unverified: u64,
    /// Latency of every verified op, in completion order.
    pub latencies_ns: Vec<u64>,
    /// Wall time of the phase.
    pub wall_ns: u64,
    /// Request ids `first_req..end_req` were submitted in this phase.
    pub first_req: u64,
    /// One past the last request id of the phase.
    pub end_req: u64,
    /// Completed ops (logging generators only).
    pub done: Vec<Done>,
    /// Per-op timing (logging generators only).
    pub timed: Vec<Timed>,
    /// Block boundaries: after every [`BLOCK_OPS`] verified ops,
    /// the ops verified so far, the phase's elapsed wall time and the
    /// process CPU time (the first mark is the phase's start).
    pub marks: Vec<Mark>,
}

/// One block boundary of a phase.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    /// Verified ops so far.
    pub ops: usize,
    /// Wall nanoseconds since the phase started.
    pub ns: u64,
    /// Process CPU nanoseconds.
    pub cpu_ns: u64,
}

impl Phase {
    /// Ops that failed for any reason.
    pub fn failed(&self) -> u64 {
        self.refused + self.errors + self.unverified
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    Begin,
    Confirm,
    Send,
    Close,
}

enum Op {
    Handshake {
        keep: bool,
        stage: Stage,
        vs: VerifierSession,
        payload: [u32; 8],
        resident: Option<Box<Resident>>,
        send_req: u64,
        tag: [u32; 8],
    },
    Attest {
        report: [u32; 8],
    },
    Send {
        resident: usize,
        payload: [u32; 8],
    },
}

struct Flight {
    index: u64,
    op: Op,
    start: Instant,
    latency_ns: Option<u64>,
    reqs: Vec<u64>,
    span: SpanId,
}

/// The generator, bound to one node.
pub struct Generator<'h, 'a, 'e> {
    handle: &'h ServiceHandle<'a, 'e>,
    client: &'h Client,
    inputs: Inputs,
    log: bool,
    /// Span recorder; switched on for the traced phase.
    pub spans: Spans,
    /// Sessions opened by [`Source::Open`] phases.
    pub residents: Vec<Resident>,
    /// Ops started so far (the input index of the next op).
    next_op: u64,
    /// Every request id with its kind code, in submission order
    /// (logging generators only).
    pub req_log: Vec<(u64, u8)>,
    /// Fingerprint of every input sent.
    pub input_digest: u64,
    /// The first failure seen, for the report.
    pub first_failure: Option<String>,
    phase_done: Vec<Done>,
    phase_start: Instant,
}

impl<'h, 'a, 'e> Generator<'h, 'a, 'e> {
    /// A generator over `handle`; `log` keeps the per-op records the
    /// replay and the determinism tests read.
    pub fn new(
        handle: &'h ServiceHandle<'a, 'e>,
        client: &'h Client,
        inputs: Inputs,
        log: bool,
    ) -> Self {
        Generator {
            handle,
            client,
            inputs,
            log,
            spans: Spans::new(false),
            residents: Vec::new(),
            next_op: 0,
            req_log: Vec::new(),
            input_digest: 0,
            first_failure: None,
            phase_done: Vec::new(),
            phase_start: Instant::now(),
        }
    }

    fn make(&mut self, source: Source, busy: &[usize]) -> Op {
        let i = self.next_op;
        self.next_op += 1;
        let op = match source {
            Source::Lifecycle | Source::Open => Op::Handshake {
                keep: source == Source::Open,
                stage: Stage::Begin,
                vs: self.inputs.handshake(i),
                payload: self.inputs.payload(i),
                resident: None,
                send_req: 0,
                tag: [0; 8],
            },
            Source::Attest => Op::Attest {
                report: self.inputs.report(i),
            },
            Source::Send => Op::Send {
                resident: self.inputs.pick(i, self.residents.len(), busy),
                payload: self.inputs.payload(i),
            },
        };
        match &op {
            Op::Handshake { vs, payload, .. } => {
                self.input_digest = fold(self.input_digest, &vs.nonce);
                self.input_digest = fold(
                    self.input_digest,
                    &[vs.share as u32, (vs.share >> 32) as u32],
                );
                self.input_digest = fold(self.input_digest, payload);
            }
            Op::Attest { report } => self.input_digest = fold(self.input_digest, report),
            Op::Send { resident, payload } => {
                self.input_digest = fold(self.input_digest, &[*resident as u32]);
                self.input_digest = fold(self.input_digest, payload);
            }
        }
        op
    }

    fn first_request(op: &Op, residents: &[Resident]) -> Request {
        match op {
            Op::Handshake { vs, .. } => Request::HandshakeBegin {
                nonce: vs.nonce,
                verifier_share: vs.share,
            },
            Op::Attest { report } => Request::Attest { report: *report },
            Op::Send { resident, payload } => Request::AttestedSend {
                session: residents[*resident].session,
                payload: *payload,
            },
        }
    }

    fn submit(&mut self, f: &mut Flight, req: Request) -> Result<Ticket, Fail> {
        let kind = req.kind_code();
        let t = self
            .spans
            .time("service.submit", f.index, f.span, || {
                self.handle.submit(req)
            })
            .map_err(|_| Fail::Refused)?;
        if self.log {
            self.req_log.push((t.id(), kind));
        }
        if self.log && f.latency_ns.is_none() {
            f.reqs.push(t.id());
        }
        Ok(t)
    }

    /// Checks one reply and returns the op's next request, or `None`
    /// when the op is complete.
    fn advance(
        &mut self,
        f: &mut Flight,
        req: u64,
        reply: Result<Response, ServiceError>,
    ) -> Result<Option<Request>, Fail> {
        let reply = reply.map_err(Fail::Service)?;
        let (index, span) = (f.index, f.span);
        // Each arm returns the next request and whether the op's
        // latency mark (its verified result) was reached.
        let (next, marked) = match &mut f.op {
            Op::Handshake {
                keep,
                stage,
                vs,
                payload,
                resident,
                send_req,
                tag,
            } => match (*stage, reply) {
                (Stage::Begin, Response::HandshakeQuote { session, quote }) => {
                    let client = self.client;
                    let est = self
                        .spans
                        .time("crypto.verify_quote", index, span, || {
                            client.check_quote(req, vs, &quote)
                        })
                        .ok_or(Fail::Unverified("quote rejected"))?;
                    *resident = Some(Box::new(Resident {
                        session,
                        key: est.key,
                        next_seq: 0,
                        begin_req: req,
                        confirm_req: 0,
                        vs: *vs,
                        quote,
                        confirm: est.confirm.0,
                    }));
                    *stage = Stage::Confirm;
                    let confirm = Request::HandshakeConfirm {
                        session,
                        tag: est.confirm.0,
                    };
                    (Some(confirm), false)
                }
                (Stage::Confirm, Response::SessionEstablished) => {
                    let r = resident.as_mut().expect("quote precedes confirm");
                    r.confirm_req = req;
                    *stage = Stage::Send;
                    let send = Request::AttestedSend {
                        session: r.session,
                        payload: *payload,
                    };
                    ((!*keep).then_some(send), true)
                }
                (Stage::Send, Response::AttestedTag { seq, tag: got }) => {
                    let r = resident.as_ref().expect("confirm precedes send");
                    let ok = seq == 0
                        && self.spans.time("crypto.verify_tag", index, span, || {
                            check_tag(&r.key, seq, payload, &got)
                        });
                    if !ok {
                        return Err(Fail::Unverified("traffic tag rejected"));
                    }
                    *send_req = req;
                    *tag = got;
                    *stage = Stage::Close;
                    (Some(Request::SessionClose { session: r.session }), false)
                }
                (Stage::Close, Response::SessionClosed) => {
                    if self.log {
                        let resident = resident.clone().expect("close follows the quote");
                        self.phase_done.push(Done::Lifecycle {
                            resident,
                            payload: *payload,
                            send_req: *send_req,
                            close_req: req,
                            tag: *tag,
                        });
                    }
                    (None, false)
                }
                _ => return Err(Fail::Unverified("unexpected handshake reply")),
            },
            Op::Attest { report } => match reply {
                Response::Quote { counter, mac } => {
                    let client = self.client;
                    let ok = self.spans.time("crypto.verify_attest", index, span, || {
                        client.check_attest(req, report, counter, &mac)
                    });
                    if !ok {
                        return Err(Fail::Unverified("attest MAC rejected"));
                    }
                    if self.log {
                        self.phase_done.push(Done::Attest {
                            report: *report,
                            req,
                            mac,
                        });
                    }
                    (None, true)
                }
                _ => return Err(Fail::Unverified("unexpected attest reply")),
            },
            Op::Send { resident, payload } => match reply {
                Response::AttestedTag { seq, tag } => {
                    let r = &self.residents[*resident];
                    let ok = seq == r.next_seq
                        && self.spans.time("crypto.verify_tag", index, span, || {
                            check_tag(&r.key, seq, payload, &tag)
                        });
                    if !ok {
                        return Err(Fail::Unverified("traffic tag rejected"));
                    }
                    self.residents[*resident].next_seq += 1;
                    if self.log {
                        self.phase_done.push(Done::Send {
                            resident: *resident,
                            seq,
                            payload: *payload,
                            req,
                            tag,
                        });
                    }
                    (None, true)
                }
                _ => return Err(Fail::Unverified("unexpected send reply")),
            },
        };
        if marked {
            f.latency_ns = Some(f.start.elapsed().as_nanos() as u64);
        }
        Ok(next)
    }

    /// Drives `n` ops of `source` closed-loop and returns when all have
    /// completed.
    pub fn phase(&mut self, source: Source, n: u64) -> Phase {
        let first_req = self.handle.accepted();
        self.phase_done.clear();
        let mut out = Phase {
            first_req,
            latencies_ns: Vec::with_capacity(n as usize),
            ..Phase::default()
        };
        self.phase_start = Instant::now();
        self.mark(&mut out);
        let mut line: VecDeque<(Flight, Ticket)> = VecDeque::with_capacity(DEPTH);
        let mut started = 0;
        loop {
            // Refill the window; an op refused at its first submit
            // finishes at once and frees its slot again.
            while started < n && line.len() < DEPTH {
                started += 1;
                self.start(source, &mut line, &mut out);
            }
            let Some((mut f, ticket)) = line.pop_front() else {
                break;
            };
            let req = ticket.id();
            let reply = self
                .spans
                .time("service.wait", f.index, f.span, || ticket.wait());
            let step = self.advance(&mut f, req, reply);
            let step = match step {
                Ok(Some(next)) => match self.submit(&mut f, next) {
                    Ok(t) => {
                        line.push_back((f, t));
                        continue;
                    }
                    Err(e) => Err(e),
                },
                Ok(None) => Ok(()),
                Err(e) => Err(e),
            };
            self.finish(f, step, &mut out);
        }
        out.wall_ns = self.phase_start.elapsed().as_nanos() as u64;
        out.end_req = self.handle.accepted();
        out.done = std::mem::take(&mut self.phase_done);
        out
    }

    fn start(&mut self, source: Source, line: &mut VecDeque<(Flight, Ticket)>, out: &mut Phase) {
        let busy: Vec<usize> = line
            .iter()
            .filter_map(|(f, _)| match f.op {
                Op::Send { resident, .. } => Some(resident),
                _ => None,
            })
            .collect();
        let op = self.make(source, &busy);
        let index = self.next_op - 1;
        out.ops += 1;
        let first = Self::first_request(&op, &self.residents);
        let mut f = Flight {
            index,
            op,
            start: Instant::now(),
            latency_ns: None,
            reqs: Vec::new(),
            span: self.spans.open("op", index, None),
        };
        match self.submit(&mut f, first) {
            Ok(t) => line.push_back((f, t)),
            Err(e) => self.finish(f, Err(e), out),
        }
    }

    fn mark(&self, out: &mut Phase) {
        out.marks.push(Mark {
            ops: out.latencies_ns.len(),
            ns: self.phase_start.elapsed().as_nanos() as u64,
            cpu_ns: crate::host::process_cpu_ns(),
        });
    }

    fn finish(&mut self, f: Flight, result: Result<(), Fail>, out: &mut Phase) {
        self.spans.close(f.span);
        match result {
            Ok(()) => {
                let latency_ns = f.latency_ns.expect("a completed op reached its mark");
                out.latencies_ns.push(latency_ns);
                if out.latencies_ns.len().is_multiple_of(BLOCK_OPS) {
                    self.mark(out);
                }
                if self.log {
                    out.timed.push(Timed {
                        latency_ns,
                        reqs: f.reqs,
                    });
                }
                if let Op::Handshake {
                    keep: true,
                    resident: Some(resident),
                    ..
                } = f.op
                {
                    self.residents.push(*resident);
                }
            }
            Err(e) => {
                match &e {
                    Fail::Refused => out.refused += 1,
                    Fail::Service(_) => out.errors += 1,
                    Fail::Unverified(_) => out.unverified += 1,
                }
                if self.first_failure.is_none() {
                    self.first_failure = Some(format!("op {}: {e:?}", f.index));
                }
            }
        }
    }
}
