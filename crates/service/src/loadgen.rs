//! Open-loop load generation: a seeded, deterministic arrival schedule
//! over a weighted request mix.
//!
//! Open-loop means arrivals do not wait for completions — the schedule
//! is fixed up front (exponential inter-arrival gaps around a mean),
//! and the driver submits each request at its appointed offset whether
//! or not earlier ones finished. Under overload this is what exposes
//! queue growth and backpressure, which a closed loop structurally
//! cannot. Determinism: the same seed, count, mean gap and mix always
//! produce the identical schedule — request kinds, payloads and
//! offsets — so backpressure experiments are replayable.
//!
//! A schedule holds one [`Arrival`] per request: a prototype *index*
//! into the mix plus an offset (12 bytes), so million-arrival schedules
//! cost megabytes, not payload copies; the request is instantiated (an
//! `Arc`-cheap clone of the prototype) only at submit time.
//!
//! [`drive`] splits the schedule into deterministic contiguous
//! partitions owned by K submitter threads, each admitting its
//! partition in batches through [`ServiceHandle::submit_batch`]; one
//! submitter with batches of one is the single-submit driver.

use crate::node::{ServiceHandle, Ticket};
use crate::request::{Reject, Request, Response};
use komodo_crypto::schnorr::Signature;
use komodo_crypto::{device_attest_key, kdf, Digest, Quote, Verifier, VerifierSession};
use komodo_spec::seed::{derive_stream, mix64, SplitMix64, GOLDEN_GAMMA};
use std::time::{Duration, Instant};

/// A weighted request mix. Weights are relative integers; a request's
/// probability is `weight / total_weight`. The total is maintained at
/// construction ([`Mix::with`]), not recomputed per draw.
#[derive(Clone, Debug, Default)]
pub struct Mix {
    entries: Vec<(u32, Request)>,
    total: u64,
}

impl Mix {
    /// An empty mix.
    pub fn new() -> Mix {
        Mix::default()
    }

    /// Adds `prototype` with relative `weight` (0 is allowed and never
    /// picked). Returns the mix for chaining.
    pub fn with(mut self, weight: u32, prototype: Request) -> Mix {
        self.total += weight as u64;
        self.entries.push((weight, prototype));
        self
    }

    /// Summed weight across entries; 0 means the mix can never pick.
    pub fn total_weight(&self) -> u64 {
        self.total
    }

    /// The prototype at `idx` — the target of [`Arrival::proto`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range (an `Arrival` driven against a
    /// mix it was not scheduled from).
    pub fn proto(&self, idx: usize) -> &Request {
        &self.entries[idx].1
    }

    /// Picks an entry index by a uniform draw in `[0, total_weight)`.
    fn pick_index(&self, draw: u64) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        let mut point = draw % self.total;
        for (i, (w, _)) in self.entries.iter().enumerate() {
            if point < *w as u64 {
                return Some(i);
            }
            point -= *w as u64;
        }
        None
    }
}

/// Why a schedule could not be built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixError {
    /// The mix has no entries, or every entry has weight zero — no
    /// request can ever be picked. (This used to silently truncate the
    /// schedule to zero arrivals.)
    ZeroTotalWeight,
}

impl std::fmt::Display for MixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MixError::ZeroTotalWeight => {
                write!(f, "request mix has zero total weight; nothing to schedule")
            }
        }
    }
}

impl std::error::Error for MixError {}

/// One scheduled arrival: the prototype index into the mix it was
/// scheduled from, and when to submit it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from schedule start, in nanoseconds.
    pub at_ns: u64,
    /// Index of the request prototype in the scheduling [`Mix`].
    pub proto: u32,
}

/// Builds the deterministic arrival schedule: `n` prototype indices
/// drawn from `mix`, with exponential inter-arrival gaps of
/// mean `mean_gap_ns` (0 = a single burst at t=0, the maximum-pressure
/// profile). An unpickable mix is a typed error, not a truncated
/// schedule.
pub fn schedule(
    seed: u64,
    n: usize,
    mean_gap_ns: u64,
    mix: &Mix,
) -> Result<Vec<Arrival>, MixError> {
    if mix.total_weight() == 0 {
        return Err(MixError::ZeroTotalWeight);
    }
    let mut out = Vec::with_capacity(n);
    let mut state = seed;
    let mut at_ns = 0u64;
    for _ in 0..n {
        state = state.wrapping_add(GOLDEN_GAMMA);
        let kind_draw = mix64(state);
        let gap_draw = mix64(state ^ 0xdead_beef_cafe_f00d);
        let proto = mix
            .pick_index(kind_draw)
            .expect("nonzero total weight always picks") as u32;
        if mean_gap_ns > 0 {
            // Exponential gap via inverse transform on a uniform draw
            // in (0, 1]; the +1 keeps ln's argument away from zero.
            let u = ((gap_draw >> 11) + 1) as f64 / (1u64 << 53) as f64;
            at_ns += (-u.ln() * mean_gap_ns as f64) as u64;
        }
        out.push(Arrival { at_ns, proto });
    }
    Ok(out)
}

/// What driving a schedule produced. Pure outcome counts — two drives
/// of the same accepted/resolved load compare equal regardless of
/// timing (except `behind_schedule`, which is 0 for unpaced drives).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DriveOutcome {
    /// Requests that resolved to a [`Response`].
    pub ok: u64,
    /// Requests that resolved to a typed
    /// [`ServiceError`](crate::ServiceError).
    pub errors: u64,
    /// Requests rejected at the door (queue full or shutting down).
    pub rejected: u64,
    /// Paced arrivals submitted *after* their scheduled offset — the
    /// driver could not keep up with the schedule. Distinguishes
    /// submit-side lag from queue rejection in overload experiments;
    /// always 0 when pacing is off (a burst has no schedule to lag).
    pub behind_schedule: u64,
}

impl DriveOutcome {
    /// Merges another outcome into this one (per-submitter partials).
    fn merge(&mut self, o: DriveOutcome) {
        self.ok += o.ok;
        self.errors += o.errors;
        self.rejected += o.rejected;
        self.behind_schedule += o.behind_schedule;
    }
}

/// What a drive produced: the summed outcome plus how long
/// the submit phase took (start of the drive to the last submitter
/// finishing admission — joining completions is excluded). The
/// submit-path throughput is `scheduled / submit_wall`.
#[derive(Clone, Copy, Debug)]
pub struct DriveReport {
    /// Summed outcome across all submitter threads.
    pub outcome: DriveOutcome,
    /// Wall-clock duration of the submit phase.
    pub submit_wall: Duration,
}

/// Submits queued-up requests as one batch, folding rejections into the
/// outcome and keeping the accepted tickets.
fn flush(
    handle: &ServiceHandle<'_, '_>,
    buf: &mut Vec<Request>,
    outcome: &mut DriveOutcome,
    tickets: &mut Vec<Ticket>,
) {
    if buf.is_empty() {
        return;
    }
    for r in handle.submit_batch(std::mem::take(buf)) {
        match r {
            Ok(t) => tickets.push(t),
            Err(Reject::QueueFull { .. }) | Err(Reject::ShuttingDown) => outcome.rejected += 1,
        }
    }
}

/// Submits every arrival open-loop, then joins all accepted tickets.
/// `submitters` threads own deterministic contiguous partitions of the
/// arrival schedule, each instantiating requests from `mix` at submit
/// time and admitting them in batches of up to `batch` (at least one)
/// through [`ServiceHandle::submit_batch`]. Each thread joins its own
/// accepted tickets; outcomes are summed. Rejected arrivals are
/// counted, not retried — open-loop load is shed, not deferred.
///
/// With `pace`, each arrival is submitted at its `at_ns` offset (else
/// the schedule is one burst); a thread flushes its pending batch
/// before sleeping, so admission is never delayed past the next
/// arrival's deadline by batching. The partition of arrivals to
/// threads depends only on the schedule length and `submitters`, never
/// on timing — replays are identical.
pub fn drive(
    handle: &ServiceHandle<'_, '_>,
    mix: &Mix,
    arrivals: &[Arrival],
    pace: bool,
    submitters: usize,
    batch: usize,
) -> DriveReport {
    let mut report = DriveReport {
        outcome: DriveOutcome::default(),
        submit_wall: Duration::ZERO,
    };
    if arrivals.is_empty() {
        return report;
    }
    let batch = batch.max(1);
    let chunk = arrivals.len().div_ceil(submitters.max(1));
    let t0 = Instant::now();
    let parts = std::thread::scope(|s| {
        let threads: Vec<_> = arrivals
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut outcome = DriveOutcome::default();
                    let mut tickets = Vec::with_capacity(part.len());
                    let mut buf = Vec::with_capacity(batch);
                    for a in part {
                        if pace {
                            let at = Duration::from_nanos(a.at_ns);
                            let now = t0.elapsed();
                            if at > now {
                                flush(handle, &mut buf, &mut outcome, &mut tickets);
                                std::thread::sleep(at - now);
                            } else if now > at {
                                outcome.behind_schedule += 1;
                            }
                        }
                        buf.push(mix.proto(a.proto as usize).clone());
                        if buf.len() >= batch {
                            flush(handle, &mut buf, &mut outcome, &mut tickets);
                        }
                    }
                    flush(handle, &mut buf, &mut outcome, &mut tickets);
                    let submitted_at = t0.elapsed();
                    for t in tickets {
                        match t.wait() {
                            Ok(_) => outcome.ok += 1,
                            Err(_) => outcome.errors += 1,
                        }
                    }
                    (outcome, submitted_at)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|h| h.join().expect("submitter thread panicked"))
            .collect::<Vec<_>>()
    });
    for (outcome, submitted_at) in parts {
        report.outcome.merge(outcome);
        report.submit_wall = report.submit_wall.max(submitted_at);
    }
    report
}

/// The verifier side of the attested-session drive: what the client
/// knows out of band about the service it challenges.
#[derive(Clone, Copy, Debug)]
pub struct AttestedClient {
    /// The service's base platform seed. Session platforms derive their
    /// hardware-RNG seed (and with it their attestation key) from
    /// `(this, begin-request id)`; the client computes each device's
    /// attestation key with [`device_attest_key`] — the simulation's
    /// stand-in for the manufacturer's device-certificate chain.
    pub platform_seed: u64,
    /// The expected RA-enclave measurement.
    pub measurement: Digest,
}

impl AttestedClient {
    /// Builds the client for a service whose base platform seed is
    /// `platform_seed`, expecting the stock RA enclave image.
    pub fn new(platform_seed: u64) -> AttestedClient {
        AttestedClient {
            platform_seed,
            measurement: komodo::measure_image(komodo_guest::ra::ra_image(), 1),
        }
    }
}

/// What an attested drive produced. Everything here is
/// timing-independent: two drives of the same load at any shard count
/// compare equal — including `key_digest`, which folds every
/// established session key, so equality is a witness that both runs
/// derived identical keys session by session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttestedOutcome {
    /// Handshakes attempted.
    pub sessions: u64,
    /// Handshakes that completed both directions (quote verified,
    /// confirmation accepted by the enclave).
    pub established: u64,
    /// Application messages whose traffic tag verified under the
    /// client-side key.
    pub messages: u64,
    /// Requests rejected at the door in any phase.
    pub rejected: u64,
    /// Verification or service failures in any phase (quote rejected,
    /// confirmation refused, tag mismatch, typed errors).
    pub failed: u64,
    /// Order-independent fold of (position, session key) over every
    /// established session.
    pub key_digest: u64,
}

/// Derives the deterministic eight-word payload for message `round` of
/// the session at `pos`.
fn attested_payload(seed: u64, pos: usize, round: usize) -> [u32; 8] {
    let mut rng = SplitMix64::new(derive_stream(
        seed ^ 0x5e55_10b5_ea7e_d001,
        ((pos as u64) << 24) | round as u64,
    ));
    std::array::from_fn(|_| rng.next_u64() as u32)
}

/// Drives `sessions` full remote-attestation handshakes closed-loop in
/// deterministic phases — begin (one batch, so request ids are
/// contiguous and the session→seed mapping shard-count-invariant),
/// verify every quote client-side, confirm (one batch), then `messages`
/// rounds of MAC'd application traffic (one batch per round, every tag
/// verified under the client's independently-derived key), then close.
///
/// Client randomness (nonces, DH secrets, payloads) derives from
/// `seed` per session position, so the same `(seed, sessions,
/// messages)` drive against the same service config reproduces the
/// identical handshakes — the [`AttestedOutcome`] compares equal across
/// shard counts.
pub fn drive_attested(
    handle: &ServiceHandle<'_, '_>,
    client: &AttestedClient,
    seed: u64,
    sessions: usize,
    messages: usize,
) -> AttestedOutcome {
    let mut outcome = AttestedOutcome {
        sessions: sessions as u64,
        ..AttestedOutcome::default()
    };

    // Phase 1: challenge every session in one batch.
    let mut verifier_sessions = Vec::with_capacity(sessions);
    let mut begins = Vec::with_capacity(sessions);
    for pos in 0..sessions {
        let mut rng = SplitMix64::new(derive_stream(seed, pos as u64));
        let nonce = std::array::from_fn(|_| rng.next_u64() as u32);
        let (hi, lo) = (rng.next_u64() as u32, rng.next_u64() as u32);
        let vs = VerifierSession::new(nonce, hi, lo);
        begins.push(Request::HandshakeBegin {
            nonce,
            verifier_share: vs.share,
        });
        verifier_sessions.push(vs);
    }
    let mut quote_tickets = Vec::with_capacity(sessions);
    for (pos, r) in handle.submit_batch(begins).into_iter().enumerate() {
        match r {
            Ok(t) => quote_tickets.push((pos, t)),
            Err(_) => outcome.rejected += 1,
        }
    }

    // Phase 2: check every quote against the device's attestation key
    // and the expected measurement; derive the client-side session key.
    let mut awaiting = Vec::with_capacity(quote_tickets.len());
    for (pos, t) in quote_tickets {
        let begin_req = t.id();
        match t.wait() {
            Ok(Response::HandshakeQuote { session, quote }) => {
                let q = Quote {
                    public: quote.public,
                    binding_mac: Digest(quote.binding_mac),
                    enclave_share: quote.enclave_share,
                    sig: Signature {
                        r: quote.sig_r,
                        s: quote.sig_s,
                    },
                    confirm: Digest(quote.confirm),
                };
                let device = device_attest_key(derive_stream(client.platform_seed, begin_req));
                let verifier = Verifier::new(&device, client.measurement);
                match verifier.check_quote(&verifier_sessions[pos], &q) {
                    Ok(est) => awaiting.push((pos, session, est)),
                    Err(_) => outcome.failed += 1,
                }
            }
            Ok(_) | Err(_) => outcome.failed += 1,
        }
    }

    // Phase 3: return the confirmation tags in one batch; only
    // enclave-accepted tags establish sessions.
    let confirms: Vec<Request> = awaiting
        .iter()
        .map(|(_, session, est)| Request::HandshakeConfirm {
            session: *session,
            tag: est.confirm.0,
        })
        .collect();
    let mut established = Vec::with_capacity(awaiting.len());
    for ((pos, session, est), r) in awaiting.into_iter().zip(handle.submit_batch(confirms)) {
        let t = match r {
            Ok(t) => t,
            Err(_) => {
                outcome.rejected += 1;
                continue;
            }
        };
        match t.wait() {
            Ok(Response::SessionEstablished) => {
                outcome.established += 1;
                let mut h = pos as u64 + 1;
                for w in est.key.0 {
                    h = mix64(h ^ w as u64);
                }
                outcome.key_digest = outcome.key_digest.wrapping_add(h);
                established.push((pos, session, est));
            }
            _ => outcome.failed += 1,
        }
    }

    // Phase 4: MAC'd application traffic, one batch per round; every
    // tag is checked under the client's independently-derived key.
    for round in 0..messages {
        let sends: Vec<Request> = established
            .iter()
            .map(|(pos, session, _)| Request::AttestedSend {
                session: *session,
                payload: attested_payload(seed, *pos, round),
            })
            .collect();
        for ((pos, _, est), r) in established.iter().zip(handle.submit_batch(sends)) {
            let verified = match r {
                Ok(t) => match t.wait() {
                    Ok(Response::AttestedTag { seq, tag }) => kdf::verify_app_tag(
                        &est.key,
                        seq,
                        &attested_payload(seed, *pos, round),
                        &Digest(tag),
                    ),
                    _ => false,
                },
                Err(_) => {
                    outcome.rejected += 1;
                    continue;
                }
            };
            if verified {
                outcome.messages += 1;
            } else {
                outcome.failed += 1;
            }
        }
    }

    // Phase 5: tear every established session down.
    let closes: Vec<Request> = established
        .iter()
        .map(|(_, session, _)| Request::SessionClose { session: *session })
        .collect();
    for r in handle.submit_batch(closes) {
        match r {
            Ok(t) => {
                if t.wait().is_err() {
                    outcome.failed += 1;
                }
            }
            Err(_) => outcome.rejected += 1,
        }
    }

    outcome
}

/// A mix of `variants` distinct [`Request::HandshakeBegin`] prototypes
/// drawn from `seed` — attested-session load for the open-loop
/// driver. Each prototype carries its own nonce and a well-formed
/// verifier DH share, so every scheduled arrival opens a genuine
/// pending handshake (resolved with a quote; torn down by TTL expiry
/// or node teardown if never confirmed). Compose it with
/// [`Request::Invoke`]/[`Request::Attest`] prototypes via [`Mix::with`]
/// to put handshake pressure inside a bulk workload.
pub fn attested_mix(seed: u64, variants: usize) -> Mix {
    let mut mix = Mix::new();
    for v in 0..variants {
        let mut rng = SplitMix64::new(derive_stream(seed ^ 0xa77e_57ed_0a11_0b5e, v as u64));
        let nonce = std::array::from_fn(|_| rng.next_u64() as u32);
        let vs = VerifierSession::new(nonce, rng.next_u64() as u32, rng.next_u64() as u32);
        mix = mix.with(
            1,
            Request::HandshakeBegin {
                nonce,
                verifier_share: vs.share,
            },
        );
    }
    mix
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> Mix {
        Mix::new()
            .with(3, Request::Attest { report: [7; 8] })
            .with(1, Request::SessionOpen)
    }

    #[test]
    fn schedules_are_deterministic_in_the_seed() {
        let a = schedule(42, 32, 1000, &mix()).unwrap();
        let b = schedule(42, 32, 1000, &mix()).unwrap();
        assert_eq!(a.len(), 32);
        assert_eq!(a, b);
        // A different seed reshuffles (with overwhelming probability
        // over 32 draws).
        let c = schedule(43, 32, 1000, &mix()).unwrap();
        assert!(
            a.iter()
                .zip(&c)
                .any(|(x, y)| x.at_ns != y.at_ns || x.proto != y.proto),
            "different seeds must diverge"
        );
    }

    #[test]
    fn burst_schedule_lands_at_zero_and_offsets_are_monotone() {
        let burst = schedule(7, 8, 0, &mix()).unwrap();
        assert!(burst.iter().all(|a| a.at_ns == 0));
        let paced = schedule(7, 8, 10_000, &mix()).unwrap();
        for w in paced.windows(2) {
            assert!(w[0].at_ns <= w[1].at_ns);
        }
        assert!(paced.last().unwrap().at_ns > 0);
    }

    #[test]
    fn mix_weights_bias_the_draw() {
        let m = mix();
        let s = schedule(1, 400, 0, &m).unwrap();
        let attests = s
            .iter()
            .filter(|a| matches!(m.proto(a.proto as usize), Request::Attest { .. }))
            .count();
        // 3:1 weighting: expect ~300 of 400; accept a generous band.
        assert!((200..=390).contains(&attests), "attests = {attests}");
    }

    /// The total weight is maintained incrementally by `with`, matching
    /// what a per-draw sum would compute.
    #[test]
    fn total_weight_is_precomputed_at_construction() {
        let m = mix()
            .with(0, Request::SessionOpen)
            .with(5, Request::SessionOpen);
        assert_eq!(m.total_weight(), 3 + 1 + 5);
        let summed: u64 = m.entries.iter().map(|(w, _)| *w as u64).sum();
        assert_eq!(m.total_weight(), summed);
    }

    /// Regression: an unpickable mix used to silently `break`, yielding
    /// a zero-arrival schedule with no signal. It is now a typed error.
    #[test]
    fn unpickable_mix_is_a_typed_error() {
        assert_eq!(
            schedule(1, 8, 0, &Mix::new()).unwrap_err(),
            MixError::ZeroTotalWeight
        );
        let zero_weight = Mix::new().with(0, Request::SessionOpen);
        assert_eq!(
            schedule(1, 8, 0, &zero_weight).unwrap_err(),
            MixError::ZeroTotalWeight
        );
    }
}
