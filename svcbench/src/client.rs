//! The client side of the benchmark: inputs derived from the seed, and
//! the check of every response against keys and measurements the
//! client knows out of band.

use komodo::PlatformConfig;
use komodo_crypto::schnorr::Signature;
use komodo_crypto::verifier::Established;
use komodo_crypto::{device_attest_key, kdf, Digest, Quote, Verifier, VerifierSession};
use komodo_service::QuoteWords;
use komodo_spec::seed::{derive_stream, mix64, SplitMix64};

/// Labels that keep the input families drawn from one seed apart.
const HANDSHAKE: u64 = 0x6873_6b5f_6368_726e;
const REPORT: u64 = 0x7265_706f_7274_5f5f;
const PAYLOAD: u64 = 0x7061_796c_6f61_6421;
const PICK: u64 = 0x7069_636b_5f73_6573;

/// Every input the benchmark sends, as a function of the seed and the
/// op's index. The node receives only the requests built from these.
#[derive(Clone, Copy, Debug)]
pub struct Inputs {
    seed: u64,
}

impl Inputs {
    /// Inputs for `seed`.
    pub fn new(seed: u64) -> Inputs {
        Inputs { seed }
    }

    fn rng(&self, family: u64, index: u64) -> SplitMix64 {
        SplitMix64::new(derive_stream(self.seed ^ family, index))
    }

    /// The verifier's nonce and DH secret for the handshake of op
    /// `index`.
    pub fn handshake(&self, index: u64) -> VerifierSession {
        let mut rng = self.rng(HANDSHAKE, index);
        let nonce = std::array::from_fn(|_| rng.next_u64() as u32);
        VerifierSession::new(nonce, rng.next_u64() as u32, rng.next_u64() as u32)
    }

    /// The eight-word report attested by op `index`.
    pub fn report(&self, index: u64) -> [u32; 8] {
        let mut rng = self.rng(REPORT, index);
        std::array::from_fn(|_| rng.next_u64() as u32)
    }

    /// The eight-word message payload sent by op `index`.
    pub fn payload(&self, index: u64) -> [u32; 8] {
        let mut rng = self.rng(PAYLOAD, index);
        std::array::from_fn(|_| rng.next_u64() as u32)
    }

    /// The resident session op `index` sends to: a uniform draw over
    /// `residents`, redrawn while it hits a session in `busy`, so that
    /// no two in-flight ops step the same session.
    pub fn pick(&self, index: u64, residents: usize, busy: &[usize]) -> usize {
        assert!(busy.len() < residents, "more ops in flight than sessions");
        let mut rng = self.rng(PICK, index);
        loop {
            let r = rng.below(residents as u64) as usize;
            if !busy.contains(&r) {
                return r;
            }
        }
    }
}

/// Folds words into a running input fingerprint.
pub fn fold(h: u64, words: &[u32]) -> u64 {
    words.iter().fold(h, |h, &w| mix64(h ^ w as u64))
}

/// What the client knows out of band: the node's base platform config
/// (from which each device's attestation key follows) and the expected
/// enclave measurements.
#[derive(Clone, Debug)]
pub struct Client {
    platform: PlatformConfig,
    ra: Digest,
    notary: Digest,
}

impl Client {
    /// The client of a node whose base platform config is `platform`,
    /// expecting the stock RA and one-page notary images.
    pub fn new(platform: PlatformConfig) -> Client {
        Client {
            ra: komodo::measure_image(&komodo_guest::ra::ra_image(), 1),
            notary: komodo::measure_image(&komodo_guest::notary::notary_image(1), 1),
            platform,
        }
    }

    /// The platform seed of the device that served request `req`.
    fn device_seed(&self, req: u64) -> u64 {
        self.platform.derive_seed(req)
    }

    /// Checks a handshake quote from the session opened by request
    /// `begin_req` against that device's attestation key and the RA
    /// measurement; on success returns the session key and the
    /// verifier's confirmation tag.
    pub fn check_quote(
        &self,
        begin_req: u64,
        vs: &VerifierSession,
        q: &QuoteWords,
    ) -> Option<Established> {
        let quote = Quote {
            public: q.public,
            binding_mac: Digest(q.binding_mac),
            enclave_share: q.enclave_share,
            sig: Signature {
                r: q.sig_r,
                s: q.sig_s,
            },
            confirm: Digest(q.confirm),
        };
        let device = device_attest_key(self.device_seed(begin_req));
        Verifier::new(&device, self.ra).check_quote(vs, &quote).ok()
    }

    /// Checks an `Attest` reply to request `req`: a fresh notary's first
    /// counter, and the `Attest` MAC over the notary measurement and the
    /// notarised digest of the zero-padded report, keyed by the device
    /// key for `req`.
    pub fn check_attest(&self, req: u64, report: &[u32; 8], counter: u32, mac: &[u32; 8]) -> bool {
        let mut doc = report.to_vec();
        doc.resize(16, 0);
        let digest = komodo_guest::notary::notarised_digest(counter, &doc);
        let key = device_attest_key(self.device_seed(req));
        counter == 1
            && komodo_spec::svc::attest_mac(&key, &self.notary, &digest).ct_eq(&Digest(*mac))
    }
}

/// Checks a traffic tag under the client's session key.
pub fn check_tag(key: &Digest, seq: u32, payload: &[u32; 8], tag: &[u32; 8]) -> bool {
    kdf::verify_app_tag(key, seq, payload, &Digest(*tag))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        let (a, b) = (Inputs::new(1), Inputs::new(2));
        assert_eq!(a.report(5), Inputs::new(1).report(5));
        assert_ne!(a.report(5), a.report(6));
        assert_ne!(a.report(5), b.report(5));
        assert_ne!(a.handshake(0).nonce, b.handshake(0).nonce);
        assert_ne!(a.handshake(0).nonce, a.handshake(1).nonce);
    }

    #[test]
    fn picks_avoid_busy_sessions() {
        let i = Inputs::new(9);
        for index in 0..200 {
            assert_eq!(i.pick(index, 2, &[0]), 1);
            let r = i.pick(index, 5, &[1, 3]);
            assert!(r < 5 && r != 1 && r != 3);
        }
    }
}
