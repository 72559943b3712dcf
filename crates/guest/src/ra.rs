//! The remote-attestation enclave — the trusted enclave the paper defers
//! ("Komodo implements local (same machine) attestation as a monitor
//! primitive, and defers remote attestation to a trusted enclave (that we
//! have yet to implement)", §4).
//!
//! The design follows the paper's sketch (and Sanctum's signing-enclave
//! architecture it cites): a dedicated enclave generates a signing keypair
//! *inside* the enclave from the monitor's `GetRandom`, binds the public
//! key to its own measurement with the monitor's *local* attestation
//! primitive, and thereafter signs "quotes" — Schnorr signatures over
//! caller-supplied report data. A remote verifier that trusts the
//! platform's local-attestation key (via whatever provisioning
//! establishes it) can then verify quotes offline with plain public-key
//! cryptography.
//!
//! Everything security-relevant executes in guest code on the machine
//! model: key masking, the `g^x` and `g^k` exponentiations
//! ([`crate::math64`]), the Fiat–Shamir challenge hash ([`crate::sha`]),
//! and the response `s = k + e·x mod q`. The secret key never leaves the
//! enclave's private page.
//!
//! Guest ABI (`Enter(op, _, _)`):
//! - `op 0` — init: generate the keypair, publish `pub` and the local
//!   attestation MAC over it to the shared page; exit 0.
//! - `op 1` — quote: read `report[8]` from the shared page, publish the
//!   signature `(R, s)`; exit 0.
//! - `op 2` — handshake: read the verifier's nonce and DH share, derive
//!   an ephemeral DH share `B = g^b` and the session key
//!   `K = KDF(V^b, transcript)` ([`komodo_crypto::kdf`]), publish `B`
//!   and the key-confirmation tag, then quote the report
//!   `[nonce, V, B]` (falls through into the `op 1` path); exit 0.
//! - `op 3` — app tag: MAC `[seq, payload[8]]` under the session key,
//!   publish the tag; exit 0.
//! - `op 4` — confirm check: recompute the verifier-direction
//!   confirmation tag and compare against the shared page; exit 0 on
//!   match, 1 on mismatch.
//!
//! Shared-page layout (word offsets): `0..8` report in, `8..10` pubkey
//! `(lo, hi)`, `10..18` attestation MAC, `18..20` `R (lo, hi)`,
//! `20..22` `s (lo, hi)`, `24..28` nonce in, `28..30` verifier DH share
//! `(lo, hi)` in, `30..32` enclave DH share `(lo, hi)` out, `32..40`
//! confirmation tag out, `40` sequence number in, `41..49` payload (or
//! the verifier's confirmation tag for `op 4`) in, `49..57` traffic tag
//! out.

use std::sync::OnceLock;

use komodo_armv7::asm::Label;
use komodo_armv7::insn::Cond;
use komodo_armv7::regs::Reg;
use komodo_armv7::Assembler;
use komodo_crypto::{kdf, schnorr};

use crate::hmac::emit_hmac16;
use crate::math64::emit_math64;
use crate::sha::{emit_sha256, k_table_words};
use crate::{svc, GuestSegment, Image};

/// Code segment VA.
pub const CODE_VA: u32 = 0x0000_8000;
/// SHA constant table VA (private, read-only).
pub const K_VA: u32 = 0x0001_0000;
/// Private state page VA.
pub const STATE_VA: u32 = 0x0001_1000;
/// Shared page VA.
pub const SHARED_VA: u32 = 0x0010_0000;

// Private-state byte offsets.
const X_OFF: u16 = 0x00; // Secret key (lo, hi).
const K_OFF: u16 = 0x08; // Per-quote nonce (lo, hi).
const R_OFF: u16 = 0x10; // Commitment R (lo, hi).
const B_OFF: u16 = 0x18; // Ephemeral DH secret b (lo, hi).
const PUB_OFF: u16 = 0x20; // Own public key (lo, hi), kept from init.
const BPUB_OFF: u16 = 0x28; // Ephemeral DH share B (lo, hi).
const NONCE_OFF: u16 = 0x30; // Private copy of the verifier nonce (4 words).
const ZK_OFF: u16 = 0x40; // HKDF extract key [Z_hi, Z_lo, 0…] (8 words).
const PRK_OFF: u16 = 0x60; // Extract output / expected-tag buffer (8 words).
const SK_OFF: u16 = 0x80; // Session key K (8 words).
const SCRATCH_OFF: u32 = 0x100; // SHA schedule buffer (64 words).
const HSTATE_OFF: u32 = 0x200; // SHA state (8 words).
const BLOCK_OFF: u32 = 0x240; // Challenge block / HMAC workspace (16 words).
const MSG_OFF: u16 = 0x280; // HMAC message buffer (16 words).
const STACK_TOP: u32 = 0x1000;

// Shared-page byte offsets.
const SH_REPORT: u16 = 0; // 8 words in.
const SH_PUB: u16 = 32; // 2 words out.
const SH_MAC: u16 = 40; // 8 words out.
const SH_R: u16 = 72; // 2 words out.
const SH_S: u16 = 80; // 2 words out.
const SH_NONCE: u16 = 96; // 4 words in.
const SH_VSHARE: u16 = 112; // 2 words in (lo, hi).
const SH_ESHARE: u16 = 120; // 2 words out (lo, hi).
const SH_CONFIRM: u16 = 128; // 8 words out.
const SH_SEQ: u16 = 160; // 1 word in.
const SH_MSG: u16 = 164; // 8 words in.
const SH_TAG: u16 = 196; // 8 words out.

const R0: Reg = Reg::R(0);
const R1: Reg = Reg::R(1);
const R2: Reg = Reg::R(2);
const R3: Reg = Reg::R(3);
const R4: Reg = Reg::R(4);
const R5: Reg = Reg::R(5);
const R6: Reg = Reg::R(6);
const R7: Reg = Reg::R(7);
const R11: Reg = Reg::R(11);
const R12: Reg = Reg::R(12);

/// Loads the 64-bit constant `v` into the register pair `(lo, hi)`.
fn mov_u64(a: &mut Assembler, lo: Reg, hi: Reg, v: u64) {
    a.mov_imm32(lo, v as u32);
    a.mov_imm32(hi, (v >> 32) as u32);
}

/// Draws one random word into `R1` (`GetRandom` SVC) and stores it at
/// `[STATE_VA + off]` via `R12`.
fn random_to_state(a: &mut Assembler, off: u16) {
    svc::get_random(a);
    a.mov_imm32(R12, STATE_VA);
    a.str_imm(R1, R12, off);
}

/// Confines the state double-word at `off` to a 59-bit odd scalar:
/// `lo |= 1`, `hi &= 0x07ff_ffff` (the host's `schnorr::mask59`).
fn mask59_state(a: &mut Assembler, off: u16) {
    a.mov_imm32(R12, STATE_VA);
    a.ldr_imm(R2, R12, off);
    a.orr_imm1(R2);
    a.str_imm(R2, R12, off);
    a.ldr_imm(R2, R12, off + 4);
    a.mov_imm32(R3, 0x07ff_ffff);
    a.and_reg(R2, R2, R3);
    a.str_imm(R2, R12, off + 4);
}

/// Zeroes the 16-word HMAC message buffer (each message build starts
/// from a clean slate so residue from earlier messages never leaks into
/// a tag). Leaves `R6 = STATE_VA + MSG_OFF`.
fn zero_msg(a: &mut Assembler) {
    a.mov_imm32(R6, STATE_VA + MSG_OFF as u32);
    a.mov_imm(R2, 0);
    for i in 0..16u16 {
        a.str_imm(R2, R6, i * 4);
    }
}

/// Calls the fixed-shape HMAC over the message buffer: key at `key_va`,
/// tag written to `out_va`.
fn call_hmac16(a: &mut Assembler, hmac: Label, key_va: u32, out_va: u32) {
    a.mov_imm32(R0, STATE_VA + SCRATCH_OFF);
    a.mov_imm32(R1, STATE_VA + BLOCK_OFF);
    a.mov_imm32(R2, STATE_VA + HSTATE_OFF);
    a.mov_imm32(R3, key_va);
    a.mov_imm32(R4, STATE_VA + MSG_OFF as u32);
    a.mov_imm32(R5, out_va);
    a.bl_to(Cond::Al, hmac);
}

/// The remote-attestation enclave image, assembled on first use and
/// shared for the rest of the process (the node loads it on every
/// `HandshakeBegin`).
pub fn ra_image() -> &'static Image {
    static IMAGE: OnceLock<Image> = OnceLock::new();
    IMAGE.get_or_init(assemble_ra_image)
}

fn assemble_ra_image() -> Image {
    let mut a = Assembler::new(CODE_VA);
    let over = a.b_fixup(Cond::Al);
    let sha = emit_sha256(&mut a, K_VA);
    let math = emit_math64(&mut a);
    let hmac = emit_hmac16(&mut a, &sha);

    let main = a.here();
    a.fix_branch(over, main);
    a.mov_imm32(Reg::Sp, STATE_VA + STACK_TOP);
    a.mov_reg(R11, R0); // op survives SVCs in R11? SVC handlers write R0-R8 only; R11 safe.
    a.cmp_imm(R11, 0);
    let not_init = a.b_fixup(Cond::Ne);

    // ---- op 0: init --------------------------------------------------
    // x = mask59(GetRandom(), GetRandom()).
    random_to_state(&mut a, X_OFF + 4); // hi first.
    random_to_state(&mut a, X_OFF); // lo.
    mask59_state(&mut a, X_OFF);
    // pub = g^x mod p.
    mov_u64(&mut a, R0, R1, schnorr::G);
    a.ldr_imm(R2, R12, X_OFF);
    a.ldr_imm(R3, R12, X_OFF + 4);
    mov_u64(&mut a, R4, R5, schnorr::P);
    a.bl_to(Cond::Al, math.modexp);
    // Keep pub privately (the handshake transcript needs it even if the
    // OS scribbles the shared page).
    a.mov_imm32(R12, STATE_VA);
    a.str_imm(R0, R12, PUB_OFF);
    a.str_imm(R1, R12, PUB_OFF + 4);
    // Publish pub.
    a.mov_imm32(R12, SHARED_VA);
    a.str_imm(R0, R12, SH_PUB);
    a.str_imm(R1, R12, SH_PUB + 4);
    // Attest([pub_lo, pub_hi, 0...]) → MAC to shared.
    a.mov_reg(R6, R0);
    a.mov_reg(R7, R1);
    a.mov_reg(R1, R6);
    a.mov_reg(R2, R7);
    for i in 3..=8u8 {
        a.mov_imm(Reg::R(i), 0);
    }
    svc::attest(&mut a);
    a.mov_imm32(R12, SHARED_VA);
    for i in 0..8u16 {
        a.str_imm(Reg::R(1 + i as u8), R12, SH_MAC + i * 4);
    }
    svc::exit_imm(&mut a, 0);

    // ---- dispatch for ops 1–4 ----------------------------------------
    let dispatch = a.here();
    a.fix_branch(not_init, dispatch);
    a.cmp_imm(R11, 3);
    let to_app = a.b_fixup(Cond::Eq);
    a.cmp_imm(R11, 4);
    let to_chk = a.b_fixup(Cond::Eq);
    a.cmp_imm(R11, 2);
    let to_quote = a.b_fixup(Cond::Ne);

    // ---- op 2: handshake preamble ------------------------------------
    // Derives the DH share and session key, publishes B and the confirm
    // tag, writes the report [nonce, V, B] to the shared page, then
    // falls through into the op-1 quote path to sign it.
    //
    // Keep a private copy of the nonce: tags derived later (op 3/4) must
    // bind the nonce this handshake actually used, not whatever is in
    // shared memory at that point.
    a.mov_imm32(R12, SHARED_VA);
    a.mov_imm32(R6, STATE_VA);
    for i in 0..4u16 {
        a.ldr_imm(R2, R12, SH_NONCE + i * 4);
        a.str_imm(R2, R6, NONCE_OFF + i * 4);
    }
    // b = mask59(GetRandom(), GetRandom()).
    random_to_state(&mut a, B_OFF + 4);
    random_to_state(&mut a, B_OFF);
    mask59_state(&mut a, B_OFF);
    // B = g^b mod p; keep it privately.
    mov_u64(&mut a, R0, R1, schnorr::G);
    a.ldr_imm(R2, R12, B_OFF);
    a.ldr_imm(R3, R12, B_OFF + 4);
    mov_u64(&mut a, R4, R5, schnorr::P);
    a.bl_to(Cond::Al, math.modexp);
    a.mov_imm32(R12, STATE_VA);
    a.str_imm(R0, R12, BPUB_OFF);
    a.str_imm(R1, R12, BPUB_OFF + 4);
    // Z = V^b mod p (modexp preserved R4:R5 = P).
    a.mov_imm32(R12, SHARED_VA);
    a.ldr_imm(R0, R12, SH_VSHARE);
    a.ldr_imm(R1, R12, SH_VSHARE + 4);
    a.mov_imm32(R12, STATE_VA);
    a.ldr_imm(R2, R12, B_OFF);
    a.ldr_imm(R3, R12, B_OFF + 4);
    a.bl_to(Cond::Al, math.modexp);
    // HKDF extract key [Z_hi, Z_lo, 0…].
    a.mov_imm32(R12, STATE_VA);
    a.str_imm(R1, R12, ZK_OFF);
    a.str_imm(R0, R12, ZK_OFF + 4);
    a.mov_imm(R2, 0);
    for i in 2..8u16 {
        a.str_imm(R2, R12, ZK_OFF + i * 4);
    }
    // Transcript [TAG, nonce, V_lo, V_hi, B_lo, B_hi, pub_lo, pub_hi, 0…].
    zero_msg(&mut a);
    a.mov_imm32(R2, kdf::TRANSCRIPT_TAG);
    a.str_imm(R2, R6, 0);
    a.mov_imm32(R12, STATE_VA);
    for i in 0..4u16 {
        a.ldr_imm(R2, R12, NONCE_OFF + i * 4);
        a.str_imm(R2, R6, 4 + i * 4);
    }
    a.mov_imm32(R12, SHARED_VA);
    a.ldr_imm(R2, R12, SH_VSHARE);
    a.str_imm(R2, R6, 5 * 4);
    a.ldr_imm(R2, R12, SH_VSHARE + 4);
    a.str_imm(R2, R6, 6 * 4);
    a.mov_imm32(R12, STATE_VA);
    a.ldr_imm(R2, R12, BPUB_OFF);
    a.str_imm(R2, R6, 7 * 4);
    a.ldr_imm(R2, R12, BPUB_OFF + 4);
    a.str_imm(R2, R6, 8 * 4);
    a.ldr_imm(R2, R12, PUB_OFF);
    a.str_imm(R2, R6, 9 * 4);
    a.ldr_imm(R2, R12, PUB_OFF + 4);
    a.str_imm(R2, R6, 10 * 4);
    // prk = HMAC(zkey, transcript); K = HMAC(prk, [EXPAND_TAG, 1, 0…]).
    call_hmac16(
        &mut a,
        hmac,
        STATE_VA + ZK_OFF as u32,
        STATE_VA + PRK_OFF as u32,
    );
    zero_msg(&mut a);
    a.mov_imm32(R2, kdf::EXPAND_TAG);
    a.str_imm(R2, R6, 0);
    a.mov_imm(R2, 1);
    a.str_imm(R2, R6, 4);
    call_hmac16(
        &mut a,
        hmac,
        STATE_VA + PRK_OFF as u32,
        STATE_VA + SK_OFF as u32,
    );
    // C_e = HMAC(K, [CONFIRM_ENCLAVE_TAG, nonce, 0…]) → shared.
    zero_msg(&mut a);
    a.mov_imm32(R2, kdf::CONFIRM_ENCLAVE_TAG);
    a.str_imm(R2, R6, 0);
    a.mov_imm32(R12, STATE_VA);
    for i in 0..4u16 {
        a.ldr_imm(R2, R12, NONCE_OFF + i * 4);
        a.str_imm(R2, R6, 4 + i * 4);
    }
    call_hmac16(
        &mut a,
        hmac,
        STATE_VA + SK_OFF as u32,
        SHARED_VA + SH_CONFIRM as u32,
    );
    // Publish B and write the report [nonce, V, B] for the quote.
    a.mov_imm32(R12, STATE_VA);
    a.mov_imm32(R6, SHARED_VA);
    a.ldr_imm(R2, R12, BPUB_OFF);
    a.str_imm(R2, R6, SH_ESHARE);
    a.str_imm(R2, R6, SH_REPORT + 6 * 4);
    a.ldr_imm(R2, R12, BPUB_OFF + 4);
    a.str_imm(R2, R6, SH_ESHARE + 4);
    a.str_imm(R2, R6, SH_REPORT + 7 * 4);
    for i in 0..4u16 {
        a.ldr_imm(R2, R12, NONCE_OFF + i * 4);
        a.str_imm(R2, R6, SH_REPORT + i * 4);
    }
    a.ldr_imm(R2, R6, SH_VSHARE);
    a.str_imm(R2, R6, SH_REPORT + 4 * 4);
    a.ldr_imm(R2, R6, SH_VSHARE + 4);
    a.str_imm(R2, R6, SH_REPORT + 5 * 4);

    // ---- op 1: quote --------------------------------------------------
    let quote = a.here();
    a.fix_branch(to_quote, quote);
    // k = mask59(GetRandom(), GetRandom()).
    random_to_state(&mut a, K_OFF + 4);
    random_to_state(&mut a, K_OFF);
    mask59_state(&mut a, K_OFF);
    // R = g^k mod p; save to state and shared.
    mov_u64(&mut a, R0, R1, schnorr::G);
    a.ldr_imm(R2, R12, K_OFF);
    a.ldr_imm(R3, R12, K_OFF + 4);
    mov_u64(&mut a, R4, R5, schnorr::P);
    a.bl_to(Cond::Al, math.modexp);
    a.mov_imm32(R12, STATE_VA);
    a.str_imm(R0, R12, R_OFF);
    a.str_imm(R1, R12, R_OFF + 4);
    a.mov_imm32(R12, SHARED_VA);
    a.str_imm(R0, R12, SH_R);
    a.str_imm(R1, R12, SH_R + 4);
    // Challenge block: [TAG, R_hi, R_lo, report[8], 0,0,0,0,0].
    a.mov_imm32(R6, STATE_VA + BLOCK_OFF);
    a.mov_imm32(R2, schnorr::CHAL_TAG);
    a.str_imm(R2, R6, 0);
    a.mov_imm32(R12, STATE_VA);
    a.ldr_imm(R2, R12, R_OFF + 4); // R_hi.
    a.str_imm(R2, R6, 4);
    a.ldr_imm(R2, R12, R_OFF); // R_lo.
    a.str_imm(R2, R6, 8);
    a.mov_imm32(R12, SHARED_VA);
    for i in 0..8u16 {
        a.ldr_imm(R2, R12, SH_REPORT + i * 4);
        a.str_imm(R2, R6, 12 + i * 4);
    }
    a.mov_imm(R2, 0);
    for i in 11..16u16 {
        a.str_imm(R2, R6, i * 4);
    }
    // e = SHA(block), truncated to 59 bits.
    a.mov_imm32(R2, STATE_VA + HSTATE_OFF);
    a.bl_to(Cond::Al, sha.init);
    a.mov_imm32(R0, STATE_VA + SCRATCH_OFF);
    a.mov_imm32(R1, STATE_VA + BLOCK_OFF);
    a.mov_imm32(R2, STATE_VA + HSTATE_OFF);
    a.bl_to(Cond::Al, sha.compress);
    a.mov_imm32(R0, STATE_VA + SCRATCH_OFF);
    a.mov_imm32(R2, STATE_VA + HSTATE_OFF);
    a.mov_imm(R3, 1);
    a.bl_to(Cond::Al, sha.finish);
    // t = modmul(e, x, q); e = (d0 & mask, d1): note digest word 0 is the
    // high word of e.
    a.mov_imm32(R12, STATE_VA + HSTATE_OFF);
    a.ldr_imm(R1, R12, 0); // e_hi = d0 & 0x07ffffff.
    a.mov_imm32(R3, 0x07ff_ffff);
    a.and_reg(R1, R1, R3);
    a.ldr_imm(R0, R12, 4); // e_lo = d1.
    a.mov_imm32(R12, STATE_VA);
    a.ldr_imm(R2, R12, X_OFF);
    a.ldr_imm(R3, R12, X_OFF + 4);
    mov_u64(&mut a, R4, R5, schnorr::Q);
    a.bl_to(Cond::Al, math.modmul);
    // s = (t + k) mod q. modmul preserved R4:R5 = Q.
    a.mov_imm32(R12, STATE_VA);
    a.ldr_imm(R2, R12, K_OFF);
    a.ldr_imm(R3, R12, K_OFF + 4);
    a.dp(
        komodo_armv7::insn::DpOp::Add,
        true,
        R0,
        R0,
        komodo_armv7::Op2::reg(R2),
    );
    a.dp(
        komodo_armv7::insn::DpOp::Adc,
        false,
        R1,
        R1,
        komodo_armv7::Op2::reg(R3),
    );
    // Conditional subtract of Q (both addends < q, so one subtract
    // suffices): if (R0,R1) >= (R4,R5) subtract.
    a.cmp_reg(R1, R5);
    let skip1 = a.b_fixup(Cond::Cc);
    let dosub = a.b_fixup(Cond::Hi);
    a.cmp_reg(R0, R4);
    let skip2 = a.b_fixup(Cond::Cc);
    let sub_at = a.here();
    a.fix_branch(dosub, sub_at);
    a.dp(
        komodo_armv7::insn::DpOp::Sub,
        true,
        R0,
        R0,
        komodo_armv7::Op2::reg(R4),
    );
    a.dp(
        komodo_armv7::insn::DpOp::Sbc,
        false,
        R1,
        R1,
        komodo_armv7::Op2::reg(R5),
    );
    let out = a.here();
    a.fix_branch(skip1, out);
    a.fix_branch(skip2, out);
    // Publish s.
    a.mov_imm32(R12, SHARED_VA);
    a.str_imm(R0, R12, SH_S);
    a.str_imm(R1, R12, SH_S + 4);
    svc::exit_imm(&mut a, 0);

    // ---- op 3: application-traffic tag -------------------------------
    // tag = HMAC(K, [APP_TAG, seq, payload[8], 0…]) → shared.
    let app = a.here();
    a.fix_branch(to_app, app);
    zero_msg(&mut a);
    a.mov_imm32(R2, kdf::APP_TAG);
    a.str_imm(R2, R6, 0);
    a.mov_imm32(R12, SHARED_VA);
    a.ldr_imm(R2, R12, SH_SEQ);
    a.str_imm(R2, R6, 4);
    for i in 0..8u16 {
        a.ldr_imm(R2, R12, SH_MSG + i * 4);
        a.str_imm(R2, R6, 8 + i * 4);
    }
    call_hmac16(
        &mut a,
        hmac,
        STATE_VA + SK_OFF as u32,
        SHARED_VA + SH_TAG as u32,
    );
    svc::exit_imm(&mut a, 0);

    // ---- op 4: verifier-confirmation check ----------------------------
    // Recompute C_v = HMAC(K, [CONFIRM_VERIFIER_TAG, nonce, 0…]) and
    // compare against the shared payload area; exit 0 iff equal.
    let chk = a.here();
    a.fix_branch(to_chk, chk);
    zero_msg(&mut a);
    a.mov_imm32(R2, kdf::CONFIRM_VERIFIER_TAG);
    a.str_imm(R2, R6, 0);
    a.mov_imm32(R12, STATE_VA);
    for i in 0..4u16 {
        a.ldr_imm(R2, R12, NONCE_OFF + i * 4);
        a.str_imm(R2, R6, 4 + i * 4);
    }
    call_hmac16(
        &mut a,
        hmac,
        STATE_VA + SK_OFF as u32,
        STATE_VA + PRK_OFF as u32,
    );
    a.mov_imm32(R12, STATE_VA);
    a.mov_imm32(R6, SHARED_VA);
    a.mov_imm(R7, 0);
    for i in 0..8u16 {
        a.ldr_imm(R2, R12, PRK_OFF + i * 4);
        a.ldr_imm(R3, R6, SH_MSG + i * 4);
        a.eor_reg(R2, R2, R3);
        a.dp(
            komodo_armv7::insn::DpOp::Orr,
            false,
            R7,
            R7,
            komodo_armv7::Op2::reg(R2),
        );
    }
    a.cmp_imm(R7, 0);
    let confirm_ok = a.b_fixup(Cond::Eq);
    svc::exit_imm(&mut a, 1);
    let confirm_good = a.here();
    a.fix_branch(confirm_ok, confirm_good);
    svc::exit_imm(&mut a, 0);

    Image {
        segments: vec![
            GuestSegment {
                va: CODE_VA,
                words: a.words(),
                w: false,
                x: true,
                shared: false,
            },
            GuestSegment {
                va: K_VA,
                words: k_table_words(),
                w: false,
                x: false,
                shared: false,
            },
            GuestSegment {
                va: STATE_VA,
                words: vec![0; 1024],
                w: true,
                x: false,
                shared: false,
            },
            GuestSegment {
                va: SHARED_VA,
                words: vec![0; 1024],
                w: true,
                x: false,
                shared: true,
            },
        ],
        entry: main.addr(),
    }
}

/// Packs two shared-page words `(lo, hi)` into a `u64`.
pub fn unpack_u64(lo: u32, hi: u32) -> u64 {
    ((hi as u64) << 32) | lo as u64
}

/// Shared-page *word* offsets for host-side `read_shared`/`write_shared`
/// (the byte-offset constants above, divided by four).
pub mod shared_layout {
    /// Report in (8 words).
    pub const REPORT: usize = 0;
    /// Schnorr public key out (lo, hi).
    pub const PUB: usize = 8;
    /// Key-binding attestation MAC out (8 words).
    pub const MAC: usize = 10;
    /// Signature commitment `R` out (lo, hi).
    pub const R: usize = 18;
    /// Signature response `s` out (lo, hi).
    pub const S: usize = 20;
    /// Verifier nonce in (4 words).
    pub const NONCE: usize = 24;
    /// Verifier DH share in (lo, hi).
    pub const VSHARE: usize = 28;
    /// Enclave DH share out (lo, hi).
    pub const ESHARE: usize = 30;
    /// Enclave key-confirmation tag out (8 words).
    pub const CONFIRM: usize = 32;
    /// Traffic sequence number in (1 word).
    pub const SEQ: usize = 40;
    /// Traffic payload / verifier confirmation tag in (8 words).
    pub const MSG: usize = 41;
    /// Traffic tag out (8 words).
    pub const TAG: usize = 49;
}

/// Convenience trait hook used above; see [`Assembler`].
trait OrrImm1 {
    fn orr_imm1(&mut self, r: Reg);
}

impl OrrImm1 for Assembler {
    fn orr_imm1(&mut self, r: Reg) {
        self.dp(
            komodo_armv7::insn::DpOp::Orr,
            false,
            r,
            r,
            komodo_armv7::Op2::imm(1),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_is_wellformed() {
        let img = ra_image();
        assert_eq!(img.segments.len(), 4);
        assert!(img.segments[0].x);
        assert!(img.segments[3].shared);
        // The code fits the VA window below the K table.
        assert!(img.segments[0].words.len() * 4 <= (K_VA - CODE_VA) as usize);
        assert!(img.entry >= CODE_VA);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // The point is checking the layout constants.
    fn shared_layout_constants_are_disjoint() {
        assert!(SH_REPORT + 32 <= SH_PUB);
        assert!(SH_PUB + 8 <= SH_MAC);
        assert!(SH_MAC + 32 <= SH_R);
        assert!(SH_R + 8 <= SH_S);
        assert!(SH_S + 8 <= SH_NONCE);
        assert!(SH_NONCE + 16 <= SH_VSHARE);
        assert!(SH_VSHARE + 8 <= SH_ESHARE);
        assert!(SH_ESHARE + 8 <= SH_CONFIRM);
        assert!(SH_CONFIRM + 32 <= SH_SEQ);
        assert!(SH_SEQ + 4 <= SH_MSG);
        assert!(SH_MSG + 32 <= SH_TAG);
        assert!(SH_TAG as u32 + 32 <= 4096);
    }

    #[test]
    fn word_layout_matches_byte_layout() {
        assert_eq!(shared_layout::REPORT * 4, SH_REPORT as usize);
        assert_eq!(shared_layout::PUB * 4, SH_PUB as usize);
        assert_eq!(shared_layout::MAC * 4, SH_MAC as usize);
        assert_eq!(shared_layout::R * 4, SH_R as usize);
        assert_eq!(shared_layout::S * 4, SH_S as usize);
        assert_eq!(shared_layout::NONCE * 4, SH_NONCE as usize);
        assert_eq!(shared_layout::VSHARE * 4, SH_VSHARE as usize);
        assert_eq!(shared_layout::ESHARE * 4, SH_ESHARE as usize);
        assert_eq!(shared_layout::CONFIRM * 4, SH_CONFIRM as usize);
        assert_eq!(shared_layout::SEQ * 4, SH_SEQ as usize);
        assert_eq!(shared_layout::MSG * 4, SH_MSG as usize);
        assert_eq!(shared_layout::TAG * 4, SH_TAG as usize);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // The point is checking the layout constants.
    fn private_state_constants_are_disjoint() {
        assert!(X_OFF + 8 <= K_OFF);
        assert!(K_OFF + 8 <= R_OFF);
        assert!(R_OFF + 8 <= B_OFF);
        assert!(B_OFF + 8 <= PUB_OFF);
        assert!(PUB_OFF + 8 <= BPUB_OFF);
        assert!(BPUB_OFF + 8 <= NONCE_OFF);
        assert!(NONCE_OFF + 16 <= ZK_OFF);
        assert!(ZK_OFF + 32 <= PRK_OFF);
        assert!(PRK_OFF + 32 <= SK_OFF);
        assert!((SK_OFF as u32) + 32 <= SCRATCH_OFF);
        assert!(SCRATCH_OFF + 256 <= HSTATE_OFF);
        assert!(HSTATE_OFF + 32 <= BLOCK_OFF);
        assert!(BLOCK_OFF + 64 <= MSG_OFF as u32);
        assert!((MSG_OFF as u32) + 64 < STACK_TOP - 256); // Leave stack headroom.
    }
}
