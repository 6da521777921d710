//! AES-128 block cipher (FIPS 197), encryption direction only.
//!
//! The one consumer in this workspace is the Crypto-PAn
//! prefix-preserving IP anonymizer, which uses AES as a pseudo-random
//! function. It never decrypts, so only the forward direction is
//! implemented.
//!
//! ## Kernels
//!
//! [`Aes128::encrypt_byte0_batch`], Crypto-PAn's hot path, has two
//! kernels over the same expanded key, and the CPU alone picks one:
//! [`Aes128::new`] asks once whether it executes AES-NI.
//!
//! * **AES-NI** (x86-64 CPUs that have it): all N blocks of a batch go
//!   through the `aesenc`/`aesenclast` round instructions in flight
//!   together. The instructions need a `#[target_feature]` function, and
//!   calling one needs `unsafe`: the kernel's one call site is the only
//!   `unsafe` block in the workspace, reached only when the runtime
//!   check held.
//! * **T-tables** (every other CPU, and [`Aes128::encrypt_block`]
//!   everywhere): the 32-bit table formulation of Rijndael (Daemen &
//!   Rijmen, *AES Proposal: Rijndael*, §5.2). SubBytes, ShiftRows and
//!   MixColumns of one output column collapse into four lookups in the
//!   tables `TE0..TE3`, which `const fn` builds from `SBOX` at compile
//!   time. A batch runs its N blocks through the rounds in lockstep, so
//!   their lookups overlap, and computes only what byte 0 of each
//!   ciphertext needs: column 0 in round 9, byte 0 in round 10. That is
//!   all Crypto-PAn reads of its PRF. This kernel is also the reference
//!   the AES-NI kernel is tested against.
//!
//! The byte-wise FIPS 197 rounds survive only as a test oracle.
//!
//! **The table path is not constant-time.** Its table indices depend on
//! key and data, so an encryption's timing and cache footprint leak
//! information about both. Like the rest of the crate this is not
//! hardened (see the crate docs).
//!
//! Verified against the FIPS 197 Appendix B/C vectors, NIST SP 800-38A
//! ECB vectors, and the byte-wise oracle on random keys and blocks,
//! through both kernels.

/// AES S-box (FIPS 197 Figure 7).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for the key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiplication by x (i.e. {02}) in GF(2^8) with the AES polynomial.
const fn xtime(a: u8) -> u8 {
    (a << 1) ^ ((a >> 7) * 0x1b)
}

/// Round table rotated right by `rot` bits: entry `x` is the column
/// `(2s, s, s, 3s)` of `s = SBOX[x]`, row 0 in the top byte — what
/// SubBytes then MixColumns make of a row-0 byte.
const fn round_table(rot: u32) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let col = u32::from_be_bytes([xtime(s), s, s, xtime(s) ^ s]);
        table[x] = col.rotate_right(rot);
        x += 1;
    }
    table
}

/// `TE0..TE3`: the round tables for input rows 0..3.
const TE0: [u32; 256] = round_table(0);
const TE1: [u32; 256] = round_table(8);
const TE2: [u32; 256] = round_table(16);
const TE3: [u32; 256] = round_table(24);

/// An AES-128 cipher with an expanded key schedule.
///
/// Whether its batches run on AES-NI is fixed in [`Aes128::new`] by the
/// CPU; both kernels give the same bytes.
///
/// ```
/// use cwa_crypto::Aes128;
/// let key = [0u8; 16];
/// let aes = Aes128::new(&key);
/// let ct = aes.encrypt_block(&[0u8; 16]);
/// assert_eq!(ct[0], 0x66); // first byte of AES-128(0, 0)
/// assert_eq!(aes.encrypt_byte0_batch(&[[0u8; 16]; 2]), [0x66; 2]);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    /// 11 round keys, each as four big-endian column words.
    round_keys: [[u32; 4]; 11],
    /// The AES-NI kernel, present only if this CPU executes AES-NI.
    ni: Option<ni::Kernel>,
}

impl Aes128 {
    /// Expands `key` into the 11 round keys (FIPS 197 §5.2).
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [0u32; 44];
        for (i, word) in key.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                // RotWord + SubWord + Rcon
                let [a, b, c, d] = temp.rotate_left(8).to_be_bytes();
                temp = u32::from_be_bytes([
                    SBOX[a as usize] ^ RCON[i / 4 - 1],
                    SBOX[b as usize],
                    SBOX[c as usize],
                    SBOX[d as usize],
                ]);
            }
            w[i] = w[i - 4] ^ temp;
        }
        let mut round_keys = [[0u32; 4]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            rk.copy_from_slice(&w[4 * r..4 * r + 4]);
        }
        let ni = ni::Kernel::detect(&round_keys);
        Aes128 { round_keys, ni }
    }

    /// Encrypts a single 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let rk = &self.round_keys;
        let mut s = whiten(block, &rk[0]);
        for k in &rk[1..10] {
            s = round(&s, k);
        }
        let mut out = [0u8; 16];
        for (c, bytes) in out.chunks_exact_mut(4).enumerate() {
            let col = u32::from_be_bytes([
                SBOX[(s[c] >> 24) as usize],
                SBOX[(s[(c + 1) % 4] >> 16 & 0xff) as usize],
                SBOX[(s[(c + 2) % 4] >> 8 & 0xff) as usize],
                SBOX[(s[(c + 3) % 4] & 0xff) as usize],
            ]);
            bytes.copy_from_slice(&(col ^ rk[10][c]).to_be_bytes());
        }
        out
    }

    /// Encrypts `N` independent blocks and returns byte 0 of each
    /// ciphertext: `out[i] == self.encrypt_block(&blocks[i])[0]`.
    ///
    /// Runs on AES-NI where the CPU has it, on the T-tables elsewhere.
    pub fn encrypt_byte0_batch<const N: usize>(&self, blocks: &[[u8; 16]; N]) -> [u8; N] {
        match &self.ni {
            Some(ni) => ni.encrypt_byte0_batch(blocks),
            None => self.table_byte0_batch(blocks),
        }
    }

    /// The T-table kernel of [`Aes128::encrypt_byte0_batch`].
    ///
    /// The blocks go through rounds 1–8 in lockstep, so the table
    /// lookups of different blocks overlap instead of queueing behind one
    /// another. Round 9 computes only column 0, and round 10 only byte 0:
    /// a quarter and a sixteenth of a full round.
    fn table_byte0_batch<const N: usize>(&self, blocks: &[[u8; 16]; N]) -> [u8; N] {
        let rk = &self.round_keys;
        let mut states = blocks.map(|b| whiten(&b, &rk[0]));
        for k in &rk[1..9] {
            for s in states.iter_mut() {
                *s = round(s, k);
            }
        }
        states.map(|s| SBOX[(column(&s, 0) ^ rk[9][0]) as usize >> 24] ^ (rk[10][0] >> 24) as u8)
    }
}

/// Loads `block` as four big-endian column words and adds round key 0.
#[inline(always)]
fn whiten(block: &[u8; 16], k: &[u32; 4]) -> [u32; 4] {
    let mut s = [0u32; 4];
    for (c, bytes) in block.chunks_exact(4).enumerate() {
        s[c] = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) ^ k[c];
    }
    s
}

/// SubBytes, ShiftRows and MixColumns for output column `c`: row `r`
/// comes from input column `c + r` (ShiftRows), through table `TEr`.
#[inline(always)]
fn column(s: &[u32; 4], c: usize) -> u32 {
    TE0[(s[c] >> 24) as usize]
        ^ TE1[(s[(c + 1) % 4] >> 16 & 0xff) as usize]
        ^ TE2[(s[(c + 2) % 4] >> 8 & 0xff) as usize]
        ^ TE3[(s[(c + 3) % 4] & 0xff) as usize]
}

/// One full round (1–9) on a column-word state.
#[inline(always)]
fn round(s: &[u32; 4], k: &[u32; 4]) -> [u32; 4] {
    [
        column(s, 0) ^ k[0],
        column(s, 1) ^ k[1],
        column(s, 2) ^ k[2],
        column(s, 3) ^ k[3],
    ]
}

/// The AES-NI kernel: the round keys [`Aes128::new`] expanded, run
/// through the CPU's AES round instructions.
#[cfg(target_arch = "x86_64")]
mod ni {
    use std::arch::x86_64::{
        _mm_aesenc_si128, _mm_aesenclast_si128, _mm_cvtsi128_si32, _mm_set_epi64x, _mm_xor_si128,
    };

    /// The 11 round keys in FIPS 197 byte order. [`Kernel::detect`] is
    /// its one constructor, so a `Kernel` exists only on a CPU that
    /// executes AES-NI.
    #[derive(Clone)]
    pub(super) struct Kernel {
        round_keys: [[u8; 16]; 11],
    }

    impl Kernel {
        /// The kernel for `round_keys` (big-endian column words), if this
        /// CPU has AES-NI.
        pub(super) fn detect(round_keys: &[[u32; 4]; 11]) -> Option<Kernel> {
            is_x86_feature_detected!("aes").then(|| Kernel {
                round_keys: round_keys
                    .map(|rk| std::array::from_fn(|i| (rk[i / 4] >> (24 - 8 * (i % 4))) as u8)),
            })
        }

        /// [`super::Aes128::encrypt_byte0_batch`] on AES-NI.
        #[allow(unsafe_code)]
        pub(super) fn encrypt_byte0_batch<const N: usize>(
            &self,
            blocks: &[[u8; 16]; N],
        ) -> [u8; N] {
            // SAFETY: `byte0_batch` is safe Rust, but it may only run on a
            // CPU with the `aes` feature it is compiled for. `self` exists
            // only if `Kernel::detect`'s runtime check,
            // `is_x86_feature_detected!("aes")`, held.
            unsafe { byte0_batch(&self.round_keys, blocks) }
        }
    }

    /// Byte 0 of each block's ciphertext, all `N` blocks in flight
    /// through each round.
    #[target_feature(enable = "aes")]
    fn byte0_batch<const N: usize>(round_keys: &[[u8; 16]; 11], blocks: &[[u8; 16]; N]) -> [u8; N] {
        // Byte i of the block in byte lane i, as a 16-byte load puts it.
        let load = |bytes: &[u8; 16]| {
            let x = u128::from_le_bytes(*bytes);
            _mm_set_epi64x((x >> 64) as i64, x as i64)
        };
        let rk = round_keys.map(|k| load(&k));
        let mut states = blocks.map(|b| _mm_xor_si128(load(&b), rk[0]));
        for k in &rk[1..10] {
            for s in states.iter_mut() {
                *s = _mm_aesenc_si128(*s, *k);
            }
        }
        states.map(|s| _mm_cvtsi128_si32(_mm_aesenclast_si128(s, rk[10])) as u8)
    }
}

/// Off x86-64 no CPU has the AES-NI kernel, and the T-tables run.
#[cfg(not(target_arch = "x86_64"))]
mod ni {
    /// Uninhabited: there is no AES-NI kernel here.
    #[derive(Clone)]
    pub(super) enum Kernel {}

    impl Kernel {
        pub(super) fn detect(_round_keys: &[[u32; 4]; 11]) -> Option<Kernel> {
            None
        }

        pub(super) fn encrypt_byte0_batch<const N: usize>(
            &self,
            _blocks: &[[u8; 16]; N],
        ) -> [u8; N] {
            match *self {}
        }
    }
}

/// The byte-wise FIPS 197 rounds on a 16-byte state (byte `i` is row
/// `i % 4`, column `i / 4`): the oracle the table kernel is tested
/// against.
#[cfg(test)]
mod bytewise {
    use super::{xtime, Aes128, SBOX};

    /// Round key `r` as FIPS 197 writes it: 16 bytes, column-major.
    pub(super) fn round_key(aes: &Aes128, r: usize) -> [u8; 16] {
        let mut out = [0u8; 16];
        for (c, bytes) in out.chunks_exact_mut(4).enumerate() {
            bytes.copy_from_slice(&aes.round_keys[r][c].to_be_bytes());
        }
        out
    }

    pub(super) fn encrypt_block(aes: &Aes128, block: &[u8; 16]) -> [u8; 16] {
        let mut state = *block;
        add_round_key(&mut state, &round_key(aes, 0));
        for round in 1..10 {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, &round_key(aes, round));
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &round_key(aes, 10));
        state
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        // Row 1: rotate left by 1.
        let t = state[1];
        state[1] = state[5];
        state[5] = state[9];
        state[9] = state[13];
        state[13] = t;
        // Row 2: rotate left by 2.
        state.swap(2, 10);
        state.swap(6, 14);
        // Row 3: rotate left by 3 (= right by 1).
        let t = state[15];
        state[15] = state[11];
        state[11] = state[7];
        state[7] = state[3];
        state[3] = t;
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            let t = col[0] ^ col[1] ^ col[2] ^ col[3];
            state[4 * c] = col[0] ^ t ^ xtime(col[0] ^ col[1]);
            state[4 * c + 1] = col[1] ^ t ^ xtime(col[1] ^ col[2]);
            state[4 * c + 2] = col[2] ^ t ^ xtime(col[2] ^ col[3]);
            state[4 * c + 3] = col[3] ^ t ^ xtime(col[3] ^ col[0]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The AES-NI kernel's byte 0s, or `None` on a CPU without AES-NI.
    fn hardware<const N: usize>(aes: &Aes128, blocks: &[[u8; 16]; N]) -> Option<[u8; N]> {
        aes.ni.as_ref().map(|ni| ni.encrypt_byte0_batch(blocks))
    }

    /// Says so, once per test run, when the hardware half is skipped. The
    /// note goes straight to the stderr handle, which the test harness
    /// does not capture, so a plain `cargo test` shows it.
    fn note_skipped_hardware(aes: &Aes128) {
        static NOTE: std::sync::Once = std::sync::Once::new();
        if aes.ni.is_none() {
            NOTE.call_once(|| {
                use std::io::Write;
                let note = "this CPU has no AES-NI: the hardware kernel is not tested\n";
                let _ = std::io::stderr().write_all(note.as_bytes());
            });
        }
    }

    /// Checks `block` under `aes` through every entry point: the table
    /// kernel, the byte-wise oracle, the batch's byte 0 as dispatched,
    /// and both kernels' byte 0 on their own.
    fn encrypts_to(aes: &Aes128, block: &[u8; 16], expected: &str) {
        assert_eq!(hex(&aes.encrypt_block(block)), expected);
        assert_eq!(hex(&bytewise::encrypt_block(aes, block)), expected);
        assert_eq!(hex(&aes.encrypt_byte0_batch(&[*block])), expected[..2]);
        assert_eq!(hex(&aes.table_byte0_batch(&[*block])), expected[..2]);
        if let Some(byte0) = hardware(aes, &[*block]) {
            assert_eq!(hex(&byte0), expected[..2]);
        }
        note_skipped_hardware(aes);
    }

    /// FIPS 197 Appendix B worked example.
    #[test]
    fn fips197_appendix_b() {
        let key = unhex16("2b7e151628aed2a6abf7158809cf4f3c");
        let pt = unhex16("3243f6a8885a308d313198a2e0370734");
        encrypts_to(&Aes128::new(&key), &pt, "3925841d02dc09fbdc118597196a0b32");
    }

    /// FIPS 197 Appendix C.1 (AES-128 known answer).
    #[test]
    fn fips197_appendix_c1() {
        let key = unhex16("000102030405060708090a0b0c0d0e0f");
        let pt = unhex16("00112233445566778899aabbccddeeff");
        encrypts_to(&Aes128::new(&key), &pt, "69c4e0d86a7b0430d8cdb78070b4c55a");
    }

    /// NIST SP 800-38A F.1.1 (ECB-AES128 encrypt, all four blocks).
    #[test]
    fn sp800_38a_ecb() {
        let key = unhex16("2b7e151628aed2a6abf7158809cf4f3c");
        let aes = Aes128::new(&key);
        let cases = [
            (
                "6bc1bee22e409f96e93d7e117393172a",
                "3ad77bb40d7a3660a89ecaf32466ef97",
            ),
            (
                "ae2d8a571e03ac9c9eb76fac45af8e51",
                "f5d3d58503b9699de785895a96fdbaaf",
            ),
            (
                "30c81c46a35ce411e5fbc1191a0a52ef",
                "43b1cd7f598ece23881b00e3ed030688",
            ),
            (
                "f69f2445df4f9b17ad2b417be66c3710",
                "7b0c785e27e8ad3f8223207104725dd4",
            ),
        ];
        for (pt, ct) in cases {
            encrypts_to(&aes, &unhex16(pt), ct);
        }
        let blocks = cases.map(|(pt, _)| unhex16(pt));
        let firsts = cases.map(|(_, ct)| unhex16(ct)[0]);
        assert_eq!(aes.encrypt_byte0_batch(&blocks), firsts);
        assert_eq!(aes.table_byte0_batch(&blocks), firsts);
        if let Some(byte0) = hardware(&aes, &blocks) {
            assert_eq!(byte0, firsts);
        }
    }

    #[test]
    fn zero_key_zero_block() {
        encrypts_to(
            &Aes128::new(&[0u8; 16]),
            &[0u8; 16],
            "66e94bd4ef8a2c3b884cfa59ca342b2e",
        );
    }

    #[test]
    fn key_schedule_first_and_last_round_keys() {
        // FIPS 197 A.1 key expansion example.
        let key = unhex16("2b7e151628aed2a6abf7158809cf4f3c");
        let aes = Aes128::new(&key);
        assert_eq!(bytewise::round_key(&aes, 0), key);
        assert_eq!(
            hex(&bytewise::round_key(&aes, 10)),
            "d014f9a8c9ee2589e13f0cc8b6630ca6"
        );
    }

    #[test]
    fn different_keys_produce_different_ciphertexts() {
        let pt = [7u8; 16];
        let a = Aes128::new(&[1u8; 16]).encrypt_block(&pt);
        let b = Aes128::new(&[2u8; 16]).encrypt_block(&pt);
        assert_ne!(a, b);
    }

    /// Both kernels against the byte-wise oracle, and the AES-NI kernel
    /// against the T-table kernel: 10,000 random keys, eight random
    /// blocks each, in batches of 1, 2, 4 and 8. On a CPU without AES-NI
    /// the hardware half is skipped, and the test says so.
    #[test]
    fn kernels_match_bytewise_oracle_and_each_other() {
        // SplitMix64: a self-contained source of test keys and blocks.
        let mut state = 0x0005_eed0_fae5_u64;
        let mut next16 = || {
            let mut out = [0u8; 16];
            for half in out.chunks_exact_mut(8) {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                half.copy_from_slice(&(z ^ (z >> 31)).to_le_bytes());
            }
            out
        };
        /// Batches of `N` over `blocks`: the table kernel against the
        /// oracle's byte 0s, the AES-NI kernel against the table kernel,
        /// and the dispatched entry against the oracle.
        fn batches<const N: usize>(aes: &Aes128, blocks: &[[u8; 16]; 8], oracle: &[u8; 8]) {
            for (run, expected) in blocks.chunks_exact(N).zip(oracle.chunks_exact(N)) {
                let run: &[[u8; 16]; N] = run.try_into().unwrap();
                let table = aes.table_byte0_batch(run);
                assert_eq!(table[..], expected[..]);
                if let Some(ni) = hardware(aes, run) {
                    assert_eq!(ni, table);
                }
                assert_eq!(aes.encrypt_byte0_batch(run)[..], expected[..]);
            }
        }
        for _ in 0..10_000 {
            let aes = Aes128::new(&next16());
            let blocks: [[u8; 16]; 8] = std::array::from_fn(|_| next16());
            let oracle = blocks.map(|b| bytewise::encrypt_block(&aes, &b));
            for (block, expected) in blocks.iter().zip(&oracle) {
                assert_eq!(&aes.encrypt_block(block), expected);
            }
            let oracle0 = oracle.map(|ct| ct[0]);
            batches::<1>(&aes, &blocks, &oracle0);
            batches::<2>(&aes, &blocks, &oracle0);
            batches::<4>(&aes, &blocks, &oracle0);
            batches::<8>(&aes, &blocks, &oracle0);
        }
        note_skipped_hardware(&Aes128::new(&[0; 16]));
    }
}
