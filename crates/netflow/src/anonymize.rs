//! Crypto-PAn prefix-preserving IPv4 anonymization.
//!
//! The paper (§2): "*All client IP addresses are prefix-preserving
//! anonymized*". Prefix preservation means that if two real addresses
//! share a k-bit prefix, their anonymized forms share a k-bit prefix too
//! — so routing-prefix-level analyses (persistence, geolocation of
//! prefixes via side tables) remain possible while individual addresses
//! are hidden.
//!
//! This is the classic Crypto-PAn construction (Xu, Fan, Ammar, Moon,
//! ICNP 2002): AES-128 is used as a pseudo-random function; for every
//! prefix length `i` the PRF of the address's first `i` bits (padded with
//! a secret pad) decides whether bit `i` is flipped.
//!
//! Cost: one AES block per bit position, 32 per address. The flip of bit
//! `p` depends only on the top `p` bits, never on an earlier PRF output,
//! so the blocks of one address are independent and go through the AES
//! kernel eight at a time ([`Aes128::encrypt_byte0_batch`]). The same
//! property lets callers skip positions whose flips they already know:
//! [`CachedCryptoPan`] memoizes /16 and /24 masks, and
//! [`CryptoPan::anonymize_prefixes`] walks a sorted run of networks only
//! as deep as each needs, reusing the flips neighbours share.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use cwa_crypto::Aes128;

/// PRF inputs per AES batch. Every count of blocks the memo levels ask
/// for (8, 16, 24, 32) is a multiple of it.
const LANES: u32 = 8;

/// A keyed Crypto-PAn anonymizer.
///
/// ```
/// use cwa_netflow::CryptoPan;
/// use std::net::Ipv4Addr;
/// let cp = CryptoPan::new(&[7u8; 32]);
/// let a = cp.anonymize(Ipv4Addr::new(192, 0, 2, 1));
/// let b = cp.anonymize(Ipv4Addr::new(192, 0, 2, 99));
/// // Same /24 in, same /24 out:
/// assert_eq!(u32::from(a) >> 8, u32::from(b) >> 8);
/// ```
#[derive(Clone)]
pub struct CryptoPan {
    aes: Aes128,
    /// Secret 16-byte pad, itself encrypted from the key's second half.
    pad: [u8; 16],
}

impl CryptoPan {
    /// Creates an anonymizer from a 32-byte key: the first 16 bytes key
    /// the AES PRF, the second 16 bytes (encrypted once) form the secret
    /// pad — as in the reference implementation.
    pub fn new(key: &[u8; 32]) -> Self {
        let mut aes_key = [0u8; 16];
        aes_key.copy_from_slice(&key[..16]);
        let aes = Aes128::new(&aes_key);
        let mut pad_in = [0u8; 16];
        pad_in.copy_from_slice(&key[16..]);
        let pad = aes.encrypt_block(&pad_in);
        CryptoPan { aes, pad }
    }

    /// Anonymizes one IPv4 address, preserving prefix relationships.
    pub fn anonymize(&self, addr: Ipv4Addr) -> Ipv4Addr {
        let orig = u32::from(addr);
        Ipv4Addr::from(orig ^ self.flips_in_range(orig, 0, 32))
    }

    /// Flip mask for bit positions `start..end` (0 = most significant).
    ///
    /// The flip of bit `pos` depends only on the top `pos` bits of
    /// `orig` — the prefix-preservation property — which is what makes
    /// the mask for positions `0..24` cacheable per /24 prefix (see
    /// [`CachedCryptoPan`]). One AES block per position, run through the
    /// kernel [`LANES`] at a time.
    fn flips_in_range(&self, orig: u32, start: u32, end: u32) -> u32 {
        let mut result = 0u32;
        let mut pos = start;
        while pos + LANES <= end {
            let blocks: [[u8; 16]; LANES as usize] =
                std::array::from_fn(|i| self.prf_input(orig, pos + i as u32));
            let prf = self.aes.encrypt_byte0_batch(&blocks);
            for (i, byte) in prf.into_iter().enumerate() {
                result |= flip_bit(byte, pos + i as u32);
            }
            pos += LANES;
        }
        for pos in pos..end {
            result |= self.flip(orig, pos);
        }
        result
    }

    /// The flip of bit `pos` alone, as a mask with at most that bit set.
    fn flip(&self, orig: u32, pos: u32) -> u32 {
        let [prf] = self.aes.encrypt_byte0_batch(&[self.prf_input(orig, pos)]);
        flip_bit(prf, pos)
    }

    /// The PRF input deciding bit `pos`: the first `pos` bits of the
    /// original address followed by bits `pos..128` of the pad.
    fn prf_input(&self, orig: u32, pos: u32) -> [u8; 16] {
        let pad4 = u32::from_be_bytes([self.pad[0], self.pad[1], self.pad[2], self.pad[3]]);
        let keep = high_bits(pos);
        let mut input = self.pad;
        input[..4].copy_from_slice(&((orig & keep) | (pad4 & !keep)).to_be_bytes());
        input
    }

    /// Anonymizes a run of prefixes, each walked only as deep as it
    /// needs: for `(network, len)` the /`len` network of
    /// `anonymize(network)`, which depends on the top `len` bits alone.
    ///
    /// Two networks that share their top `s` bits share the flips of
    /// positions `0..=s`, and each prefix reuses those from the one
    /// before it. On a run sorted by network that is about one AES block
    /// per new node of the prefix trie instead of `len` per prefix. Any
    /// order gives the same networks; only the reuse shrinks.
    ///
    /// # Panics
    ///
    /// If a length exceeds 32.
    pub fn anonymize_prefixes(&self, prefixes: impl IntoIterator<Item = (u32, u8)>) -> Vec<u32> {
        // The previous prefix: (network, depth, flips of positions 0..depth).
        let mut prev: Option<(u32, u32, u32)> = None;
        prefixes
            .into_iter()
            .map(|(network, len)| {
                let depth = u32::from(len);
                assert!(depth <= 32, "prefix length {depth} exceeds 32 bits");
                let (reuse, known) = prev.map_or((0, 0), |(p_net, p_depth, p_flips)| {
                    let shared = ((p_net ^ network).leading_zeros() + 1)
                        .min(p_depth)
                        .min(depth);
                    (shared, p_flips & high_bits(shared))
                });
                let flips = known | self.flips_in_range(network, reuse, depth);
                prev = Some((network, depth, flips));
                (network ^ flips) & high_bits(depth)
            })
            .collect()
    }

    /// De-anonymizes an address produced by [`CryptoPan::anonymize`]
    /// under the same key. (Possible because each flip bit depends only
    /// on the *original* prefix, which can be recovered bit by bit; each
    /// block waits for the bit before it, so nothing batches here.)
    pub fn deanonymize(&self, anon: Ipv4Addr) -> Ipv4Addr {
        let target = u32::from(anon);
        let mut orig = 0u32;
        for pos in 0..32u32 {
            // anonymized bit = original bit ^ flip  ⇒  original = anon ^ flip
            orig |= (target ^ self.flip(orig, pos)) & (1 << (31 - pos));
        }
        Ipv4Addr::from(orig)
    }
}

/// The PRF's most significant bit decides the flip of bit `pos`
/// (counting from the most significant address bit).
fn flip_bit(prf_byte0: u8, pos: u32) -> u32 {
    u32::from(prf_byte0 >> 7) << (31 - pos)
}

/// Mask of the top `n` bits, `n` in `0..=32`.
fn high_bits(n: u32) -> u32 {
    u32::MAX.checked_shl(32 - n).unwrap_or(0)
}

/// Length of the longest common prefix of two addresses, in bits.
pub fn common_prefix_len(a: Ipv4Addr, b: Ipv4Addr) -> u32 {
    (u32::from(a) ^ u32::from(b)).leading_zeros()
}

/// A memoizing wrapper around [`CryptoPan`].
///
/// Crypto-PAn costs 32 AES blocks per address, and the collector
/// anonymizes every client address it stores (one per record, two when
/// neither end is a service prefix). Exactly because the construction is
/// prefix-preserving, the flip mask for bit positions `0..k` depends
/// only on the address's top `k` bits, so three memo levels cut the
/// walk short:
///
/// | lookup | AES blocks | counted as |
/// |---|---|---|
/// | address seen before | 0 | `addr_hits` |
/// | new address in a memoized /24 | 8 (host bits) | `prefix_hits` |
/// | new /24 in a memoized /16 | 16 (bits 16..32) | `misses` |
/// | new /16 | 32 | `misses` |
///
/// A miss is a /24 walk whichever level it starts from, so
/// [`hits`](CachedCryptoPan::hits)`/(hits + misses)` reads the same with
/// or without the /16 level. Output is bit-identical to the uncached
/// [`CryptoPan::anonymize`] — the caches only short-circuit a pure
/// function — so record streams are unchanged by construction
/// (asserted by tests).
///
/// The address and /24 maps are bounded: on reaching capacity they are
/// cleared whole (a deterministic epoch reset, no eviction order to get
/// wrong). The /16 map holds at most 65,536 keys, so it needs no bound.
pub struct CachedCryptoPan {
    inner: CryptoPan,
    /// `addr → anonymized addr`, the full-address memo.
    addrs: HashMap<u32, u32>,
    /// `addr >> 8 → flip mask for bit positions 0..24`.
    prefixes: HashMap<u32, u32>,
    /// `addr >> 16 → flip mask for bit positions 0..16`.
    wide_prefixes: HashMap<u32, u32>,
    addr_cap: usize,
    prefix_cap: usize,
    /// Lookups served from the full-address memo (0 AES blocks).
    pub addr_hits: u64,
    /// Address misses whose /24 flip mask was memoized (8 AES blocks).
    pub prefix_hits: u64,
    /// Lookups that walked bits 16..32 or more (16 or 32 AES blocks).
    pub misses: u64,
    /// Misses whose /16 flip mask was memoized (16 AES blocks).
    pub(crate) wide_hits: u64,
}

impl CachedCryptoPan {
    /// Default bound on the address and /24 maps (~1 M entries ≈ 8 MB
    /// apiece).
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// Wraps an anonymizer with the default cache bounds.
    pub fn new(inner: CryptoPan) -> Self {
        Self::with_capacity(inner, Self::DEFAULT_CAPACITY, Self::DEFAULT_CAPACITY)
    }

    /// Wraps an anonymizer with explicit cache bounds (tests).
    pub fn with_capacity(inner: CryptoPan, addr_cap: usize, prefix_cap: usize) -> Self {
        CachedCryptoPan {
            inner,
            addrs: HashMap::new(),
            prefixes: HashMap::new(),
            wide_prefixes: HashMap::new(),
            addr_cap: addr_cap.max(1),
            prefix_cap: prefix_cap.max(1),
            addr_hits: 0,
            prefix_hits: 0,
            misses: 0,
            wide_hits: 0,
        }
    }

    /// The wrapped anonymizer.
    pub fn inner(&self) -> &CryptoPan {
        &self.inner
    }

    /// Lookups served from the address or /24 memo.
    pub fn hits(&self) -> u64 {
        self.addr_hits + self.prefix_hits
    }

    /// Anonymizes one address through the memo caches. Bit-identical to
    /// `self.inner().anonymize(addr)`.
    pub fn anonymize(&mut self, addr: Ipv4Addr) -> Ipv4Addr {
        Ipv4Addr::from(self.anonymize_u32(u32::from(addr)))
    }

    /// `u32` form of [`anonymize`](CachedCryptoPan::anonymize) — what
    /// columnar callers use directly.
    pub fn anonymize_u32(&mut self, orig: u32) -> u32 {
        if let Some(&anon) = self.addrs.get(&orig) {
            self.addr_hits += 1;
            return anon;
        }
        let high = match self.prefixes.get(&(orig >> 8)) {
            Some(&mask) => {
                self.prefix_hits += 1;
                mask
            }
            None => {
                self.misses += 1;
                let wide = match self.wide_prefixes.get(&(orig >> 16)) {
                    Some(&mask) => {
                        self.wide_hits += 1;
                        mask
                    }
                    None => {
                        let mask = self.inner.flips_in_range(orig, 0, 16);
                        self.wide_prefixes.insert(orig >> 16, mask);
                        mask
                    }
                };
                let mask = wide | self.inner.flips_in_range(orig, 16, 24);
                if self.prefixes.len() >= self.prefix_cap {
                    self.prefixes.clear();
                }
                self.prefixes.insert(orig >> 8, mask);
                mask
            }
        };
        let anon = orig ^ high ^ self.inner.flips_in_range(orig, 24, 32);
        if self.addrs.len() >= self.addr_cap {
            self.addrs.clear();
        }
        self.addrs.insert(orig, anon);
        anon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn cp() -> CryptoPan {
        // A fixed 32-byte key for reproducible tests.
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        CryptoPan::new(&key)
    }

    #[test]
    fn deterministic() {
        let cp = cp();
        let a = Ipv4Addr::new(93, 184, 216, 34);
        assert_eq!(cp.anonymize(a), cp.anonymize(a));
    }

    #[test]
    fn different_keys_differ() {
        let cp1 = CryptoPan::new(&[1u8; 32]);
        let cp2 = CryptoPan::new(&[2u8; 32]);
        let a = Ipv4Addr::new(93, 184, 216, 34);
        assert_ne!(cp1.anonymize(a), cp2.anonymize(a));
    }

    #[test]
    fn prefix_preservation_pairs() {
        let cp = cp();
        let cases = [
            (Ipv4Addr::new(10, 1, 2, 3), Ipv4Addr::new(10, 1, 2, 200)), // /24
            (Ipv4Addr::new(10, 1, 2, 3), Ipv4Addr::new(10, 1, 9, 9)),   // /16-ish
            (Ipv4Addr::new(217, 0, 0, 1), Ipv4Addr::new(217, 0, 128, 1)),
        ];
        for (x, y) in cases {
            let k = common_prefix_len(x, y);
            let ka = common_prefix_len(cp.anonymize(x), cp.anonymize(y));
            assert_eq!(k, ka, "{x} vs {y}: shared {k} bits, anonymized share {ka}");
        }
    }

    #[test]
    fn prefix_preservation_exhaustive_small() {
        // All pairs in a /28: pairwise common-prefix lengths must be
        // preserved exactly.
        let cp = cp();
        let base = u32::from(Ipv4Addr::new(198, 51, 100, 16));
        let addrs: Vec<Ipv4Addr> = (0..16u32).map(|i| Ipv4Addr::from(base + i)).collect();
        let anons: Vec<Ipv4Addr> = addrs.iter().map(|&a| cp.anonymize(a)).collect();
        for i in 0..addrs.len() {
            for j in (i + 1)..addrs.len() {
                assert_eq!(
                    common_prefix_len(addrs[i], addrs[j]),
                    common_prefix_len(anons[i], anons[j]),
                    "pair {i},{j}"
                );
            }
        }
    }

    #[test]
    fn injective_on_sample() {
        let cp = cp();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let addr = Ipv4Addr::from(rng.gen::<u32>());
            seen.insert((addr, cp.anonymize(addr)));
        }
        let inputs: std::collections::HashSet<_> = seen.iter().map(|(a, _)| a).collect();
        let outputs: std::collections::HashSet<_> = seen.iter().map(|(_, b)| b).collect();
        assert_eq!(
            inputs.len(),
            outputs.len(),
            "anonymization must be injective"
        );
    }

    #[test]
    fn roundtrip_deanonymize() {
        let cp = cp();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..1000 {
            let addr = Ipv4Addr::from(rng.gen::<u32>());
            assert_eq!(cp.deanonymize(cp.anonymize(addr)), addr);
        }
    }

    #[test]
    fn output_is_not_identity() {
        let cp = cp();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let changed = (0..1000)
            .filter(|_| {
                let addr = Ipv4Addr::from(rng.gen::<u32>());
                cp.anonymize(addr) != addr
            })
            .count();
        assert!(changed > 950, "only {changed}/1000 addresses changed");
    }

    /// An address in one of a few /16s, at a random /24 and host: most
    /// /24 misses land under a memoized /16.
    fn in_few_wide_prefixes(rng: &mut ChaCha8Rng) -> Ipv4Addr {
        const WIDE: [u32; 3] = [0x5400_0000, 0x8d17_0000, 0xd900_0000];
        Ipv4Addr::from(WIDE[rng.gen_range(0..WIDE.len())] | (rng.gen::<u32>() & 0xFFFF))
    }

    #[test]
    fn cached_matches_uncached_exactly() {
        let cp = cp();
        let mut cached = CachedCryptoPan::new(cp.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        // Random addresses with repeats, shared /24s and shared /16s,
        // visited twice so every memo level gets exercised.
        let addrs: Vec<Ipv4Addr> = (0..3000)
            .map(|i| match i % 3 {
                // cluster in a handful of /24s
                0 => Ipv4Addr::from((rng.gen::<u32>() & 0xFF) | 0x5400_1000),
                1 => in_few_wide_prefixes(&mut rng),
                _ => Ipv4Addr::from(rng.gen::<u32>()),
            })
            .collect();
        for &a in addrs.iter().chain(addrs.iter()) {
            assert_eq!(cached.anonymize(a), cp.anonymize(a), "{a}");
        }
        // Second pass is all address hits; clusters give prefix hits.
        assert!(cached.addr_hits >= 3000, "addr hits {}", cached.addr_hits);
        assert!(cached.prefix_hits > 0, "prefix hits");
        assert!(cached.misses > 0 && cached.misses <= 3000);
        assert!(cached.wide_hits > 500, "/16 hits {}", cached.wide_hits);
        assert!(cached.wide_hits < cached.misses);
    }

    #[test]
    fn new_slash24_under_memoized_slash16_is_one_miss() {
        let cp = cp();
        let mut cached = CachedCryptoPan::new(cp.clone());
        let stats = |c: &CachedCryptoPan| (c.hits(), c.misses, c.wide_hits);
        let cold = Ipv4Addr::new(84, 17, 2, 3);
        assert_eq!(cached.anonymize(cold), cp.anonymize(cold));
        assert_eq!(stats(&cached), (0, 1, 0), "a cold /16 is one miss");
        let sibling = Ipv4Addr::new(84, 17, 200, 9);
        assert_eq!(cached.anonymize(sibling), cp.anonymize(sibling));
        assert_eq!(stats(&cached), (0, 2, 1), "still a miss, served by the /16");
        let neighbour = Ipv4Addr::new(84, 17, 200, 10);
        assert_eq!(cached.anonymize(neighbour), cp.anonymize(neighbour));
        assert_eq!(stats(&cached), (1, 2, 1), "same /24: a prefix hit");
    }

    #[test]
    fn cached_survives_capacity_resets() {
        let cp = cp();
        let mut cached = CachedCryptoPan::with_capacity(cp.clone(), 8, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for i in 0..1000 {
            let a = if i % 2 == 0 {
                Ipv4Addr::from(rng.gen::<u32>())
            } else {
                in_few_wide_prefixes(&mut rng)
            };
            assert_eq!(cached.anonymize(a), cp.anonymize(a), "{a}");
        }
        assert!(cached.wide_hits > 400, "/16 hits {}", cached.wide_hits);
    }

    /// The key of the reference implementation's `sample.cpp` (Xu et al.).
    const REFERENCE_KEY: [u8; 32] = [
        21, 34, 23, 141, 51, 164, 207, 128, 19, 10, 91, 22, 73, 144, 125, 16, 216, 152, 143, 131,
        121, 121, 101, 39, 98, 87, 76, 45, 42, 132, 34, 2,
    ];

    /// Addresses of the reference sample trace and their published
    /// anonymized forms under [`REFERENCE_KEY`].
    const REFERENCE_SAMPLE: [([u8; 4], [u8; 4]); 5] = [
        ([128, 11, 68, 132], [135, 242, 180, 132]),
        ([129, 118, 74, 4], [134, 136, 186, 123]),
        ([130, 132, 252, 244], [133, 68, 164, 234]),
        ([141, 223, 7, 43], [141, 167, 8, 160]),
        ([192, 102, 249, 13], [252, 138, 62, 131]),
    ];

    #[test]
    fn matches_reference_sample() {
        let cp = CryptoPan::new(&REFERENCE_KEY);
        let mut cached = CachedCryptoPan::new(cp.clone());
        // Twice: the second pass is served from the memo.
        for _ in 0..2 {
            for (raw, anon) in REFERENCE_SAMPLE.map(|(r, a)| (Ipv4Addr::from(r), Ipv4Addr::from(a)))
            {
                assert_eq!(cp.anonymize(raw), anon, "{raw}");
                assert_eq!(cached.anonymize(raw), anon, "{raw} through the memo");
                assert_eq!(cp.deanonymize(anon), raw, "{anon}");
            }
        }
        assert_eq!(cached.addr_hits, 5);
    }

    /// The walk's answer for one prefix, from a full 32-block anonymize.
    fn prefix_oracle(cp: &CryptoPan, network: u32, len: u8) -> u32 {
        u32::from(cp.anonymize(Ipv4Addr::from(network))) & high_bits(u32::from(len))
    }

    fn check_anonymize_prefixes(cp: &CryptoPan, prefixes: &[(u32, u8)]) {
        let anons = cp.anonymize_prefixes(prefixes.iter().copied());
        assert_eq!(anons.len(), prefixes.len());
        for (&(network, len), anon) in prefixes.iter().zip(anons) {
            assert_eq!(
                anon,
                prefix_oracle(cp, network, len),
                "{network:#010x}/{len}"
            );
        }
    }

    #[test]
    fn anonymize_prefixes_edge_lengths() {
        let cp = cp();
        let net = u32::from(Ipv4Addr::new(93, 184, 216, 34));
        assert_eq!(cp.anonymize_prefixes([(net, 0)]), vec![0]);
        assert_eq!(
            cp.anonymize_prefixes([(net, 32)]),
            vec![u32::from(cp.anonymize(Ipv4Addr::from(net)))]
        );
        // Depth 0 between deep walks: nothing to reuse on either side.
        check_anonymize_prefixes(
            &cp,
            &[(net, 32), (net, 0), (net, 32), (net + 1, 32), (0, 0)],
        );
    }

    #[test]
    fn anonymize_prefixes_neighbours_sharing_no_bits() {
        let cp = cp();
        check_anonymize_prefixes(
            &cp,
            &[
                (0x7FFF_FC00, 22),
                (0x8000_0000, 22),
                (0x0000_0000, 32),
                (0xFFFF_FFFF, 32),
            ],
        );
    }

    #[test]
    fn anonymize_prefixes_repeated_network() {
        let cp = cp();
        let net = u32::from(Ipv4Addr::new(10, 20, 192, 0));
        check_anonymize_prefixes(
            &cp,
            &[
                (net, 18),
                (net, 18),
                (net, 22),
                (net, 22),
                (net, 12),
                (net, 32),
            ],
        );
    }

    #[test]
    fn anonymize_prefixes_unsorted_input() {
        let cp = cp();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        // Random networks and depths, sorted runs broken up by jumps.
        let prefixes: Vec<(u32, u8)> = (0..500)
            .map(|i| {
                let net = if i % 4 == 0 {
                    rng.gen::<u32>()
                } else {
                    0x5400_0000 | (rng.gen::<u32>() & 0x00FF_FFFF)
                };
                (net, rng.gen_range(0..=32u32) as u8)
            })
            .collect();
        check_anonymize_prefixes(&cp, &prefixes);
        // The same prefixes sorted give the same networks.
        let mut sorted = prefixes.clone();
        sorted.sort_unstable();
        check_anonymize_prefixes(&cp, &sorted);
    }

    #[test]
    fn common_prefix_len_edges() {
        assert_eq!(
            common_prefix_len(Ipv4Addr::new(0, 0, 0, 0), Ipv4Addr::new(255, 0, 0, 0)),
            0
        );
        assert_eq!(
            common_prefix_len(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(1, 2, 3, 4)),
            32
        );
        assert_eq!(
            common_prefix_len(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(1, 2, 3, 5)),
            31
        );
    }
}
