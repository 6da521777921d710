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
//! so the PRF calls form a binary trie: the node at depth `p` on an
//! address's path decides bit `p`, and addresses that share a prefix
//! share the nodes above it. The blocks one address needs are
//! independent and go through the AES kernel in runs of 8, 4, 2 or 1
//! ([`Aes128::encrypt_byte0_batch`]). [`CachedCryptoPan`] answers a
//! repeated address from a small direct-mapped memo of whole addresses,
//! and otherwise memoizes the trie down to the /24s node by node, so
//! each of those nodes costs one block, paid once, and computes an
//! address's 8 host-bit blocks afresh as one batch;
//! [`CryptoPan::anonymize_prefixes`] walks a sorted run of
//! networks only as deep as each needs, reusing the flips neighbours
//! share.

use std::net::Ipv4Addr;

use cwa_crypto::Aes128;

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
    /// `orig` — the prefix-preservation property — which is what lets
    /// [`CachedCryptoPan`] memoize flips per trie node. One AES block per
    /// position, run through the kernel 8, 4, 2 or 1 at a time.
    fn flips_in_range(&self, orig: u32, start: u32, end: u32) -> u32 {
        let mut result = 0u32;
        let mut pos = start;
        while pos < end {
            let (flips, lanes) = match end - pos {
                8.. => (self.flip_run::<8>(orig, pos), 8),
                4.. => (self.flip_run::<4>(orig, pos), 4),
                2.. => (self.flip_run::<2>(orig, pos), 2),
                _ => (self.flip_run::<1>(orig, pos), 1),
            };
            result |= flips;
            pos += lanes;
        }
        result
    }

    /// The flips of the `N` positions from `pos` on, one batch of `N`
    /// AES blocks.
    fn flip_run<const N: usize>(&self, orig: u32, pos: u32) -> u32 {
        let blocks: [[u8; 16]; N] = std::array::from_fn(|i| self.prf_input(orig, pos + i as u32));
        let prf = self.aes.encrypt_byte0_batch(&blocks);
        (0..N).fold(0, |acc, i| acc | flip_bit(prf[i], pos + i as u32))
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
            orig |= (target ^ self.flip_run::<1>(orig, pos)) & (1 << (31 - pos));
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

/// Eight levels of the prefix trie below one fixed prefix, 48 bytes: the
/// flips of its 255 nodes in heap order — node `(1 << d) | path` decides
/// the position `d` levels below the prefix, for the `d`-bit `path`
/// beneath it — and which of its 128 leaf-parents (depth-7 nodes) are
/// known. Nodes are filled a whole path at a time, root to leaf-parent,
/// so a node is known exactly when a known leaf-parent lies under it.
#[derive(Default)]
struct SubTrie {
    flips: [u64; 4],
    known: u128,
}

impl SubTrie {
    /// How many nodes of `byte`'s path, from the root down, are known
    /// (`0..=8`): one more than the longest prefix its leaf-parent shares
    /// with a known one, and the nearest known one on either side shares
    /// the longest.
    fn known_depth(&self, byte: u32) -> u32 {
        let leaf = byte >> 1;
        if self.known >> leaf & 1 == 1 {
            return 8;
        }
        // Common prefix of two distinct 7-bit leaf-parent numbers.
        let shared = |other: u32| (other ^ leaf).leading_zeros() - 25;
        let below = self.known & (u128::MAX >> (127 - leaf));
        let above = self.known >> leaf;
        let mut depth = 0;
        if below != 0 {
            depth = 1 + shared(127 - below.leading_zeros());
        }
        if above != 0 {
            depth = depth.max(1 + shared(leaf + above.trailing_zeros()));
        }
        depth
    }

    /// The flips along `byte`'s path as one byte, the root's in bit 7.
    fn path_flips(&self, byte: u32) -> u32 {
        (0..8).fold(0, |acc, d| {
            let node = (1 << d) | (byte >> (8 - d));
            (acc << 1) | (self.flips[node as usize / 64] >> (node % 64) & 1) as u32
        })
    }

    /// Stores the flips of `byte`'s path from depth `from` on (`flips` laid
    /// out as [`path_flips`](SubTrie::path_flips) returns them) and marks
    /// the path known. The nodes above `from` must be known already.
    fn fill(&mut self, byte: u32, flips: u32, from: u32) {
        for d in from..8 {
            let node = (1 << d) | (byte >> (8 - d));
            self.flips[node as usize / 64] |= u64::from(flips >> (7 - d) & 1) << (node % 64);
        }
        self.known |= 1 << (byte >> 1);
    }
}

/// The memo of one /16, 96 bytes: the flips of positions 0..16, the
/// sub-trie of positions 16..24, and which /24s beneath it were looked
/// up.
#[derive(Default)]
struct Slash16 {
    /// Flips of positions 0..16, as a mask of the top 16 address bits.
    flips: u32,
    /// Positions 16..24, a path per /24 looked up under this /16.
    trie: SubTrie,
    /// Bit `b` set: the /24 with third byte `b` was looked up.
    seen: [u64; 4],
}

/// Slots of [`CachedCryptoPan`]'s whole-address memo: 8 KiB.
const ADDRESS_SLOTS: usize = 1024;

/// The address memo slot of `orig`: the top bits of a Fibonacci hash,
/// which spreads neighbouring addresses (a server /28, say) over
/// distinct slots.
fn address_slot(orig: u32) -> usize {
    (orig.wrapping_mul(0x9E37_79B1) >> (32 - ADDRESS_SLOTS.trailing_zeros())) as usize
}

/// A memoizing wrapper around [`CryptoPan`]: a direct-mapped memo of
/// whole addresses in front of the PRF trie down to the /24s, kept node
/// by node, so each node above bit 24 costs one AES block, paid by
/// whichever address reaches it first.
///
/// Crypto-PAn costs 32 AES blocks per address, and the collector
/// anonymizes every client address it stores (one per record, two when
/// neither end is a service prefix). A third of those lookups repeat a
/// handful of background-server addresses. The memo holds three levels:
///
/// * 1,024 slots of (address, anonymized address), 8 KiB, indexed by a
///   hash of the address; a lookup of the address a slot holds runs no
///   AES, any other lookup replaces the slot's entry;
/// * a /16 index: a 512-byte table by the top address byte, then a
///   1 KiB table per visited /8;
/// * a 96-byte node per /16 with the flips of positions 0..16, an
///   8-level sub-trie for positions 16..24 and a 256-bit mask of the
///   /24s looked up.
///
/// The host bits (positions 24..32) are not stored in the trie: every
/// lookup the address slots miss computes them afresh, one 8-block batch
/// through the AES kernel, which on AES-NI costs less than reading a
/// per-/24 memo at random. A lookup pays the nodes above bit 24 the trie
/// lacks on top:
///
/// | lookup | AES blocks | counted as |
/// |---|---|---|
/// | its address in its slot | 0 | `hits`, `address_hits` |
/// | its /24 looked up before | 8 | `hits` |
/// | new /24 in a memoized /16, sharing `16 + s` bits with a looked-up /24 | `15 − s` (8 to 15) | `misses` |
/// | new /16 | 32 | `misses` |
///
/// An address in a slot was looked up before, so its /24 was too: an
/// address hit is a /24 hit, and
/// [`hits`](CachedCryptoPan::hits)`/(hits + misses)` counts /24 reuse
/// whatever the slots hold. The memo also counts the AES blocks it
/// computes; the collector publishes them as
/// `netflow.collector.cryptopan_blocks`, and the address hits as
/// `netflow.collector.cryptopan_address_hits`. Output is bit-identical
/// to the uncached [`CryptoPan::anonymize`] — the memo only
/// short-circuits a pure function — so record streams are unchanged by
/// construction (asserted by tests).
///
/// The memo is bounded by its shape, however long the collector runs:
/// the address slots, at most 65,536 /16 nodes (6 MiB) and 256 index
/// tables (256 KiB).
pub struct CachedCryptoPan {
    inner: CryptoPan,
    /// (address, anonymized address) by [`address_slot`]. A slot no
    /// lookup has filled holds an address whose slot it is not.
    addresses: Box<[(u32, u32); ADDRESS_SLOTS]>,
    /// The /16 index by the address's top byte: 1 + the index of that
    /// /8's table in `index_tables`, 0 = none yet.
    index_top: [u16; 256],
    /// Per visited /8, by the address's second byte: 1 + the /16's index
    /// in `slash16s`, 0 = none yet.
    index_tables: Vec<[u32; 256]>,
    slash16s: Vec<Slash16>,
    /// Lookups whose /24 was looked up before (0 or 8 AES blocks).
    hits: u64,
    /// Lookups served from the address slots (0 AES blocks).
    address_hits: u64,
    /// Lookups of a new /24 (8 to 32 AES blocks).
    pub misses: u64,
    /// AES blocks computed.
    pub(crate) blocks: u64,
}

impl CachedCryptoPan {
    /// Wraps an anonymizer with an empty memo.
    pub fn new(inner: CryptoPan) -> Self {
        // Address 0 belongs in slot 0, so slot 0 starts out holding 1,
        // whose slot is another.
        let mut addresses = Box::new([(0, 0); ADDRESS_SLOTS]);
        addresses[address_slot(0)].0 = 1;
        CachedCryptoPan {
            inner,
            addresses,
            index_top: [0; 256],
            index_tables: Vec::new(),
            slash16s: Vec::new(),
            hits: 0,
            address_hits: 0,
            misses: 0,
            blocks: 0,
        }
    }

    /// The wrapped anonymizer.
    pub fn inner(&self) -> &CryptoPan {
        &self.inner
    }

    /// Lookups whose /24 was looked up before.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups served whole from the address slots, without AES (a
    /// subset of [`hits`](CachedCryptoPan::hits)).
    pub fn address_hits(&self) -> u64 {
        self.address_hits
    }

    /// Anonymizes one address through the memo. Bit-identical to
    /// `self.inner().anonymize(addr)`.
    pub fn anonymize(&mut self, addr: Ipv4Addr) -> Ipv4Addr {
        Ipv4Addr::from(self.anonymize_u32(u32::from(addr)))
    }

    /// `u32` form of [`anonymize`](CachedCryptoPan::anonymize).
    pub fn anonymize_u32(&mut self, orig: u32) -> u32 {
        let slot = address_slot(orig);
        let (held, anon) = self.addresses[slot];
        if held == orig {
            self.hits += 1;
            self.address_hits += 1;
            return anon;
        }
        let anon = self.walk(orig);
        self.addresses[slot] = (orig, anon);
        anon
    }

    /// Anonymizes `orig` through the trie, filling the nodes it lacks.
    fn walk(&mut self, orig: u32) -> u32 {
        let b24 = orig >> 8 & 0xFF;
        let (w, cold) = self.slash16(orig);
        let node = &mut self.slash16s[w];
        // The first position whose flip the memo lacks: every position
        // from there on is unknown too, and the host bits always are.
        let seen = &mut node.seen[b24 as usize / 64];
        let bit = 1 << (b24 % 64);
        let start = if *seen & bit != 0 {
            self.hits += 1;
            24
        } else {
            *seen |= bit;
            self.misses += 1;
            if cold {
                0
            } else {
                16 + node.trie.known_depth(b24)
            }
        };
        let flips = self.inner.flips_in_range(orig, start, 32);
        self.blocks += u64::from(32 - start);
        if start < 16 {
            node.flips = flips & 0xFFFF_0000;
        }
        if start < 24 {
            node.trie
                .fill(b24, flips >> 8 & 0xFF, start.saturating_sub(16));
        }
        orig ^ node.flips ^ (node.trie.path_flips(b24) << 8) ^ (flips & 0xFF)
    }

    /// The index of `orig`'s /16 node, and whether it was just added.
    fn slash16(&mut self, orig: u32) -> (usize, bool) {
        let top = &mut self.index_top[(orig >> 24) as usize];
        if *top == 0 {
            self.index_tables.push([0; 256]);
            *top = self.index_tables.len() as u16;
        }
        let slot = &mut self.index_tables[usize::from(*top) - 1][(orig >> 16 & 0xFF) as usize];
        if *slot != 0 {
            return (*slot as usize - 1, false);
        }
        self.slash16s.push(Slash16::default());
        *slot = self.slash16s.len() as u32;
        (self.slash16s.len() - 1, true)
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
        let mut addrs: Vec<Ipv4Addr> = (0..3000)
            .map(|i| match i % 3 {
                // cluster in a handful of /24s
                0 => Ipv4Addr::from((rng.gen::<u32>() & 0xFF) | 0x5400_1000),
                1 => in_few_wide_prefixes(&mut rng),
                _ => Ipv4Addr::from(rng.gen::<u32>()),
            })
            .collect();
        // Then neighbours of those sharing exactly their top 25 to 31
        // bits: the same /24, a host differing at every depth.
        for _ in 0..1000 {
            let base = u32::from(addrs[rng.gen_range(0..3000usize)]);
            let shared = rng.gen_range(25..32u32);
            // Base's top `shared` bits, then the opposite of its next bit.
            let next = 1 << (31 - shared);
            let rest = rng.gen::<u32>() & (next - 1);
            addrs.push(Ipv4Addr::from(
                (base & high_bits(shared)) | (!base & next) | rest,
            ));
        }
        for &a in addrs.iter().chain(addrs.iter()) {
            assert_eq!(cached.anonymize(a), cp.anonymize(a), "{a}");
        }
        let lookups = 2 * addrs.len() as u64;
        assert_eq!(cached.hits() + cached.misses, lookups);
        // The second pass is all hits; clusters and neighbours hit too.
        assert!(cached.hits() > lookups / 2, "hits {}", cached.hits());
        assert!(cached.misses > 0 && cached.misses <= 3000);
        assert!(cached.address_hits() > 0 && cached.address_hits() <= cached.hits());
        // A lookup the address slots miss pays the host bits, the nodes
        // above them at most once: between 8 and 32 blocks.
        let walks = lookups - cached.address_hits();
        assert!(
            (8 * walks..=32 * walks).contains(&cached.blocks),
            "{} blocks for {walks} trie lookups",
            cached.blocks
        );
        // Misses under a memoized /16 skip its top 16 positions.
        assert!(cached.blocks < 32 * cached.misses + 8 * (cached.hits() - cached.address_hits()));
    }

    /// Sixteen heavy hitters among random clients, as the background
    /// servers are among the collector's lookups, with clients forced
    /// into the heavy hitters' slots: every answer is the uncached one,
    /// and an address hit saves exactly its 8 host-bit blocks.
    #[test]
    fn address_slots_match_uncached_under_collisions() {
        let cp = cp();
        let mut cached = CachedCryptoPan::new(cp.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let heavy: Vec<u32> = (0..16).map(|i| 0xCB00_7100 | i).collect();
        let slots: std::collections::HashSet<usize> =
            heavy.iter().map(|&a| address_slot(a)).collect();
        assert_eq!(slots.len(), 16, "a server /28 spreads over 16 slots");
        let mut colliding = 0;
        for i in 0..20_000u32 {
            let addr = match i % 3 {
                0 => heavy[rng.gen_range(0..heavy.len())],
                // A client that evicts a heavy hitter from its slot.
                1 if i % 7 == 1 => loop {
                    let client = rng.gen::<u32>();
                    if slots.contains(&address_slot(client)) {
                        colliding += 1;
                        break client;
                    }
                },
                _ => rng.gen(),
            };
            let (hits, address_hits, blocks) =
                (cached.hits(), cached.address_hits(), cached.blocks);
            let got = cached.anonymize(Ipv4Addr::from(addr));
            assert_eq!(got, cp.anonymize(Ipv4Addr::from(addr)), "lookup {i}");
            if cached.address_hits() > address_hits {
                assert_eq!(cached.hits(), hits + 1, "an address hit is a /24 hit");
                assert_eq!(cached.blocks, blocks, "an address hit runs no AES");
            }
        }
        assert!(colliding > 900, "{colliding} forced collisions");
        assert!(cached.address_hits() > 5000, "{}", cached.address_hits());
        assert!(cached.address_hits() < cached.hits());
    }

    #[test]
    fn fresh_address_slots_answer_nothing() {
        let cp = cp();
        // Each of these lands in slot 0 or holds slot 0's filler.
        for addr in [0u32, 1] {
            let mut cached = CachedCryptoPan::new(cp.clone());
            let a = Ipv4Addr::from(addr);
            assert_eq!(cached.anonymize(a), cp.anonymize(a), "{a}");
            assert_eq!(cached.address_hits(), 0, "{a} first seen");
            assert_eq!(cached.anonymize(a), cp.anonymize(a), "{a}");
            assert_eq!(cached.address_hits(), 1, "{a} seen again");
        }
        assert_ne!(address_slot(0), address_slot(1));
    }

    #[test]
    fn new_slash24_under_memoized_slash16_is_one_miss() {
        let cp = cp();
        let mut cached = CachedCryptoPan::new(cp.clone());
        let stats = |c: &CachedCryptoPan| (c.hits(), c.misses);
        let cold = Ipv4Addr::new(84, 17, 2, 3);
        assert_eq!(cached.anonymize(cold), cp.anonymize(cold));
        assert_eq!(stats(&cached), (0, 1), "a cold /16 is one miss");
        let sibling = Ipv4Addr::new(84, 17, 200, 9);
        assert_eq!(cached.anonymize(sibling), cp.anonymize(sibling));
        assert_eq!(stats(&cached), (0, 2), "still a miss, served by the /16");
        let neighbour = Ipv4Addr::new(84, 17, 200, 10);
        assert_eq!(cached.anonymize(neighbour), cp.anonymize(neighbour));
        assert_eq!(stats(&cached), (1, 2), "same /24: a hit");
    }

    #[test]
    fn each_trie_node_costs_one_block() {
        let cp = cp();
        let mut cached = CachedCryptoPan::new(cp.clone());
        // (address, AES blocks: none if its slot holds it, else its 8
        // host bits plus the trie nodes above bit 24 on its path the memo
        // lacks); position p's node is shared by the addresses that agree
        // on their top p bits.
        let steps = [
            // A cold /16: all 32 positions.
            ([84, 17, 2, 3], 32),
            // The same address: served from its slot.
            ([84, 17, 2, 3], 0),
            // The same /24, whatever the host: only the host bits.
            ([84, 17, 2, 2], 8),
            ([84, 17, 2, 100], 8),
            ([84, 17, 2, 103], 8),
            // A new /24 under the seen /23 84.17.2.0/23: positions 16..24
            // are known, the eight of the new /24 are paid.
            ([84, 17, 3, 9], 8),
            // 200 = 0b1100_1000 leaves the seen /17: only position 16, the
            // /16's own node, is known.
            ([84, 17, 200, 9], 15),
            // A new /16 pays all 32, even in a seen /8.
            ([84, 18, 2, 3], 32),
        ];
        let mut total = 0;
        for (raw, cost) in steps {
            let a = Ipv4Addr::from(raw);
            assert_eq!(cached.anonymize(a), cp.anonymize(a), "{a}");
            total += cost;
            assert_eq!(cached.blocks, total, "{a} costs {cost} blocks");
        }
        assert_eq!((cached.hits(), cached.misses), (4, 4));
        assert_eq!(cached.address_hits(), 1);
    }

    #[test]
    fn known_depth_matches_its_definition() {
        // Node d of a path is known when some known leaf-parent agrees
        // with the path's leaf-parent on its top d bits (of 7).
        let brute = |known: u128, byte: u32| {
            (0..128u32)
                .filter(|l| known >> l & 1 == 1)
                .map(|l| 1 + ((l ^ (byte >> 1)).leading_zeros() - 25))
                .max()
                .unwrap_or(0)
        };
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for round in 0..200 {
            let mut trie = SubTrie::default();
            for _ in 0..round % 5 {
                trie.known |= 1 << rng.gen_range(0..128u32);
            }
            if round % 50 == 0 {
                trie.known = rng.gen();
            }
            for byte in 0..256 {
                assert_eq!(
                    trie.known_depth(byte),
                    brute(trie.known, byte),
                    "{:#x} {byte}",
                    trie.known
                );
            }
        }
    }

    #[test]
    fn memo_layout_sizes() {
        // The sizes the docs quote.
        assert_eq!(std::mem::size_of::<SubTrie>(), 48);
        assert_eq!(std::mem::size_of::<Slash16>(), 96);
        assert_eq!(std::mem::size_of::<[(u32, u32); ADDRESS_SLOTS]>(), 8192);
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
        assert_eq!(cached.hits(), 5);
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
