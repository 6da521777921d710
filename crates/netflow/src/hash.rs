//! The workspace's hasher for keys the simulator makes: flow keys in the
//! router cache, routing prefixes in the analysis tables.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate in the style of FxHash: a few cycles per key word
/// where SipHash takes tens. It resists no chosen keys, and needs not:
/// every key comes from the simulator or its side tables, so nothing
/// adversarial reaches these maps. No output may depend on its order
/// (the flow cache sorts on expiry; the analyses count, OR or sort).
#[derive(Default)]
pub struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its best-mixed bits at the top; the table
        // indexes by the low ones.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` hashed with [`KeyHasher`].
pub type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// A `HashSet` hashed with [`KeyHasher`].
pub type KeySet<K> = HashSet<K, BuildHasherDefault<KeyHasher>>;
