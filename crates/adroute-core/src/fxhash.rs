//! A fixed multiplicative hasher for the maps a data packet touches.
//!
//! Every hop of a data packet looks its handle up in a Policy Gateway's
//! handle table, and the source looks the handle up in its open flows.
//! Those keys (handle ids, flow specs) are small integers the simulator
//! allocates itself, never input an adversary chooses, so SipHash's
//! flood resistance buys nothing there and costs most of a lookup. This
//! is the Fx hash (rustc's): per word, rotate, xor and multiply by one odd
//! constant. Its output is the same in every process, but nothing may
//! depend on the iteration order of a map it keys: that order is
//! unspecified.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The Fx word hasher: `h = (h.rotl(5) ^ word) * SEED` per word.
#[derive(Clone, Copy, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}
