//! A fast, deterministic hasher for the enumeration kernels (DESIGN.md §15).
//!
//! The default `std` hasher is SipHash-1-3 behind a per-process random seed:
//! collision-resistant against adversarial keys, but an order of magnitude
//! slower than a multiplicative hash on the tiny keys the algebra actually
//! uses — `NodeId`/`EdgeId` newtypes over `u32`, small id tuples, and path
//! id sequences produced by the generators. None of those are
//! attacker-controlled (they come from the graph, not from query text), so
//! the DoS-resistance is pure overhead on the hot dedup path: every inserted
//! path is hashed by [`PathSet`](crate::pathset::PathSet), and profiles of
//! the closure kernels show hashing as a leading term once cloning is cheap.
//!
//! [`FastHasher`] is the classic rotate-xor-multiply word hasher (the
//! `rustc-hash` recipe): each written word folds into the state as
//! `state = (state.rotl(5) ^ word) * K` with an odd 64-bit constant. It is
//! seedless, so hash values — unlike `RandomState` — are identical across
//! runs and processes. Nothing in the algebra may *depend* on that (result
//! order always comes from insertion order or explicit sorts, pinned by the
//! cross-validation suite), but determinism makes perf numbers reproducible:
//! bucket layouts, probe lengths, and therefore branch behaviour no longer
//! vary run to run.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier from the golden-ratio family; spreads low-entropy ids
/// (consecutive `u32`s) across the high bits that `HashMap` uses.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Seedless rotate-xor-multiply hasher for trusted, small keys.
#[derive(Default)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.fold(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fold(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.fold(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }
}

/// `BuildHasher` for [`FastHasher`]; `Default`-constructible and stateless.
pub(crate) type FastBuild = BuildHasherDefault<FastHasher>;

/// Drop-in `HashMap` with the fast deterministic hasher.
pub type FastMap<K, V> = HashMap<K, V, FastBuild>;

/// Drop-in `HashSet` with the fast deterministic hasher.
pub type FastSet<T> = HashSet<T, FastBuild>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        FastBuild::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        let a = FastBuild::default().hash_one(42u32);
        let b = FastBuild::default().hash_one(42u32);
        assert_eq!(a, b);
    }

    #[test]
    fn distinguishes_nearby_ids() {
        // Consecutive small ids — the common case — must not collide and
        // must differ in the high bits HashMap consumes.
        let hashes: Vec<u64> = (0u32..1000).map(|i| hash_of(&i)).collect();
        let distinct: FastSet<u64> = hashes.iter().copied().collect();
        assert_eq!(distinct.len(), hashes.len());
        let high_bits: FastSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(high_bits.len() > 32, "high bits poorly mixed");
    }

    #[test]
    fn byte_stream_tail_is_hashed() {
        assert_ne!(hash_of(&[1u8, 2, 3]), hash_of(&[1u8, 2, 4]));
        assert_ne!(
            hash_of("abcdefghi".as_bytes()),
            hash_of("abcdefghj".as_bytes())
        );
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FastMap<(u32, u32), usize> = FastMap::default();
        m.insert((1, 2), 3);
        assert_eq!(m.get(&(1, 2)), Some(&3));
        let s: FastSet<u32> = [1, 2, 2, 3].into_iter().collect();
        assert_eq!(s.len(), 3);
    }
}
