//! The one hasher of the engine's own maps, and a first-seen key index.
//!
//! `Table`'s primary-key and equality-index maps and the executor's
//! transient maps (group index, hash-join build, the plan memo) are keyed by
//! values the home server already holds, looked up millions of times: the
//! standard library's SipHash costs more there than the probe it guards. A
//! folded 64 × 64 → 128-bit multiply per word hashes an `Int` key in two
//! multiplies. The state starts from a key drawn **once per process** from
//! [`RandomState`], so bucket placement is not predictable from outside,
//! and is the same for every map of the process: two tables with the same
//! rows hash alike, and nothing observable depends on it either way —
//! `HashMap` equality compares contents, no map here is iterated for its
//! order, and every list a query reads is a `Vec` in insertion order.

use scs_sqlkit::Value;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

/// A `HashMap` hashing through [`KeyedHasher`].
pub(crate) type KeyMap<K, V> = HashMap<K, V, KeyedState>;

/// Builds [`KeyedHasher`]s from the process's key.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KeyedState;

impl BuildHasher for KeyedState {
    type Hasher = KeyedHasher;

    fn build_hasher(&self) -> KeyedHasher {
        static KEY: OnceLock<u64> = OnceLock::new();
        KeyedHasher {
            state: *KEY.get_or_init(|| RandomState::new().hash_one(0u8)),
        }
    }
}

/// Word-at-a-time folded-multiply hasher; see the module comment.
pub(crate) struct KeyedHasher {
    state: u64,
}

impl KeyedHasher {
    #[inline]
    fn word(&mut self, x: u64) {
        // An odd constant with no structure (the golden ratio's bits).
        let wide = u128::from(self.state ^ x) * 0x9e37_79b9_7f4a_7c15_u128;
        self.state = (wide as u64) ^ ((wide >> 64) as u64);
    }
}

impl Hasher for KeyedHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        // The length tells a short tail from its zero padding.
        self.word(u64::from_le_bytes(tail) ^ ((bytes.len() as u64) << 56));
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.word(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.word(x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.word(x as u64);
    }

    #[inline]
    fn write_i64(&mut self, x: i64) {
        self.word(x as u64);
    }

    #[inline]
    fn write_isize(&mut self, x: isize) {
        self.word(x as u64);
    }
}

/// Numbers fixed-width keys of borrowed values in first-seen order: the
/// executor's group index and hash-join build. A key is an iterator over
/// its values, copied into the index only when it is new, so nothing is
/// allocated per row.
///
/// Two places hold the ordinals, and a key's place is a function of the key
/// (and of the first `Int` key seen) alone. A key of one `Int` within
/// [`NEAR`] of that first one — the ids a Web application groups and joins
/// by — is numbered through a direct table: no hash, no probe, no compare.
/// Every other key goes through open addressing, at most half full.
pub(crate) struct KeyIndex<'a> {
    width: usize,
    /// The keys, ordinal after ordinal, `width` values each.
    keys: Vec<&'a Value>,
    /// How many there are.
    len: u32,
    /// The first single-`Int` key seen, and ordinal + 1 of each such key by
    /// its zigzagged distance from it (0: not seen).
    first: Option<i64>,
    near: Vec<u32>,
    /// The hashed keys' hashes and ordinals, to grow without rehashing.
    hashed: Vec<(u64, u32)>,
    /// `EMPTY` where free, else a hashed key's ordinal below the high half
    /// of its hash (the low half places it); a power of two long.
    slots: Vec<u64>,
}

/// Zigzagged distances the direct table covers (±`NEAR / 2` ids): what it
/// may cost to clear for a handful of keys far apart.
const NEAR: u64 = 1 << 14;

const EMPTY: u64 = u64::MAX;

/// What a slot holds for the key numbered `ordinal` that hashes to `hash`.
fn slot_of(hash: u64, ordinal: u32) -> u64 {
    (hash & !0xffff_ffff) | u64::from(ordinal)
}

impl<'a> KeyIndex<'a> {
    pub(crate) fn new(width: usize) -> KeyIndex<'a> {
        KeyIndex {
            width,
            keys: Vec::new(),
            len: 0,
            first: None,
            near: Vec::new(),
            hashed: Vec::new(),
            slots: vec![EMPTY; 16],
        }
    }

    /// The key numbered `ordinal`.
    pub(crate) fn key(&self, ordinal: usize) -> &[&'a Value] {
        &self.keys[ordinal * self.width..][..self.width]
    }

    /// `key`'s place in the direct table, if that is where it belongs.
    #[inline]
    fn near_slot<'k>(&self, mut key: impl Iterator<Item = &'k Value>) -> Option<usize> {
        let first = self.first?;
        match key.next() {
            Some(Value::Int(i)) if self.width == 1 => {
                let d = i.wrapping_sub(first);
                let zigzag = ((d << 1) ^ (d >> 63)) as u64;
                (zigzag < NEAR).then_some(zigzag as usize)
            }
            _ => None,
        }
    }

    /// `key`'s ordinal, if it has been seen.
    pub(crate) fn find<'k>(&self, key: impl Iterator<Item = &'k Value> + Clone) -> Option<usize> {
        if let Some(at) = self.near_slot(key.clone()) {
            return self.near.get(at)?.checked_sub(1).map(|o| o as usize);
        }
        self.probe(hash_of(key.clone()), key).ok()
    }

    /// `key`'s ordinal; a new key gets the next one, the number of keys
    /// seen before it.
    #[inline]
    pub(crate) fn ordinal(&mut self, key: impl Iterator<Item = &'a Value> + Clone) -> usize {
        if self.first.is_none() && self.width == 1 {
            if let Some(Value::Int(first)) = key.clone().next() {
                self.first = Some(*first);
            }
        }
        if let Some(at) = self.near_slot(key.clone()) {
            if at >= self.near.len() {
                self.near.resize((at + 1).next_power_of_two(), 0);
            }
            if self.near[at] == 0 {
                self.near[at] = self.push(key) + 1;
            }
            return self.near[at] as usize - 1;
        }
        let hash = hash_of(key.clone());
        let at = match self.probe(hash, key.clone()) {
            Ok(ordinal) => return ordinal,
            Err(at) => at,
        };
        let ordinal = self.push(key);
        self.slots[at] = slot_of(hash, ordinal);
        self.hashed.push((hash, ordinal));
        if self.hashed.len() * 2 > self.slots.len() {
            self.grow();
        }
        ordinal as usize
    }

    /// Numbers the new key `key`.
    fn push(&mut self, key: impl Iterator<Item = &'a Value>) -> u32 {
        let ordinal = self.len;
        // Below `u32::MAX`, which `EMPTY` and the direct table's 0 stand on.
        self.len = ordinal.checked_add(1).expect("fewer than 2^32 keys");
        self.keys.extend(key);
        debug_assert_eq!(self.keys.len(), self.len as usize * self.width);
        ordinal
    }

    /// The ordinal the hash table stores for `key`, or the free slot where
    /// it belongs.
    #[inline]
    fn probe<'k>(
        &self,
        hash: u64,
        key: impl Iterator<Item = &'k Value> + Clone,
    ) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot == EMPTY {
                return Err(at);
            }
            let ordinal = slot as u32;
            if slot == slot_of(hash, ordinal)
                && self.key(ordinal as usize).iter().copied().eq(key.clone())
            {
                return Ok(ordinal as usize);
            }
            at = (at + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let mask = self.slots.len() * 2 - 1;
        self.slots.clear();
        self.slots.resize(mask + 1, EMPTY);
        for &(hash, ordinal) in &self.hashed {
            let mut at = hash as usize & mask;
            while self.slots[at] != EMPTY {
                at = (at + 1) & mask;
            }
            self.slots[at] = slot_of(hash, ordinal);
        }
    }
}

#[inline]
fn hash_of<'k>(key: impl Iterator<Item = &'k Value>) -> u64 {
    let mut hasher = KeyedState.build_hasher();
    for v in key {
        v.hash(&mut hasher);
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_hash_alike_and_near_keys_spread() {
        let h = |v: &Value| KeyedState.hash_one(v);
        assert_eq!(h(&Value::Int(7)), h(&Value::Int(7)));
        assert_eq!(h(&Value::str("bear")), h(&Value::str("bear")));
        // `==` tells them apart, so the hash may (and does).
        assert_ne!(h(&Value::Int(1)), h(&Value::real(1.0)));
        // Consecutive ids must not share low or high bits: a table of 2^k
        // buckets reads either end. (The key differs from run to run: by
        // chance alone 17 of them meet in a bucket once in 10^11 runs.)
        let hashes: Vec<u64> = (0..4096).map(|i| h(&Value::Int(i))).collect();
        for shift in [0, 52] {
            let mut buckets = vec![0u32; 4096];
            for x in &hashes {
                buckets[(x >> shift) as usize & 4095] += 1;
            }
            let worst = buckets.iter().max().unwrap();
            assert!(*worst <= 16, "{worst} of 4096 ids in one bucket");
        }
        // Strings that differ only in length or in a padded tail byte.
        let texts = ["", "\0", "\0\0", "a", "a\0", "abcdefgh", "abcdefgh\0"];
        for (i, a) in texts.iter().enumerate() {
            for b in &texts[..i] {
                assert_ne!(h(&Value::str(*a)), h(&Value::str(*b)), "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn key_index_numbers_keys_in_first_seen_order_across_growth() {
        let values: Vec<Value> = (0..1000).map(|i| Value::Int(i % 500)).collect();
        let tag = [Value::str("x"), Value::str("y")];
        let mut index = KeyIndex::new(2);
        for (i, v) in values.iter().enumerate() {
            let key = [v, &tag[i % 2]];
            // 500 distinct: (i % 500, i % 2) repeats from 500 on.
            assert_eq!(index.ordinal(key.into_iter()), i % 500);
        }
        assert_eq!(index.ordinal([&values[0], &tag[1]].into_iter()), 500);
        assert_eq!(index.key(7), &[&Value::Int(7), &tag[1]]);
        assert_eq!(index.find([&Value::Int(7), &tag[1]].into_iter()), Some(7));
        assert_eq!(index.find([&Value::Int(7), &tag[0]].into_iter()), None);
        // Keys match by `==`: `Int(1)` is not `Real(1.0)`.
        assert_eq!(index.find([&Value::real(7.0), &tag[1]].into_iter()), None);
    }

    /// Single keys take the direct table when they are `Int`s near the
    /// first one and the hash table otherwise; one numbering runs through
    /// both, and `Int(k)` never answers for `Real(k)`.
    #[test]
    fn key_index_numbers_near_far_and_non_int_keys_as_one_sequence() {
        let far = NEAR as i64;
        let values: Vec<Value> = [5, 6, 5 - far, 4, 5 + far, i64::MIN, i64::MAX, -3, 6, 5]
            .into_iter()
            .map(Value::Int)
            .chain([Value::real(5.0), Value::str("5"), Value::real(5.0)])
            .collect();
        let want = [0, 1, 2, 3, 4, 5, 6, 7, 1, 0, 8, 9, 8];
        let mut index = KeyIndex::new(1);
        for (v, ordinal) in values.iter().zip(want) {
            let seen_before = ordinal < index.len as usize;
            assert_eq!(index.find([v].into_iter()).is_some(), seen_before, "{v}");
            assert_eq!(index.ordinal([v].into_iter()), ordinal, "{v}");
            assert_eq!(index.find([v].into_iter()), Some(ordinal), "{v}");
            assert_eq!(index.key(ordinal), &[v]);
        }
        // 5, 6, 4 and -3 sit in the direct table, the rest are hashed.
        assert_eq!(index.hashed.len(), 6);
        // A first key that is no `Int` leaves the direct table unused; the
        // first `Int` after it anchors it.
        let mut index = KeyIndex::new(1);
        for (v, ordinal) in [&values[11], &values[0], &values[10], &values[1], &values[0]]
            .into_iter()
            .zip([0, 1, 2, 3, 1])
        {
            assert_eq!(index.ordinal([v].into_iter()), ordinal, "{v}");
        }
        assert_eq!(index.hashed.len(), 2);
    }

    /// Ids dense enough to grow the direct table many times over.
    #[test]
    fn key_index_direct_table_grows_around_its_first_key() {
        let values: Vec<Value> = (0..6000)
            .map(|i| Value::Int(3000 + (i * 7919) % 6000))
            .collect();
        let mut index = KeyIndex::new(1);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(index.ordinal([v].into_iter()), i);
        }
        for (i, v) in values.iter().enumerate() {
            assert_eq!(index.ordinal([v].into_iter()), i);
            assert_eq!(index.find([v].into_iter()), Some(i));
        }
        assert!(index.hashed.is_empty());
        assert_eq!(index.find([&Value::Int(2999)].into_iter()), None);
        assert_eq!(index.find([&Value::Int(9000)].into_iter()), None);
    }

    #[test]
    fn key_index_of_width_zero_has_one_key() {
        let mut index = KeyIndex::new(0);
        assert_eq!(index.find([].into_iter()), None);
        assert_eq!(index.ordinal([].into_iter()), 0);
        assert_eq!(index.ordinal([].into_iter()), 0);
        assert_eq!(index.find([].into_iter()), Some(0));
        assert!(index.key(0).is_empty());
    }
}
