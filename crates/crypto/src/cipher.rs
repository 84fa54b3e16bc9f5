//! A deterministic, invertible byte-string cipher (toy Feistel network).
//!
//! NOT SECURE — simulation only (see crate docs).

/// A 128-bit key for the toy cipher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key(pub [u8; 16]);

impl Key {
    /// Derives a key from an application identifier (each application gets
    /// its own key, so applications cannot read each other's data through
    /// the DSSP — the paper's second security requirement).
    pub fn derive(app_id: &str) -> Key {
        let mut k = [0u8; 16];
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in app_id.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        for (i, byte) in k.iter_mut().enumerate() {
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd).wrapping_add(i as u64);
            *byte = (h >> ((i % 8) * 8)) as u8;
        }
        Key(k)
    }
}

/// Deterministic cipher: same key + same plaintext ⇒ same ciphertext.
#[derive(Debug, Clone)]
pub struct DeterministicCipher {
    round_keys: [u64; ROUNDS],
}

const ROUNDS: usize = 4;

impl DeterministicCipher {
    pub fn new(key: Key) -> DeterministicCipher {
        let mut round_keys = [0u64; ROUNDS];
        // The key's two little-endian halves.
        let key = u128::from_le_bytes(key.0);
        let mut state = (key as u64) ^ ((key >> 64) as u64).rotate_left(17);
        for rk in &mut round_keys {
            state ^= state >> 30;
            state = state.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            state ^= state >> 27;
            state = state.wrapping_mul(0x94d0_49bb_1331_11eb);
            state ^= state >> 31;
            *rk = state;
        }
        DeterministicCipher { round_keys }
    }

    /// Encrypts a byte string; output length equals input length plus an
    /// 8-byte whitening block (so even empty inputs produce distinct
    /// per-key ciphertexts).
    pub fn encrypt(&self, plaintext: &[u8]) -> Vec<u8> {
        let mut data = Vec::with_capacity(plaintext.len() + 8);
        data.extend_from_slice(&(plaintext.len() as u64).to_le_bytes());
        data.extend_from_slice(plaintext);
        for (round, rk) in self.round_keys.iter().enumerate() {
            feistel_round(&mut data, *rk, round as u64);
        }
        data
    }

    /// Decrypts; returns `None` if the ciphertext is malformed.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Option<Vec<u8>> {
        if ciphertext.len() < 8 {
            return None;
        }
        let mut data = ciphertext.to_vec();
        for (round, rk) in self.round_keys.iter().enumerate().rev() {
            feistel_round(&mut data, *rk, round as u64);
        }
        let (len, plaintext) = data.split_first_chunk::<8>()?;
        (u64::from_le_bytes(*len) == plaintext.len() as u64).then(|| plaintext.to_vec())
    }
}

/// One unbalanced Feistel round over the whole buffer: a keystream derived
/// from (round key, half A) is XORed into half B; the A/B roles alternate
/// per round. Since half A is untouched by the round, each round is its own
/// inverse, so decryption just replays the rounds in reverse order.
///
/// Both halves are worked as little-endian `u64` words: the digest of A
/// folds in a word per step, and each keystream word covers eight bytes of
/// B. A half's last, partial word is zero-padded for the digest and masked
/// to the bytes it has for the keystream.
fn feistel_round(data: &mut [u8], rk: u64, round: u64) {
    let (first, second) = data.split_at_mut(data.len() / 2);
    let (a, b) = if round.is_multiple_of(2) {
        (&*first, second)
    } else {
        (&*second, first)
    };
    let seed = digest(a, rk ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    xor_keystream(b, seed);
}

/// The keystream seed: `seed` mixed with every word of `a`. Each step is a
/// bijection of the running value for a fixed word and of the word for a
/// fixed running value, so halves differing in one word digest apart.
fn digest(a: &[u8], seed: u64) -> u64 {
    let absorb = |seed: u64, word: u64| {
        let s = (seed ^ word).wrapping_mul(0x100_0000_01b3);
        s ^ (s >> 29)
    };
    let (words, tail) = a.as_chunks::<8>();
    let seed = words
        .iter()
        .fold(seed, |s, w| absorb(s, u64::from_le_bytes(*w)));
    if tail.is_empty() {
        return seed;
    }
    let mut last = [0u8; 8];
    last.iter_mut().zip(tail).for_each(|(l, t)| *l = *t);
    absorb(seed, u64::from_le_bytes(last))
}

/// XORs word `i` of `b` with the mixed `seed + i`.
fn xor_keystream(b: &mut [u8], seed: u64) {
    let word = |i: usize| {
        let mut s = seed.wrapping_add(i as u64);
        s ^= s >> 33;
        s = s.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        s ^ (s >> 29)
    };
    let (words, tail) = b.as_chunks_mut::<8>();
    let full = words.len();
    for (i, w) in words.iter_mut().enumerate() {
        *w = (u64::from_le_bytes(*w) ^ word(i)).to_le_bytes();
    }
    let last = word(full).to_le_bytes();
    tail.iter_mut().zip(last).for_each(|(t, k)| *t ^= k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn cipher() -> DeterministicCipher {
        DeterministicCipher::new(Key::derive("bookstore"))
    }

    #[test]
    fn deterministic() {
        let c = cipher();
        assert_eq!(c.encrypt(b"hello"), c.encrypt(b"hello"));
    }

    #[test]
    fn different_keys_differ() {
        let a = DeterministicCipher::new(Key::derive("app-a"));
        let b = DeterministicCipher::new(Key::derive("app-b"));
        assert_ne!(a.encrypt(b"hello"), b.encrypt(b"hello"));
        assert_ne!(
            a.decrypt(&b.encrypt(b"hello")).as_deref(),
            Some(&b"hello"[..])
        );
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let c = cipher();
        let ct = c.encrypt(b"hello world, this is a test");
        assert_ne!(&ct[8..], b"hello world, this is a test");
    }

    /// The longest plaintext the length sweeps cover: 80 bytes with the
    /// header, so each half ends on every tail length 0..8 and spans up to
    /// five words.
    const SWEPT: usize = 72;

    /// A fixed pseudo-random plaintext of `len` bytes (splitmix64).
    fn noise(len: usize) -> Vec<u8> {
        let mut state = 0x5eed_u64.wrapping_add(len as u64);
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u8
        };
        (0..len).map(|_| next()).collect()
    }

    #[test]
    fn roundtrip_and_length_at_every_tail_length() {
        let c = cipher();
        for p in (0..=SWEPT).map(noise).chain([vec![0; 1000]]) {
            let ct = c.encrypt(&p);
            assert_eq!(ct.len(), p.len() + 8, "length {}", p.len());
            assert_eq!(c.decrypt(&ct), Some(p));
        }
    }

    #[test]
    fn distinct_plaintexts_distinct_ciphertexts() {
        let c = cipher();
        let one: HashSet<_> = (0..=u8::MAX).map(|b| c.encrypt(&[b])).collect();
        assert_eq!(one.len(), 256);
        let two: HashSet<_> = (0..=u16::MAX)
            .map(|v| c.encrypt(&v.to_le_bytes()))
            .collect();
        assert_eq!(two.len(), 65_536);
    }

    /// Every byte is keyed in some round: at each length, only as many
    /// positions as chance allows (1 in 256 each) come out equal to what
    /// went in. A keystream that left a half's last partial word alone
    /// would leave up to seven trailing bytes in the clear.
    #[test]
    fn every_length_leaves_almost_no_byte_unchanged() {
        let c = cipher();
        for len in 0..=SWEPT {
            let mut clear = (len as u64).to_le_bytes().to_vec();
            clear.extend(noise(len));
            let ct = c.encrypt(&clear[8..]);
            let unchanged = clear.iter().zip(&ct).filter(|(p, c)| p == c).count();
            assert!(unchanged <= 3, "length {len}: {unchanged} bytes unchanged");
        }
    }

    /// Flipping any one plaintext byte reaches most of the ciphertext: the
    /// flipped half changes the digest that keys the other half, every
    /// byte of it included — the last, partial word too.
    #[test]
    fn one_flipped_byte_changes_most_of_the_ciphertext() {
        let c = cipher();
        for len in 1..=SWEPT {
            let p = noise(len);
            let ct = c.encrypt(&p);
            for at in 0..len {
                let mut flipped = p.clone();
                flipped[at] ^= 0x01;
                let other = c.encrypt(&flipped);
                let changed = ct.iter().zip(&other).filter(|(a, b)| a != b).count();
                assert!(
                    2 * changed >= ct.len(),
                    "length {len}, byte {at}: {changed} of {} changed",
                    ct.len()
                );
            }
        }
    }

    #[test]
    fn malformed_ciphertext_rejected() {
        let c = cipher();
        assert!(c.decrypt(b"short").is_none());
        let mut ct = c.encrypt(b"hello");
        ct[0] ^= 0xff; // corrupt the length header
        assert!(c.decrypt(&ct).is_none());
    }
}
