//! Deterministic random number streams.
//!
//! Every stochastic component draws from a [`SimRng`] seeded from the
//! run's master seed plus a stable stream label, so adding a new
//! consumer of randomness does not perturb the draws seen by existing
//! components (the classic "stream splitting" discipline for
//! reproducible simulation).
//!
//! The generator is an in-tree ChaCha20 keystream (the RFC 7539 block
//! function, full 20 rounds) — no external crates, byte-for-byte
//! verifiable against the RFC test vectors (see [`chacha20_block`]),
//! and identical on every platform because it is pure 32-bit integer
//! arithmetic.

/// The ChaCha constant words `"expa" "nd 3" "2-by" "te k"`.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// The RFC 7539 §2.3 ChaCha20 block function: 256-bit key, 32-bit block
/// counter, 96-bit nonce, returning the 64-byte keystream block.
///
/// Exposed so the RFC test vectors can be checked directly against the
/// exact primitive [`SimRng`] draws from.
pub fn chacha20_block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
    let mut kw = [0u32; 8];
    for (i, w) in kw.iter_mut().enumerate() {
        *w = u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().unwrap());
    }
    let mut nw = [0u32; 3];
    for (i, w) in nw.iter_mut().enumerate() {
        *w = u32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().unwrap());
    }
    let words = block_words(&kw, [counter, nw[0], nw[1], nw[2]]);
    let mut out = [0u8; 64];
    for (i, w) in words.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
    }
    out
}

fn block_words(key: &[u32; 8], tail: [u32; 4]) -> [u32; 16] {
    let mut s: [u32; 16] = [
        SIGMA[0], SIGMA[1], SIGMA[2], SIGMA[3], key[0], key[1], key[2], key[3], key[4], key[5],
        key[6], key[7], tail[0], tail[1], tail[2], tail[3],
    ];
    let init = s;
    for _ in 0..10 {
        quarter_round(&mut s, 0, 4, 8, 12);
        quarter_round(&mut s, 1, 5, 9, 13);
        quarter_round(&mut s, 2, 6, 10, 14);
        quarter_round(&mut s, 3, 7, 11, 15);
        quarter_round(&mut s, 0, 5, 10, 15);
        quarter_round(&mut s, 1, 6, 11, 12);
        quarter_round(&mut s, 2, 7, 8, 13);
        quarter_round(&mut s, 3, 4, 9, 14);
    }
    for (w, i) in s.iter_mut().zip(init.iter()) {
        *w = w.wrapping_add(*i);
    }
    s
}

/// SplitMix64 step — used only to expand a 64-bit seed into the 256-bit
/// ChaCha key, never as a generator itself.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seedable, splittable random stream backed by a ChaCha20 keystream.
///
/// Draws consume the keystream 8 bytes at a time with a 64-bit block
/// counter (words 12/13 of the ChaCha state, nonce words zero), so a
/// single stream is effectively inexhaustible.
#[derive(Debug, Clone)]
pub struct SimRng {
    key: [u32; 8],
    seed: u64,
    counter: u64,
    buf: [u32; 16],
    /// Next unread word in `buf`; 16 means "refill before reading".
    pos: usize,
}

impl SimRng {
    /// Root stream for a run.
    pub fn from_seed(seed: u64) -> Self {
        let mut st = seed;
        let mut key = [0u32; 8];
        for i in 0..4 {
            let w = splitmix64(&mut st);
            key[2 * i] = w as u32;
            key[2 * i + 1] = (w >> 32) as u32;
        }
        SimRng {
            key,
            seed,
            counter: 0,
            buf: [0; 16],
            pos: 16,
        }
    }

    /// Derive an independent child stream identified by a label.
    ///
    /// The label is hashed (FNV-1a) together with the parent seed, so
    /// `split("disk")` and `split("net")` never collide in practice and
    /// the derivation is stable across runs and platforms.
    pub fn split(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in label.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        SimRng::from_seed(self.seed ^ h)
    }

    fn refill(&mut self) {
        self.buf = block_words(
            &self.key,
            [self.counter as u32, (self.counter >> 32) as u32, 0, 0],
        );
        self.counter = self
            .counter
            .checked_add(1)
            .expect("ChaCha20 block counter exhausted");
        self.pos = 0;
    }

    /// Next 32 bits of the keystream.
    pub fn next_u32(&mut self) -> u32 {
        if self.pos >= 16 {
            self.refill();
        }
        let w = self.buf[self.pos];
        self.pos += 1;
        w
    }

    /// Next 64 bits of the keystream (two consecutive 32-bit words,
    /// low word first — matching the little-endian byte stream).
    pub fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }

    /// Uniform draw in `[0, 1)` (53 mantissa bits).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    ///
    /// Unbiased via Lemire's multiply-shift with rejection.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        let mut m = (self.next_u64() as u128) * (span as u128);
        if (m as u64) < span {
            let t = span.wrapping_neg() % span;
            while (m as u64) < t {
                m = (self.next_u64() as u128) * (span as u128);
            }
        }
        lo + (m >> 64) as u64
    }

    /// Uniform usize in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.range_u64(0, n as u64) as usize
    }

    /// Exponential draw with the given mean (inverse-CDF method).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u: f64 = loop {
            let u = self.unit();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Fisher–Yates shuffle (deterministic given the stream state).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(42);
        let mut b = SimRng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn split_streams_are_stable_and_independent() {
        let root = SimRng::from_seed(7);
        let mut c1 = root.split("disk");
        let mut c1b = SimRng::from_seed(7).split("disk");
        let mut c2 = root.split("net");
        assert_eq!(c1.next_u64(), c1b.next_u64(), "split must be a pure function");
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn unit_in_range() {
        let mut r = SimRng::from_seed(3);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn range_bounds_and_coverage() {
        let mut r = SimRng::from_seed(21);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.range_u64(3, 10);
            assert!((3..10).contains(&v));
            seen[(v - 3) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in a small range drawn");
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = SimRng::from_seed(9);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "sample mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::from_seed(17);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
