//! The benchmark's only source of randomness.
//!
//! Every random choice — graphs, query keys, update batches, strategy
//! draws — comes from a [`Rng`] stream derived from the `--seed` argument
//! and a fixed stream number, so one seed reproduces one run's inputs.

/// Stream numbers: one per independent random choice.
pub mod stream {
    pub const GRAPH: u64 = 1;
    pub const LINK: u64 = 2;
    pub const MOVES: u64 = 3;
    pub const HISTORY: u64 = 4;
    pub const WRITER: u64 = 5;
    /// The layer sweep draws from `SWEEP..SWEEP + 6`.
    pub const SWEEP: u64 = 8;
    /// Client `c` draws from `CLIENT + c`.
    pub const CLIENT: u64 = 16;
}

/// SplitMix64.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// Draws `0..n` evenly: each round deals every value once, in an order
/// shuffled from the caller's stream.
#[derive(Clone, Debug)]
pub struct Deck {
    order: Vec<usize>,
    next: usize,
}

impl Deck {
    pub fn new(n: usize) -> Deck {
        Deck {
            order: (0..n).collect(),
            next: n,
        }
    }

    pub fn deal(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.order.len() {
            for i in (1..self.order.len()).rev() {
                self.order.swap(i, rng.below(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_deck_deals_every_value_once_per_round() {
        let mut rng = Rng::new(9, 1);
        let mut deck = Deck::new(16);
        for _ in 0..3 {
            let mut round: Vec<usize> = (0..16).map(|_| deck.deal(&mut rng)).collect();
            round.sort_unstable();
            assert_eq!(round, (0..16).collect::<Vec<_>>());
        }
        assert_eq!(Deck::new(1).deal(&mut rng), 0);
    }

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut x = Rng::new(7, 1);
        let mut y = Rng::new(7, 2);
        assert_ne!(x.next_u64(), y.next_u64());
        let mut z = Rng::new(8, 1);
        assert_ne!(Rng::new(7, 1).next_u64(), z.next_u64());
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(1, 1);
        for n in [1usize, 2, 3, 1000] {
            for _ in 0..200 {
                assert!(r.below(n) < n);
            }
        }
    }
}
