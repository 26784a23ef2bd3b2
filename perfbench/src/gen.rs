//! Seeded input generation. Every input of every workload comes from the
//! `--seed` argument through [`Rng`]: the same seed gives the same inputs.

/// SplitMix64 stream: small, stateless per draw, identical everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream for `seed`, decorrelated per `stream` so one seed can feed
    /// several independent generators.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Members per wave: 1–6.
pub const WAVE_SIZES: std::ops::RangeInclusive<usize> = 1..=6;
/// Coupled steps per member: 2–8.
pub const MEMBER_STEPS: std::ops::RangeInclusive<usize> = 2..=8;

/// Waves per cycle. A cycle deals every wave size once: 21 members, which
/// is exactly three full length decks, so a run of whole cycles always
/// holds the same sizes and lengths; only their order and pairing vary
/// with the seed.
pub const CYCLE_WAVES: usize = 6;

/// One submitted member: perturbation seed and coupled steps to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberReq {
    /// Perturbation seed handed to `Ensemble::submit`.
    pub seed: u64,
    /// Coupled steps.
    pub steps: usize,
}

/// The ensemble client's wave generator. Sizes and lengths are dealt from
/// seeded shuffles of full decks (every size once per six waves, every
/// length once per seven members), so each seed orders the waves
/// differently while a run of any seed sees nearly the same mix — the
/// per-run throughput then varies little with the seed.
#[derive(Debug, Clone)]
pub struct WaveGen {
    rng: Rng,
    sizes: Vec<usize>,
    lengths: Vec<usize>,
}

impl WaveGen {
    /// Generator for `seed`.
    pub fn new(seed: u64) -> Self {
        WaveGen {
            rng: Rng::new(seed, 1),
            sizes: Vec::new(),
            lengths: Vec::new(),
        }
    }

    fn deal(rng: &mut Rng, deck: &mut Vec<usize>, full: std::ops::RangeInclusive<usize>) -> usize {
        if deck.is_empty() {
            deck.extend(full);
            rng.shuffle(deck);
        }
        deck.pop().expect("deck refilled above")
    }

    /// The next wave of member requests.
    pub fn next_wave(&mut self) -> Vec<MemberReq> {
        let n = Self::deal(&mut self.rng, &mut self.sizes, WAVE_SIZES);
        (0..n)
            .map(|_| {
                let steps = Self::deal(&mut self.rng, &mut self.lengths, MEMBER_STEPS);
                MemberReq {
                    seed: self.rng.next_u64(),
                    steps,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn waves(seed: u64, n: usize) -> Vec<Vec<MemberReq>> {
        let mut g = WaveGen::new(seed);
        (0..n).map(|_| g.next_wave()).collect()
    }

    #[test]
    fn same_seed_same_waves() {
        assert_eq!(waves(7, 40), waves(7, 40));
        let (mut a, mut b) = (Rng::new(3, 2), Rng::new(3, 2));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
    }

    #[test]
    fn different_seed_different_waves_and_lengths() {
        let (a, b) = (waves(7, 12), waves(8, 12));
        let sizes = |w: &Vec<Vec<MemberReq>>| w.iter().map(Vec::len).collect::<Vec<_>>();
        let lens =
            |w: &Vec<Vec<MemberReq>>| w.iter().flatten().map(|m| m.steps).collect::<Vec<_>>();
        assert_ne!(sizes(&a), sizes(&b));
        assert_ne!(lens(&a), lens(&b));
        let seeds_a: Vec<u64> = a.iter().flatten().map(|m| m.seed).collect();
        assert!(b.iter().flatten().all(|m| !seeds_a.contains(&m.seed)));
    }

    #[test]
    fn every_cycle_deals_the_same_sizes_and_lengths() {
        let mut g = WaveGen::new(5);
        for _ in 0..4 {
            let cycle: Vec<Vec<MemberReq>> = (0..CYCLE_WAVES).map(|_| g.next_wave()).collect();
            let mut sizes: Vec<usize> = cycle.iter().map(Vec::len).collect();
            sizes.sort_unstable();
            assert_eq!(sizes, WAVE_SIZES.collect::<Vec<_>>());
            let mut lens: Vec<usize> = cycle.iter().flatten().map(|m| m.steps).collect();
            lens.sort_unstable();
            let three_decks: Vec<usize> = MEMBER_STEPS.flat_map(|l| [l; 3]).collect();
            assert_eq!(lens, three_decks);
        }
    }

    #[test]
    fn waves_stay_in_range_and_decks_are_balanced() {
        let w = waves(11, 60);
        // Sixty waves = ten full size decks: every size exactly ten times.
        for s in WAVE_SIZES {
            assert_eq!(w.iter().filter(|x| x.len() == s).count(), 10);
        }
        let lens: Vec<usize> = w.iter().flatten().map(|m| m.steps).collect();
        assert!(lens.iter().all(|l| MEMBER_STEPS.contains(l)));
        // Full length decks: counts differ by at most one partial deck.
        let full = lens.len() / 7;
        for l in MEMBER_STEPS {
            let c = lens.iter().filter(|&&x| x == l).count();
            assert!(
                c == full || c == full + 1,
                "length {l}: {c} of {}",
                lens.len()
            );
        }
    }
}
