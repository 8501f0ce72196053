//! Benes-style controlled-exchange permutation network.
//!
//! Random Modulo feeds the seed-XORed index bits into a Benes network
//! whose switches are driven by the seed-XORed tag bits (paper §4,
//! Fig. 2b). A Benes network built from 2-input exchange switches
//! permutes *bit positions*; combined with the input XOR stage the
//! overall map is, for every control word, a **bijection** on the
//! `2^k`-value index space. Bijectivity is what yields `mbpta-p3`: two
//! lines of the same page (same tag ⇒ same control word) can never
//! collide in a set.
//!
//! This module implements the network as `2k−1` stages of disjoint
//! controlled bit-position swaps, the same expressiveness class as the
//! hardware network (an affine-in-GF(2) permutation per control word).
//!
//! # Switch settings do not depend on the data
//!
//! Every switch reads its setting from the control stream alone: bit
//! `t` of stage `s` is the next low bit of `control`, and when the
//! shifted stream runs dry (`ctrl == 0`) it is refilled with
//! `mix64(control ^ (s << 32) ^ t)`. Whether a refill happens, and what
//! it yields, is a function of `control` and the switch position only
//! — never of the value being routed. So for one control word (one
//! page under one seed, in Random Modulo) the whole network is a fixed
//! permutation of the `k` bit positions.
//!
//! `PermutationNetwork::bit_perm` runs the switch-setting sequence
//! once and records, for every output position, which input position
//! reaches it; `PermutationNetwork::gather` then routes any value by
//! reading those positions. Swapping entries of the position array
//! composes exactly the same transpositions, in the same order, that
//! swapping the value's bits would, so `gather(v, &bit_perm(c))` equals
//! the swap walk for every `v` and `c` (the unit tests check it
//! against that walk for every width).

/// A controlled-exchange permutation network on `k`-bit values.
///
/// # Examples
///
/// ```
/// use tscache_core::placement::PermutationNetwork;
///
/// let net = PermutationNetwork::new(7);
/// // For any control word the map is a bijection on 0..128:
/// let mut seen = vec![false; 128];
/// for v in 0..128u32 {
///     seen[net.apply(v, 0xdead_beef) as usize] = true;
/// }
/// assert!(seen.iter().all(|&b| b));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PermutationNetwork {
    k: u32,
}

impl PermutationNetwork {
    /// Creates a network for `k`-bit values (`k` may be 0, in which
    /// case the network is the identity on the single value 0).
    ///
    /// # Panics
    ///
    /// Panics if `k > 31`.
    pub fn new(k: u32) -> Self {
        assert!(k <= 31, "index width {k} exceeds 31 bits");
        PermutationNetwork { k }
    }

    /// Width of the values this network permutes.
    pub const fn width(&self) -> u32 {
        self.k
    }

    /// Number of exchange stages (`2k−1`, the Benes depth for `k`
    /// wires; 0 when `k < 2`).
    pub const fn stages(&self) -> u32 {
        if self.k < 2 {
            0
        } else {
            2 * self.k - 1
        }
    }

    /// Number of control bits consumed per evaluation.
    pub const fn control_bits(&self) -> u32 {
        // Each stage uses floor(k/2) independent switch controls.
        self.stages() * (self.k / 2)
    }

    /// Applies the permutation selected by `control` to `value`.
    ///
    /// The result is a bijection of the `2^k` value space for every
    /// `control`; the identity when `k < 2`. Random Modulo, which
    /// routes many values under one control, derives the permutation
    /// once and gathers each value through it instead.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `value` has bits above `k`.
    #[inline]
    pub fn apply(&self, value: u32, control: u64) -> u32 {
        self.gather(value, &self.bit_perm(control))
    }

    /// The bit-position permutation the network applies under
    /// `control`: entry `p` is the input bit position that lands on
    /// output position `p` (entries from `k` up are the identity and
    /// never read). Runs every stage's switch settings, refills
    /// included, and swaps entries of a position array where the swap
    /// walk would swap value bits.
    pub(crate) fn bit_perm(&self, control: u64) -> [u8; 32] {
        let mut perm: [u8; 32] = core::array::from_fn(|p| p as u8);
        let k = self.k;
        let mut ctrl = control;
        let switches_per_stage = k / 2;
        for stage in 0..self.stages() {
            // Stage `stage` pairs bit positions (2t+stage, 2t+1+stage)
            // mod k; the pairs are disjoint, so the stage is a valid
            // layer of exchange switches.
            for t in 0..switches_per_stage {
                let take = ctrl & 1;
                ctrl >>= 1;
                if ctrl == 0 {
                    // Refill the control stream deterministically so
                    // deep networks never run out of bits.
                    ctrl = crate::prng::mix64(control ^ ((stage as u64) << 32) ^ t as u64);
                }
                if take == 1 {
                    let i = (2 * t + stage) % k;
                    let j = (2 * t + 1 + stage) % k;
                    perm.swap(i as usize, j as usize);
                }
            }
        }
        perm
    }

    /// Routes `value` through a permutation from `bit_perm`: output
    /// bit `p` is input bit `perm[p]`, for the network's `k` positions.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `value` has bits above `k`.
    #[inline]
    pub(crate) fn gather(&self, value: u32, perm: &[u8; 32]) -> u32 {
        debug_assert!(
            self.k == 0 || value < (1 << self.k),
            "value {value} wider than {} bits",
            self.k
        );
        perm.iter()
            .take(self.k as usize)
            .enumerate()
            .fold(0, |out, (p, &src)| out | ((value >> src) & 1) << p)
    }
}

/// The network as a swap walk on the value itself: the reference that
/// [`PermutationNetwork::apply`] and every placement built on it are
/// checked against.
#[cfg(test)]
pub(crate) fn apply_ref(k: u32, value: u32, control: u64) -> u32 {
    if k < 2 {
        return value;
    }
    let mut x = value;
    let mut ctrl = control;
    for stage in 0..2 * k - 1 {
        for t in 0..k / 2 {
            let take = ctrl & 1;
            ctrl >>= 1;
            if ctrl == 0 {
                ctrl = crate::prng::mix64(control ^ ((stage as u64) << 32) ^ t as u64);
            }
            if take == 1 {
                x = swap_bits(x, (2 * t + stage) % k, (2 * t + 1 + stage) % k);
            }
        }
    }
    x
}

/// Swaps bit positions `i` and `j` of `x` (no-op when the bits are
/// equal).
#[cfg(test)]
fn swap_bits(x: u32, i: u32, j: u32) -> u32 {
    let bit_i = (x >> i) & 1;
    let bit_j = (x >> j) & 1;
    if bit_i == bit_j {
        x
    } else {
        x ^ (1 << i) ^ (1 << j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_bits_works() {
        assert_eq!(swap_bits(0b01, 0, 1), 0b10);
        assert_eq!(swap_bits(0b11, 0, 1), 0b11);
        assert_eq!(swap_bits(0b100, 2, 0), 0b001);
    }

    #[test]
    fn apply_matches_the_swap_walk_for_every_width() {
        use crate::prng::{mix64, Prng, SplitMix64};
        let mut rng = SplitMix64::new(0xbe_4e5);
        // Controls that drain the stream at once (0, 1), after a long
        // zero run (1 << 38), or part-way through (u64::MAX >> 30), so
        // every refill position is exercised, plus random ones.
        let mut controls = vec![0u64, 1, 1 << 38, u64::MAX >> 30, u64::MAX];
        controls.extend((0..24).map(|i| mix64(0x5eed ^ i)));
        for k in 0..=31u32 {
            let net = PermutationNetwork::new(k);
            let mask = if k == 0 { 0 } else { (1u32 << k) - 1 };
            for &c in &controls {
                let perm = net.bit_perm(c);
                for v in (0..64u32).map(|i| i & mask).chain((0..64).map(|_| rng.next_u32() & mask))
                {
                    let want = apply_ref(k, v, c);
                    assert_eq!(net.apply(v, c), want, "k={k} control={c:#x} value={v:#x}");
                    assert_eq!(net.gather(v, &perm), want, "k={k} control={c:#x} value={v:#x}");
                }
            }
        }
    }

    #[test]
    fn bit_perm_is_a_permutation_of_the_width() {
        for k in [2u32, 7, 11, 31] {
            let net = PermutationNetwork::new(k);
            for c in [0u64, 1 << 38, 0xdead_beef] {
                let perm = net.bit_perm(c);
                let mut sorted = perm[..k as usize].to_vec();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..k as u8).collect::<Vec<_>>(), "k={k} control={c:#x}");
                assert!(perm[k as usize..].iter().copied().eq(k as u8..32));
            }
        }
    }

    #[test]
    fn identity_for_tiny_widths() {
        for k in [0u32, 1] {
            let net = PermutationNetwork::new(k);
            for v in 0..(1u32 << k) {
                assert_eq!(net.apply(v, 12345), v);
            }
        }
    }

    #[test]
    fn bijective_for_every_sampled_control_k7() {
        let net = PermutationNetwork::new(7);
        for c in [0u64, 1, 0xff, 0xdead_beef, u64::MAX, 0x0123_4567_89ab_cdef] {
            let mut seen = [false; 128];
            for v in 0..128u32 {
                let out = net.apply(v, c) as usize;
                assert!(!seen[out], "control {c:#x}: collision at {out}");
                seen[out] = true;
            }
        }
    }

    #[test]
    fn bijective_for_every_sampled_control_k11() {
        let net = PermutationNetwork::new(11);
        for c in [3u64, 0xabcdef, u64::MAX / 3] {
            let mut seen = vec![false; 2048];
            for v in 0..2048u32 {
                let out = net.apply(v, c) as usize;
                assert!(!seen[out], "control {c:#x}: collision at {out}");
                seen[out] = true;
            }
        }
    }

    #[test]
    fn different_controls_give_different_permutations() {
        let net = PermutationNetwork::new(7);
        let mut distinct = 0;
        for c in 1..64u64 {
            if (0..128).any(|v| net.apply(v, c) != net.apply(v, 0)) {
                distinct += 1;
            }
        }
        assert!(distinct > 55, "only {distinct}/63 controls differ from control 0");
    }

    #[test]
    fn preserves_popcount() {
        // Bit-position permutations preserve the number of set bits —
        // a structural invariant of the exchange network (the seed XOR
        // stage in RandomModulo is what breaks this symmetry).
        let net = PermutationNetwork::new(7);
        for c in [7u64, 99, 12345] {
            for v in 0..128u32 {
                assert_eq!(net.apply(v, c).count_ones(), v.count_ones());
            }
        }
    }

    #[test]
    fn stage_and_control_counts() {
        let net = PermutationNetwork::new(7);
        assert_eq!(net.stages(), 13);
        assert_eq!(net.control_bits(), 13 * 3);
        assert_eq!(PermutationNetwork::new(1).stages(), 0);
    }
}
