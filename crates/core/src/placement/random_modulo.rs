//! Random Modulo placement (Hernandez et al. DAC'16, Trilla et al.
//! IOLTS'16).

use crate::addr::LineAddr;
use crate::geometry::CacheGeometry;
use crate::placement::{MbptaClass, PermutationNetwork, Placement};
use crate::prng::mix64;
use crate::seed::Seed;

/// Slots in the per-page permutation table (a power of two).
const PERM_SLOTS: usize = 16;

/// One per-page table slot: the network's bit permutation under
/// `control`.
#[derive(Debug, Clone, Copy)]
struct PermSlot {
    control: u64,
    perm: [u8; 32],
}

/// Random Modulo (RM): the index bits, XORed with seed bits, enter a
/// Benes-style permutation network driven by the (seed-XORed) tag bits
/// (paper Fig. 2b).
///
/// For a fixed `(tag, seed)` the map index→set is a **bijection**, so
/// two lines in the same page (same tag) are never placed in the same
/// set — exactly modulo's intra-page behaviour, hence the name. Across
/// pages and seeds the permutation varies pseudo-randomly, achieving
/// *partial APOP-fixed randomness* (`mbpta-p3`).
///
/// RM requires the page size to equal or be a multiple of the way size
/// (so the tag is page-stable); this holds for the paper's L1
/// (way = page = 4 KiB) but not its L2, which uses
/// [`HashRp`](crate::placement::HashRp) instead.
///
/// # Examples
///
/// ```
/// use tscache_core::addr::LineAddr;
/// use tscache_core::geometry::CacheGeometry;
/// use tscache_core::placement::{Placement, RandomModulo};
/// use tscache_core::seed::Seed;
///
/// let mut p = RandomModulo::new(&CacheGeometry::paper_l1());
/// let seed = Seed::new(7);
/// // Lines 0 and 1 are in the same page: they can never collide.
/// assert_ne!(p.place(LineAddr::new(0), seed), p.place(LineAddr::new(1), seed));
/// ```
///
/// Every line of one page under one seed shares a control word, so
/// the network is derived once per (page, seed) into a direct-mapped
/// table of bit permutations, keyed by the control word, and each
/// line is placed by gathering its index bits through it. The table
/// is a pure cache of the network's switch settings: placements are
/// exactly [`PermutationNetwork::apply`]'s.
#[derive(Debug, Clone)]
pub struct RandomModulo {
    index_bits: u32,
    sets: u32,
    network: PermutationNetwork,
    perms: [PermSlot; PERM_SLOTS],
}

impl RandomModulo {
    /// Creates Random Modulo placement for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        RandomModulo {
            index_bits: geom.index_bits(),
            sets: geom.sets(),
            network: PermutationNetwork::new(geom.index_bits()),
            // Slot `i` starts keyed `!i`, which indexes slot `15 - i`:
            // no control word matches a slot before it is filled.
            perms: core::array::from_fn(|i| PermSlot { control: !(i as u64), perm: [0; 32] }),
        }
    }
}

impl Placement for RandomModulo {
    fn sets(&self) -> u32 {
        self.sets
    }

    #[inline]
    fn place(&mut self, line: LineAddr, seed: Seed) -> u32 {
        let mask = (self.sets - 1) as u64;
        let s = seed.as_u64();
        // Input stage: index bits XORed with seed bits (Fig. 2b).
        let data = ((line.index_bits(self.index_bits) ^ s) & mask) as u32;
        // Control stage: tag bits XORed with (different) seed bits,
        // expanded into switch controls.
        let tag = line.tag_bits(self.index_bits);
        let control = mix64(tag ^ s.rotate_left(32));
        let slot = &mut self.perms[control as usize % PERM_SLOTS];
        if slot.control != control {
            *slot = PermSlot { control, perm: self.network.bit_perm(control) };
        }
        self.network.gather(data, &slot.perm)
    }

    fn name(&self) -> &'static str {
        "random-modulo"
    }

    fn mbpta_class(&self) -> MbptaClass {
        MbptaClass::PartialApop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn same_page_lines_never_collide() {
        // mbpta-p3(1): null probability of intra-page conflicts, for
        // any seed. A page holds exactly `sets` lines for the paper L1.
        let geom = CacheGeometry::paper_l1();
        let mut p = RandomModulo::new(&geom);
        for s in 0..25u64 {
            let seed = Seed::new(mix64(s));
            let mut seen = vec![false; geom.sets() as usize];
            for i in 0..geom.sets() as u64 {
                // Page 3: lines 3*128 .. 4*128.
                let set = p.place(LineAddr::new(3 * 128 + i), seed) as usize;
                assert!(!seen[set], "seed {seed}: intra-page collision at set {set}");
                seen[set] = true;
            }
        }
    }

    #[test]
    fn cross_page_conflicts_vary_with_seed() {
        // mbpta-p3(2): across pages, full-randomization principles
        // apply — conflicts must not be systematic.
        let mut p = RandomModulo::new(&CacheGeometry::paper_l1());
        let a = LineAddr::new(0x080); // page 1, index 0
        let b = LineAddr::new(0x100); // page 2, index 0
        let mut collide = 0;
        let mut split = 0;
        for s in 0..4000u64 {
            let seed = Seed::new(s);
            if p.place(a, seed) == p.place(b, seed) {
                collide += 1;
            } else {
                split += 1;
            }
        }
        assert!(collide > 0, "cross-page pair never collides");
        assert!(split > 0, "cross-page pair always collides");
        // Expected collision rate is ~1/128; allow generous bounds.
        let rate = collide as f64 / 4000.0;
        assert!(rate < 0.1, "collision rate {rate} too high");
    }

    #[test]
    fn address_relocates_across_seeds() {
        let mut p = RandomModulo::new(&CacheGeometry::paper_l1());
        let line = LineAddr::new(0x1234);
        let distinct: BTreeSet<u32> = (0..300).map(|s| p.place(line, Seed::new(s))).collect();
        assert!(distinct.len() > 64, "{} distinct sets", distinct.len());
    }

    #[test]
    fn uniform_over_sets_across_seeds() {
        let geom = CacheGeometry::paper_l1();
        let mut p = RandomModulo::new(&geom);
        let line = LineAddr::new(0x777);
        let mut counts = vec![0u32; geom.sets() as usize];
        let n = 128_000u64;
        for s in 0..n {
            counts[p.place(line, Seed::new(s)) as usize] += 1;
        }
        let expected = n as f64 / geom.sets() as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi2 < 250.0, "chi2 = {chi2}"); // 127 dof, q(0.999) ≈ 181
    }

    #[test]
    fn place_matches_the_network_across_colliding_pages() {
        use crate::placement::benes::apply_ref;
        // 40 pages whose control words share 4 of the 16 table slots,
        // visited line by line in interleaved order, under two seeds:
        // every placement must be the swap walk's, however often the
        // pages evict each other's permutations.
        let geom = CacheGeometry::paper_l1();
        let k = geom.index_bits();
        let mut p = RandomModulo::new(&geom);
        for seed in [Seed::new(0x1d_2018), Seed::ZERO] {
            let s = seed.as_u64();
            let control = |page: u64| mix64(page ^ s.rotate_left(32));
            let slot = |page: u64| control(page) as usize % PERM_SLOTS;
            let pages: Vec<u64> = (0..).filter(|&page| slot(page) < 4).take(40).collect();
            let mut per_slot = [0; PERM_SLOTS];
            for &page in &pages {
                per_slot[slot(page)] += 1;
            }
            assert!(per_slot[..4].iter().all(|&n| n >= 2), "slots not shared: {per_slot:?}");
            for round in 0..3u64 {
                for i in 0..geom.sets() as u64 {
                    for (n, &page) in pages.iter().enumerate() {
                        let index = (i * 37 + n as u64 + round) % geom.sets() as u64;
                        let line = LineAddr::new((page << k) | index);
                        let data = ((index ^ s) & (geom.sets() as u64 - 1)) as u32;
                        let want = apply_ref(k, data, control(page));
                        assert_eq!(p.place(line, seed), want, "page {page:#x} index {index}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_seed_is_a_valid_layout() {
        let geom = CacheGeometry::paper_l1();
        let mut p = RandomModulo::new(&geom);
        let mut seen = vec![false; geom.sets() as usize];
        for i in 0..128u64 {
            seen[p.place(LineAddr::new(i), Seed::ZERO) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "seed 0 must still be a bijection per page");
    }
}
