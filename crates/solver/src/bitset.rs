//! Word-packed chord sets: the data layout of the exact solver's hot path.
//!
//! A [`ChordSet`] is a fixed-width bitset over the `n(n−1)/2` chord slots
//! of a ring instance, packed into `u64` words. Coverage bookkeeping in the
//! branch & bound — "which requests are still unsatisfied", "what does this
//! tile newly cover", "is this candidate's contribution a subset of that
//! one's" — collapses to a handful of AND/ANDNOT/OR/POPCNT instructions per
//! tile instead of a per-chord loop of ring arithmetic.
//!
//! For every `n ≤ 16` the whole set fits in two words; one cache line
//! (8 words) covers rings up to `n = 32`.

use std::fmt;

/// A fixed-width bitset over chord slots.
///
/// Width is set at construction and is an invariant: binary operations
/// require both operands to have the same width (debug-asserted). Bits at
/// positions `>= len()` are never set.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ChordSet {
    words: Vec<u64>,
    nbits: u32,
}

impl ChordSet {
    /// The empty set over `nbits` slots.
    pub fn empty(nbits: u32) -> Self {
        ChordSet {
            words: vec![0; nbits.div_ceil(64) as usize],
            nbits,
        }
    }

    /// The full set `{0, …, nbits−1}`.
    pub fn full(nbits: u32) -> Self {
        let mut s = Self::empty(nbits);
        for (i, w) in s.words.iter_mut().enumerate() {
            let lo = (i as u32) * 64;
            let in_word = nbits.saturating_sub(lo).min(64);
            *w = match in_word {
                0 => 0,
                64 => u64::MAX,
                k => (1u64 << k) - 1,
            };
        }
        s
    }

    /// Number of slots (bit width).
    #[inline]
    pub fn len(&self) -> u32 {
        self.nbits
    }

    /// Whether no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Sets bit `i`.
    #[inline]
    pub fn insert(&mut self, i: u32) {
        debug_assert!(i < self.nbits, "bit {i} out of width {}", self.nbits);
        self.words[(i / 64) as usize] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn remove(&mut self, i: u32) {
        debug_assert!(i < self.nbits, "bit {i} out of width {}", self.nbits);
        self.words[(i / 64) as usize] &= !(1u64 << (i % 64));
    }

    /// Whether bit `i` is set.
    #[inline]
    pub fn contains(&self, i: u32) -> bool {
        debug_assert!(i < self.nbits, "bit {i} out of width {}", self.nbits);
        self.words[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    /// Number of set bits.
    #[inline]
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Lowest set bit, if any.
    #[inline]
    pub fn first_set(&self) -> Option<u32> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some((i as u32) * 64 + w.trailing_zeros());
            }
        }
        None
    }

    /// `self ∪= other`.
    #[inline]
    pub fn union_with(&mut self, other: &ChordSet) {
        debug_assert_eq!(self.nbits, other.nbits);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self ∩= other`.
    #[inline]
    pub fn intersect_with(&mut self, other: &ChordSet) {
        debug_assert_eq!(self.nbits, other.nbits);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self −= other` (ANDNOT).
    #[inline]
    pub fn subtract(&mut self, other: &ChordSet) {
        debug_assert_eq!(self.nbits, other.nbits);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Writes `self ∩ other` into `out` (no allocation).
    #[inline]
    pub fn intersection_into(&self, other: &ChordSet, out: &mut ChordSet) {
        debug_assert_eq!(self.nbits, other.nbits);
        debug_assert_eq!(self.nbits, out.nbits);
        for ((o, a), b) in out.words.iter_mut().zip(&self.words).zip(&other.words) {
            *o = a & b;
        }
    }

    /// `|self ∩ other|` without materializing the intersection.
    #[inline]
    pub fn intersection_count(&self, other: &ChordSet) -> u32 {
        debug_assert_eq!(self.nbits, other.nbits);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones())
            .sum()
    }

    /// Whether the sets share any bit.
    #[inline]
    pub fn intersects(&self, other: &ChordSet) -> bool {
        debug_assert_eq!(self.nbits, other.nbits);
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Whether `self ⊆ other`.
    #[inline]
    pub fn is_subset_of(&self, other: &ChordSet) -> bool {
        debug_assert_eq!(self.nbits, other.nbits);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Overwrites word `wi` with `w`, which sets no bit at or above
    /// `len()`.
    #[inline]
    pub(crate) fn set_word(&mut self, wi: usize, w: u64) {
        self.words[wi] = w;
    }

    /// Clears all bits (width unchanged).
    #[inline]
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Iterates set bits in increasing order.
    pub fn iter(&self) -> SetBits<'_> {
        SetBits {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The raw words (low bit of word 0 is slot 0).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

impl fmt::Debug for ChordSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChordSet{{")?;
        for (k, i) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}/{}", self.nbits)
    }
}

/// Word-packed per-chord multiplicities: the λ-fold sibling of
/// [`ChordSet`].
///
/// Each chord owns a `BITS`-bit lane holding its *residual* demand — how
/// many more times it must be covered. Three widths are in use: 2-bit
/// lanes (32 per word) hold demands ≤ 3, 4-bit lanes (16 per word)
/// demands ≤ 15, 16-bit lanes (4 per word) demands ≤ 65,535; `BITS` must
/// divide 64. Placing a tile is one masked subtract per word: lanes that
/// are covered by the tile *and* still nonzero each lose exactly 1, which
/// cannot borrow into the neighbouring lane because every decremented lane
/// is ≥ 1. "Fully covered" is the lane-wise compare against zero, and
/// residual-demand popcounts fall out of the mask that drives the subtract.
///
/// Word `w` lane `i` (chord `PER_WORD·w + i`) occupies bits `BITS·i`
/// (low) to `BITS·i + BITS − 1` (high); [`LaneSet::LOW`] selects the low
/// bit of every lane.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct LaneSet<const BITS: u32> {
    words: Vec<u64>,
    nlanes: u32,
}

impl<const BITS: u32> LaneSet<BITS> {
    /// Lanes per `u64` word.
    pub const PER_WORD: u32 = 64 / BITS;

    /// Low bit of every lane of a word (`0x5555…` at 2 bits, `0x1111…`
    /// at 4).
    pub const LOW: u64 = u64::MAX / ((1 << BITS) - 1);

    /// The largest residual a lane holds.
    pub const MAX: u32 = (1 << BITS) - 1;

    /// One [`LaneSet::LOW`] bit per nonzero lane of word `w`:
    /// `(w | w >> 1) & LOW` at 2 bits, `(w | w >> 1 | w >> 2 | w >> 3) &
    /// LOW` at 4.
    #[inline]
    pub fn nonzero(w: u64) -> u64 {
        let mut any = w;
        for s in 1..BITS {
            any |= w >> s;
        }
        any & Self::LOW
    }

    /// All-zero residuals over `nlanes` chord slots.
    pub fn zero(nlanes: u32) -> Self {
        LaneSet {
            words: vec![0; nlanes.div_ceil(Self::PER_WORD) as usize],
            nlanes,
        }
    }

    /// Packs per-chord residual counts (each ≤ [`LaneSet::MAX`]) into
    /// lanes.
    pub fn from_counts(counts: &[u32]) -> Self {
        let mut s = Self::zero(counts.len() as u32);
        for (i, &v) in counts.iter().enumerate() {
            s.set(i as u32, v);
        }
        s
    }

    /// Number of lanes (chord slots).
    #[inline]
    pub fn len(&self) -> u32 {
        self.nlanes
    }

    /// Whether the set has zero lanes (an empty chord universe).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nlanes == 0
    }

    /// Whether every lane is zero — the "fully covered" test.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Lane `i`'s residual value.
    #[inline]
    pub fn get(&self, i: u32) -> u32 {
        debug_assert!(i < self.nlanes, "lane {i} out of width {}", self.nlanes);
        let w = self.words[(i / Self::PER_WORD) as usize];
        (w >> (BITS * (i % Self::PER_WORD)) & Self::MAX as u64) as u32
    }

    /// Sets lane `i` to `v` (≤ [`LaneSet::MAX`]).
    #[inline]
    pub fn set(&mut self, i: u32, v: u32) {
        debug_assert!(i < self.nlanes, "lane {i} out of width {}", self.nlanes);
        debug_assert!(
            v <= Self::MAX,
            "residual {v} does not fit a {BITS}-bit lane"
        );
        let w = &mut self.words[(i / Self::PER_WORD) as usize];
        let sh = BITS * (i % Self::PER_WORD);
        *w = (*w & !((Self::MAX as u64) << sh)) | ((v as u64) << sh);
    }

    /// Total residual demand: the sum of every lane.
    #[inline]
    pub fn total(&self) -> u32 {
        self.words
            .iter()
            .map(|&w| {
                (0..BITS)
                    .map(|k| (w >> k & Self::LOW).count_ones() << k)
                    .sum::<u32>()
            })
            .sum()
    }

    /// Number of lanes still nonzero — the residual-demand popcount.
    #[inline]
    pub fn count_nonzero(&self) -> u32 {
        self.words
            .iter()
            .map(|&w| Self::nonzero(w).count_ones())
            .sum()
    }

    /// Lowest nonzero lane, if any.
    #[inline]
    pub fn first_nonzero(&self) -> Option<u32> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some((i as u32) * Self::PER_WORD + w.trailing_zeros() / BITS);
            }
        }
        None
    }

    /// Places a tile on word `wi`: every lane selected by `mask_low`
    /// (low-bit positions, as a tile's lane mask) that is still nonzero
    /// is decremented by exactly 1 — the saturating masked subtract.
    /// Returns the subtracted word (one [`LaneSet::LOW`] bit per
    /// decremented lane), which the caller stores for
    /// [`LaneSet::unplace_word`] and whose popcount is the tile's new
    /// coverage in this word.
    #[inline]
    pub fn place_word(&mut self, wi: usize, mask_low: u64) -> u64 {
        debug_assert_eq!(mask_low & !Self::LOW, 0, "mask must use low-bit lanes");
        let r = self.words[wi];
        // Every subtracted lane is ≥ 1, so the word-wide subtract cannot
        // borrow across a lane boundary.
        let sub = Self::nonzero(r) & mask_low;
        self.words[wi] = r - sub;
        sub
    }

    /// Reverts a [`LaneSet::place_word`] with the word it returned. The
    /// add cannot carry across lanes: each re-incremented lane was
    /// decremented from ≥ 1 by the matching place.
    #[inline]
    pub fn unplace_word(&mut self, wi: usize, sub: u64) {
        debug_assert_eq!(sub & !Self::LOW, 0, "undo word must use low-bit lanes");
        debug_assert_eq!(
            Self::nonzero(!self.words[wi]) & sub,
            sub,
            "re-incrementing a saturated lane"
        );
        self.words[wi] += sub;
    }

    /// The raw lane words (lane 0 of word 0 is chord 0).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

impl<const BITS: u32> fmt::Debug for LaneSet<BITS> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LaneSet{{")?;
        let mut first = true;
        for i in 0..self.nlanes {
            let v = self.get(i);
            if v > 0 {
                if !first {
                    write!(f, ",")?;
                }
                write!(f, "{i}:{v}")?;
                first = false;
            }
        }
        write!(f, "}}/{}", self.nlanes)
    }
}

/// Iterator over the set bits of a [`ChordSet`].
pub struct SetBits<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for SetBits<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some((self.word_idx as u32) * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Word-boundary widths: 63 (one partial word), 64 (one exact word),
    /// 65 (straddling two words) — exactly the widths where masking bugs
    /// live. 65 is also a real instance width: `n = 12` has 66 chords.
    #[test]
    fn width_boundaries_full_and_count() {
        for nbits in [1u32, 63, 64, 65, 66, 127, 128, 129] {
            let full = ChordSet::full(nbits);
            assert_eq!(full.count(), nbits, "width {nbits}");
            assert_eq!(full.iter().count() as u32, nbits, "width {nbits}");
            assert_eq!(full.first_set(), Some(0), "width {nbits}");
            // The top word carries no stray bits above `nbits`.
            let bits_in_top = nbits - 64 * (nbits / 64 - (nbits % 64 == 0) as u32);
            let top = *full.words().last().unwrap();
            assert_eq!(top.count_ones(), bits_in_top, "width {nbits} top word");
            let mut emptied = full.clone();
            emptied.subtract(&full);
            assert!(emptied.is_empty(), "width {nbits}");
        }
    }

    #[test]
    fn insert_remove_contains_across_boundary() {
        for nbits in [63u32, 64, 65] {
            let mut s = ChordSet::empty(nbits);
            for i in [0, nbits / 2, nbits - 1] {
                assert!(!s.contains(i));
                s.insert(i);
                assert!(s.contains(i), "width {nbits} bit {i}");
            }
            assert_eq!(s.count(), 3);
            s.remove(nbits - 1);
            assert!(!s.contains(nbits - 1));
            assert_eq!(s.count(), 2);
        }
    }

    #[test]
    fn word_ops_at_width_65() {
        // Bits 63 and 64 are adjacent slots in different words.
        let mut a = ChordSet::empty(65);
        a.insert(63);
        a.insert(64);
        let mut b = ChordSet::empty(65);
        b.insert(64);
        b.insert(0);

        assert_eq!(a.intersection_count(&b), 1);
        assert!(a.intersects(&b));
        assert!(!b.is_subset_of(&a));

        let mut inter = ChordSet::empty(65);
        a.intersection_into(&b, &mut inter);
        assert_eq!(inter.iter().collect::<Vec<_>>(), vec![64]);
        assert!(inter.is_subset_of(&a) && inter.is_subset_of(&b));

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![0, 63, 64]);

        let mut d = u.clone();
        d.subtract(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![63]);
    }

    #[test]
    fn first_set_scans_past_zero_words() {
        let mut s = ChordSet::empty(129);
        assert_eq!(s.first_set(), None);
        s.insert(128);
        assert_eq!(s.first_set(), Some(128));
        s.insert(70);
        assert_eq!(s.first_set(), Some(70));
        s.insert(3);
        assert_eq!(s.first_set(), Some(3));
    }

    #[test]
    fn subset_reflexive_and_strictness() {
        let mut a = ChordSet::empty(64);
        a.insert(5);
        a.insert(60);
        let mut b = a.clone();
        assert!(a.is_subset_of(&b) && b.is_subset_of(&a), "reflexive");
        b.insert(7);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a), "strict superset detected");
    }

    #[test]
    fn iter_matches_contains() {
        let mut s = ChordSet::empty(100);
        let picks = [0u32, 1, 31, 32, 63, 64, 65, 98, 99];
        for &i in &picks {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), picks.to_vec());
        assert_eq!(s.count() as usize, picks.len());
    }

    /// Lane-boundary widths: one lane short of, at, and one past each
    /// word edge (32 lanes per word at 2 bits, 16 at 4, 4 at 16), the λ-fold
    /// analogue of the bitset width-boundary suite. 66 is a real instance
    /// width (`n = 12` has 66 chords).
    fn lane_boundaries<const B: u32>(widths: &[u32]) {
        let levels = LaneSet::<B>::MAX + 1;
        for &nlanes in widths {
            let counts: Vec<u32> = (0..nlanes).map(|i| i % levels).collect();
            let s = LaneSet::<B>::from_counts(&counts);
            let ctx = format!("{B}-bit lanes, width {nlanes}");
            assert_eq!(s.len(), nlanes, "{ctx}");
            for i in 0..nlanes {
                assert_eq!(s.get(i), i % levels, "{ctx} lane {i}");
            }
            assert_eq!(s.total(), counts.iter().sum::<u32>(), "{ctx}");
            assert_eq!(
                s.count_nonzero(),
                counts.iter().filter(|&&v| v > 0).count() as u32,
                "{ctx}"
            );
            assert_eq!(
                s.first_nonzero(),
                counts.iter().position(|&v| v > 0).map(|p| p as u32),
                "{ctx}"
            );
            assert_eq!(s.is_zero(), nlanes == 1, "{ctx}");
        }
    }

    #[test]
    fn lane_width_boundaries() {
        lane_boundaries::<2>(&[1, 31, 32, 33, 63, 64, 65, 66]);
        lane_boundaries::<4>(&[1, 15, 16, 17, 31, 32, 33, 66]);
        lane_boundaries::<16>(&[1, 3, 4, 5, 7, 8, 9, 66]);
    }

    #[test]
    fn lane_set_get_roundtrip() {
        let mut s = LaneSet::<2>::zero(65);
        for (i, v) in [(0u32, 3u32), (31, 1), (32, 2), (33, 3), (63, 2), (64, 1)] {
            s.set(i, v);
            assert_eq!(s.get(i), v, "lane {i}");
        }
        // Neighbouring lanes are untouched by a 2-bit write.
        assert_eq!(s.get(1), 0);
        assert_eq!(s.get(30), 0);
        assert_eq!(s.get(34), 0);
        s.set(33, 0);
        assert_eq!(s.get(33), 0);
        assert_eq!(s.get(32), 2, "clearing a lane leaves its neighbours");
        assert_eq!(s.get(34), 0);

        let mut w = LaneSet::<4>::zero(33);
        for (i, v) in [(0u32, 15u32), (15, 9), (16, 15), (17, 4), (32, 15)] {
            w.set(i, v);
            assert_eq!(w.get(i), v, "4-bit lane {i}");
        }
        assert_eq!((w.get(1), w.get(14), w.get(18), w.get(31)), (0, 0, 0, 0));
        w.set(16, 0);
        assert_eq!((w.get(15), w.get(16), w.get(17)), (9, 0, 4));
    }

    /// Lanes 0..4 hold `counts`; the mask covers lanes 0, 2 and 3, and
    /// lane 3 is zero. A place decrements exactly the live masked lanes
    /// (its popcount is the new coverage), and the undo restores them.
    fn place_decrements_live_masked<const B: u32>(counts: [u32; 4]) {
        assert_eq!(counts[3], 0);
        let mut s = LaneSet::<B>::from_counts(&counts);
        let mask = 1u64 | 1 << (2 * B) | 1 << (3 * B);
        let sub = s.place_word(0, mask);
        // Lane 3 is already zero: saturation keeps it out of the
        // subtract, so new coverage is the two live masked lanes.
        assert_eq!(sub, 1u64 | 1 << (2 * B), "{B}-bit");
        assert_eq!(sub.count_ones(), 2, "coverage popcount");
        assert_eq!(
            (s.get(0), s.get(1), s.get(2), s.get(3)),
            (counts[0] - 1, counts[1], counts[2] - 1, 0),
            "{B}-bit: masked live lanes lost exactly 1; others untouched"
        );
        s.unplace_word(0, sub);
        assert_eq!(s, LaneSet::<B>::from_counts(&counts));
    }

    #[test]
    fn place_word_decrements_only_live_masked_lanes() {
        place_decrements_live_masked::<2>([3, 2, 1, 0]);
        place_decrements_live_masked::<4>([15, 7, 1, 0]);
        place_decrements_live_masked::<16>([65_535, 7, 1, 0]);
    }

    /// A full word of residual-1 lanes, then residuals `1..=MAX` across a
    /// word edge: subtracting whole masks must decrement every lane
    /// without any lane borrowing from its neighbour (which would show up
    /// as all-ones garbage), and the undo must restore the word exactly.
    fn never_borrows<const B: u32>() {
        let per_word = LaneSet::<B>::PER_WORD;
        let low = LaneSet::<B>::LOW;
        let mut s = LaneSet::<B>::from_counts(&vec![1; per_word as usize]);
        let sub = s.place_word(0, low);
        assert_eq!(sub, low);
        assert!(s.is_zero());
        s.unplace_word(0, sub);
        assert_eq!(s.total(), per_word);

        let max = LaneSet::<B>::MAX;
        let counts: Vec<u32> = (0..per_word + per_word / 4).map(|i| 1 + i % max).collect();
        let mut m = LaneSet::<B>::from_counts(&counts);
        let before = m.clone();
        let s0 = m.place_word(0, low);
        let s1 = m.place_word(1, low & ((1u64 << (B * per_word / 4)) - 1));
        for (i, &v) in counts.iter().enumerate() {
            assert_eq!(m.get(i as u32), v - 1, "{B}-bit lane {i}");
        }
        m.unplace_word(1, s1);
        m.unplace_word(0, s0);
        assert_eq!(m, before);
    }

    #[test]
    fn place_word_never_borrows_across_lanes() {
        never_borrows::<2>();
        never_borrows::<4>();
        never_borrows::<16>();
    }

    /// A 4-bit lane holds demands up to 15: a full lane decrements to 14
    /// and back, a drained lane stays at 0 however often it is placed
    /// on, and the word-wide queries read 15-valued lanes exactly.
    #[test]
    fn four_bit_lanes_saturate_at_15() {
        assert_eq!(LaneSet::<4>::MAX, 15);
        assert_eq!(LaneSet::<4>::LOW, 0x1111_1111_1111_1111);
        assert_eq!(LaneSet::<2>::LOW, 0x5555_5555_5555_5555);
        let mut s = LaneSet::<4>::from_counts(&[15; 16]);
        assert_eq!(s.words(), &[u64::MAX]);
        assert_eq!((s.total(), s.count_nonzero()), (240, 16));
        let sub = s.place_word(0, LaneSet::<4>::LOW);
        assert!((0..16).all(|i| s.get(i) == 14));
        s.unplace_word(0, sub);
        assert_eq!(s.words(), &[u64::MAX], "back to fifteen in every lane");

        let mut d = LaneSet::<4>::from_counts(&[0, 15, 1]);
        let mask = LaneSet::<4>::LOW & 0xFFF;
        let mut undo = Vec::new();
        for _ in 0..16 {
            undo.push(d.place_word(0, mask));
        }
        assert_eq!(
            (d.get(0), d.get(1), d.get(2)),
            (0, 0, 0),
            "drained, not wrapped"
        );
        assert_eq!(undo.iter().map(|w| w.count_ones()).sum::<u32>(), 16);
        while let Some(sub) = undo.pop() {
            d.unplace_word(0, sub);
        }
        assert_eq!((d.get(0), d.get(1), d.get(2)), (0, 15, 1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not fit a 4-bit lane")]
    fn a_sixteen_does_not_fit_a_4_bit_lane() {
        LaneSet::<4>::zero(3).set(1, 16);
    }

    #[test]
    fn lane_debug_render() {
        let s = LaneSet::<2>::from_counts(&[0, 2, 0, 3]);
        assert_eq!(format!("{s:?}"), "LaneSet{1:2,3:3}/4");
        let w = LaneSet::<4>::from_counts(&[0, 12, 0, 3]);
        assert_eq!(format!("{w:?}"), "LaneSet{1:12,3:3}/4");
    }
}
