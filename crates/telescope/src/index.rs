//! Fast destination→block lookup over disjoint prefixes.

use hotspots_ipspace::{Ip, Prefix};

/// An immutable index over disjoint prefixes supporting O(log n)
/// "which block contains this address" queries — the per-probe hot path
/// of every telescope.
///
/// Almost every probe misses every block, so a two-level occupancy
/// prefilter in [`HostSet`](hotspots_ipspace::HostSet)'s layout runs
/// before the binary search:
///
/// * `slash16_bits` — 1 024 words (8 KiB), one bit per /16 that any
///   block touches;
/// * `slash16_rank` — 1 024 `u32`s (4 KiB), the covered-/16 count before
///   each word, so a covered /16's dense index is one popcount away;
/// * `slash24_masks` — one 256-bit mask (32 B) per covered /16, one bit
///   per /24 that any block touches.
///
/// That is 12 KiB plus 32 B per covered /16 (a /24 sensor covers one
/// /16, a /8 covers 256). A miss costs two bit tests on L1-resident
/// words; only addresses in a touched /24 reach the binary search. For
/// blocks longer than /24 the mask is a superset and the search decides.
///
/// # Examples
///
/// ```
/// use hotspots_ipspace::Ip;
/// use hotspots_telescope::BlockIndex;
///
/// let idx = BlockIndex::new(vec![
///     "10.0.0.0/24".parse().unwrap(),
///     "10.0.2.0/24".parse().unwrap(),
/// ]);
/// assert_eq!(idx.find(Ip::from_octets(10, 0, 2, 9)), Some(1));
/// assert_eq!(idx.find(Ip::from_octets(10, 0, 1, 0)), None);
/// ```
#[derive(Debug, Clone)]
pub struct BlockIndex {
    /// (start, end-inclusive, original position), sorted by start.
    spans: Vec<(u32, u32, u32)>,
    /// One bit per /16 that any span touches.
    slash16_bits: Box<[u64; 1024]>,
    /// Covered-/16 count in all bitmap words before word `w`.
    slash16_rank: Box<[u32; 1024]>,
    /// Per covered /16, ascending: one bit per /24 that any span touches.
    slash24_masks: Vec<[u64; 4]>,
}

impl BlockIndex {
    /// Builds an index. Block order is preserved: `find` returns positions
    /// into the original `blocks` vector.
    ///
    /// # Panics
    ///
    /// Panics if any two blocks overlap.
    pub fn new(blocks: Vec<Prefix>) -> BlockIndex {
        let mut spans: Vec<(u32, u32, u32)> = blocks
            .iter()
            .enumerate()
            .map(|(i, p)| {
                (
                    p.base().value(),
                    p.last_ip().value(),
                    u32::try_from(i).expect("fewer than 2^32 blocks"), // hotspots-lint: allow(panic-path) reason="deployments are bounded far below 2^32 blocks"
                )
            })
            .collect();
        spans.sort_unstable_by_key(|s| s.0);
        for w in spans.windows(2) {
            assert!(
                w[0].1 < w[1].0,
                "blocks {} and {} overlap",
                blocks[w[0].2 as usize],
                blocks[w[1].2 as usize]
            );
        }
        // Disjoint sorted spans visit their /16s in ascending order, so
        // the masks come out in rank order in one pass.
        let mut slash16_bits = Box::new([0u64; 1024]);
        let mut slash24_masks: Vec<[u64; 4]> = Vec::new();
        let mut last16 = None;
        for &(start, end, _) in &spans {
            for s16 in start >> 16..=end >> 16 {
                if last16 != Some(s16) {
                    slash16_bits[(s16 >> 6) as usize] |= 1 << (s16 & 63);
                    slash24_masks.push([0; 4]);
                    last16 = Some(s16);
                }
                let lo = if s16 == start >> 16 {
                    (start >> 8) & 0xff
                } else {
                    0
                };
                let hi = if s16 == end >> 16 {
                    (end >> 8) & 0xff
                } else {
                    0xff
                };
                if let Some(mask) = slash24_masks.last_mut() {
                    for s24 in lo..=hi {
                        mask[(s24 >> 6) as usize] |= 1 << (s24 & 63);
                    }
                }
            }
        }
        let mut slash16_rank = Box::new([0u32; 1024]);
        let mut running = 0;
        for (rank, word) in slash16_rank.iter_mut().zip(slash16_bits.iter()) {
            *rank = running;
            running += word.count_ones();
        }
        BlockIndex {
            spans,
            slash16_bits,
            slash16_rank,
            slash24_masks,
        }
    }

    /// Returns the original position of the block containing `ip`, if any.
    #[inline]
    pub fn find(&self, ip: Ip) -> Option<usize> {
        let v = ip.value();
        let s16 = (v >> 16) as usize;
        let word = self.slash16_bits[s16 >> 6];
        let bit = 1u64 << (s16 & 63);
        if word & bit == 0 {
            return None;
        }
        let r16 = (self.slash16_rank[s16 >> 6] + (word & (bit - 1)).count_ones()) as usize;
        let s24 = (v >> 8) as u8;
        let mask = self.slash24_masks.get(r16)?;
        if mask[usize::from(s24 >> 6)] & (1u64 << (s24 & 63)) == 0 {
            return None;
        }
        let i = self.spans.partition_point(|s| s.0 <= v);
        if i == 0 {
            return None;
        }
        let (_, end, pos) = self.spans[i - 1];
        (v <= end).then_some(pos as usize)
    }

    /// Number of indexed blocks.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Returns `true` if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn find_hits_and_misses() {
        let idx = BlockIndex::new(vec![p("192.0.2.0/24"), p("10.0.0.0/8"), p("198.18.0.0/15")]);
        assert_eq!(idx.find(Ip::from_octets(10, 200, 0, 1)), Some(1));
        assert_eq!(idx.find(Ip::from_octets(192, 0, 2, 255)), Some(0));
        assert_eq!(idx.find(Ip::from_octets(198, 19, 255, 255)), Some(2));
        assert_eq!(idx.find(Ip::from_octets(198, 20, 0, 0)), None);
        assert_eq!(idx.find(Ip::MIN), None);
        assert_eq!(idx.find(Ip::MAX), None);
    }

    #[test]
    fn empty_index_finds_nothing() {
        let idx = BlockIndex::new(vec![]);
        assert!(idx.is_empty());
        assert_eq!(idx.find(Ip::from_octets(1, 2, 3, 4)), None);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_blocks_rejected() {
        let _ = BlockIndex::new(vec![p("10.0.0.0/8"), p("10.255.0.0/16")]);
    }

    #[test]
    fn boundaries_are_inclusive() {
        let idx = BlockIndex::new(vec![p("10.0.0.0/24")]);
        assert_eq!(idx.find(Ip::from_octets(10, 0, 0, 0)), Some(0));
        assert_eq!(idx.find(Ip::from_octets(10, 0, 0, 255)), Some(0));
        assert_eq!(idx.find(Ip::from_octets(10, 0, 1, 0)), None);
        assert_eq!(idx.find(Ip::from_octets(9, 255, 255, 255)), None);
    }

    /// Keeps each prefix that overlaps none kept before it.
    fn disjoint(raw: &[(u32, u8)]) -> Vec<Prefix> {
        let mut kept: Vec<Prefix> = Vec::new();
        for &(addr, len) in raw {
            let block = Prefix::containing(Ip::new(addr), len);
            if !kept.iter().any(|k| k.overlaps(block)) {
                kept.push(block);
            }
        }
        kept
    }

    proptest! {
        #[test]
        fn agrees_with_linear_scan(
            v in any::<u32>(),
            raw in proptest::collection::vec((any::<u32>(), 8u8..=32), 0..24),
            offset in any::<u32>(),
        ) {
            // A fixed mix, then random disjoint /8–/32 sets: blocks wider
            // than a /16 fill whole /24 masks, blocks narrower than a /24
            // leave a superset mask for the search to settle.
            let fixed = vec![p("10.0.0.0/8"), p("131.107.0.0/20"), p("192.40.16.0/22"), p("96.0.0.0/8")];
            for blocks in [fixed, disjoint(&raw)] {
                let idx = BlockIndex::new(blocks.clone());
                // a uniform address, then each block's edges, an interior
                // point, and neighbours sharing its /24 and its /16
                let mut probes = vec![v];
                for b in &blocks {
                    let (lo, hi) = (b.base().value(), b.last_ip().value());
                    let inside = lo + (u64::from(offset) % b.size()) as u32;
                    probes.extend([
                        lo.wrapping_sub(1),
                        lo,
                        inside,
                        hi,
                        hi.wrapping_add(1),
                        lo ^ (offset & 0xff),
                        lo ^ (offset & 0xffff),
                    ]);
                }
                for probe in probes {
                    let ip = Ip::new(probe);
                    let linear = blocks.iter().position(|b| b.contains(ip));
                    prop_assert_eq!(idx.find(ip), linear);
                }
            }
        }
    }
}
