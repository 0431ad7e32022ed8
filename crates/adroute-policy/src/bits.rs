//! Compact AD-id sets: the Roaring-style container behind [`AdSet`].
//!
//! Policy Terms and ORWG avoid-sets used to carry sorted `Vec<AdId>`
//! payloads whose membership tests binary-searched the whole vector on
//! every Policy-Term evaluation. At paper scale (~10⁵ ADs, Section 2.2)
//! those probes dominate route synthesis. [`AdBits`] replaces them with a
//! chunked bitset: members are split on the high 16 bits of the id into
//! chunks of 65 536 values, and each chunk stores either a sorted
//! `Vec<u16>` (sparse) or a 1024-word bitmap (dense) — the classic
//! Roaring layout. Membership is a chunk lookup plus an O(1) bit test or
//! a short binary search; set algebra works chunk-by-chunk.
//!
//! The representation is **canonical**: a chunk is an array iff its
//! cardinality is at most `ARRAY_MAX`, chunks are sorted and non-empty.
//! Equal sets therefore have equal representations, so derived
//! `PartialEq` is semantic equality, and the custom `Ord`/`Hash`
//! (member-lexicographic, matching the old sorted-`Vec<AdId>` ordering)
//! keep every BTreeMap iteration order and golden trace stable.
//!
//! [`AdSet`]: crate::terms::AdSet

use adroute_topology::AdId;
use std::fmt;

/// Cardinality at which a chunk flips from sorted array to bitmap.
const ARRAY_MAX: usize = 4096;
/// 64-bit words per bitmap chunk (65 536 bits).
const BITMAP_WORDS: usize = 1024;

/// One chunk's members, low 16 bits only.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Container {
    /// Sorted, deduplicated low halves; `len <= ARRAY_MAX`.
    Array(Vec<u16>),
    /// Dense bitmap; cardinality `> ARRAY_MAX`.
    Bitmap(Box<[u64; BITMAP_WORDS]>),
}

impl Container {
    fn len(&self) -> usize {
        match self {
            Container::Array(v) => v.len(),
            Container::Bitmap(b) => b.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    fn contains(&self, low: u16) -> bool {
        match self {
            Container::Array(v) => v.binary_search(&low).is_ok(),
            Container::Bitmap(b) => b[low as usize >> 6] >> (low & 63) & 1 == 1,
        }
    }

    /// Restores the canonical array-vs-bitmap choice after an operation.
    fn normalize(self) -> Container {
        match self {
            Container::Array(v) if v.len() > ARRAY_MAX => {
                let mut b = Box::new([0u64; BITMAP_WORDS]);
                for low in v {
                    b[low as usize >> 6] |= 1 << (low & 63);
                }
                Container::Bitmap(b)
            }
            Container::Bitmap(b) => {
                let card: usize = b.iter().map(|w| w.count_ones() as usize).sum();
                if card <= ARRAY_MAX {
                    Container::Array(bitmap_to_array(&b))
                } else {
                    Container::Bitmap(b)
                }
            }
            arr => arr,
        }
    }

    fn to_bitmap(&self) -> Box<[u64; BITMAP_WORDS]> {
        match self {
            Container::Bitmap(b) => b.clone(),
            Container::Array(v) => {
                let mut b = Box::new([0u64; BITMAP_WORDS]);
                for &low in v {
                    b[low as usize >> 6] |= 1 << (low & 63);
                }
                b
            }
        }
    }

    fn iter(&self) -> ContainerIter<'_> {
        match self {
            Container::Array(v) => ContainerIter::Array(v.iter()),
            Container::Bitmap(b) => ContainerIter::Bitmap(b.iter().enumerate().flat_map(word_bits)),
        }
    }
}

/// The set bits of word `wi` of a bitmap chunk.
fn word_bits((wi, &word): (usize, &u64)) -> BitIter {
    BitIter {
        word,
        base: (wi as u16) << 6,
    }
}

/// The `(index, word)` pairs of a bitmap chunk.
type Words<'a> = std::iter::Enumerate<std::slice::Iter<'a, u64>>;
/// The members of a bitmap chunk, word by word.
type BitmapIter<'a> = std::iter::FlatMap<Words<'a>, BitIter, fn((usize, &'a u64)) -> BitIter>;

/// One chunk's members in ascending order.
enum ContainerIter<'a> {
    Array(std::slice::Iter<'a, u16>),
    Bitmap(BitmapIter<'a>),
}

impl Iterator for ContainerIter<'_> {
    type Item = u16;
    fn next(&mut self) -> Option<u16> {
        match self {
            ContainerIter::Array(it) => it.next().copied(),
            ContainerIter::Bitmap(it) => it.next(),
        }
    }
}

/// Iterates set bits of one word as low-half values.
struct BitIter {
    word: u64,
    base: u16,
}

impl Iterator for BitIter {
    type Item = u16;
    fn next(&mut self) -> Option<u16> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as u16;
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

fn bitmap_to_array(b: &[u64; BITMAP_WORDS]) -> Vec<u16> {
    b.iter().enumerate().flat_map(word_bits).collect()
}

fn merge_union(a: &[u16], b: &[u16]) -> Vec<u16> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// A compact set of [`AdId`]s: the interned bitset representation behind
/// policy AD-sets. See the module docs for the layout and canonicality
/// guarantees.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AdBits {
    /// `(high half, members)`, sorted by key, no empty chunks.
    chunks: Vec<(u16, Container)>,
    /// Cached cardinality.
    len: u64,
}

impl AdBits {
    /// The empty set.
    pub fn new() -> AdBits {
        AdBits::default()
    }

    /// Builds from any iterator of ids (sorts and deduplicates).
    pub fn from_ids(ids: impl IntoIterator<Item = AdId>) -> AdBits {
        let mut v: Vec<u32> = ids.into_iter().map(|a| a.0).collect();
        v.sort_unstable();
        v.dedup();
        let mut chunks: Vec<(u16, Container)> = Vec::new();
        for id in &v {
            let (hi, lo) = ((id >> 16) as u16, *id as u16);
            match chunks.last_mut() {
                Some((key, Container::Array(arr))) if *key == hi => arr.push(lo),
                _ => chunks.push((hi, Container::Array(vec![lo]))),
            }
        }
        let chunks = chunks
            .into_iter()
            .map(|(k, c)| (k, c.normalize()))
            .collect();
        AdBits {
            chunks,
            len: v.len() as u64,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test: chunk lookup + bit test / short binary search.
    pub fn contains(&self, ad: AdId) -> bool {
        let (hi, lo) = ((ad.0 >> 16) as u16, ad.0 as u16);
        match self.chunks.binary_search_by_key(&hi, |&(k, _)| k) {
            Ok(i) => self.chunks[i].1.contains(lo),
            Err(_) => false,
        }
    }

    /// Members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = AdId> + '_ {
        self.chunks.iter().flat_map(|(key, c)| {
            let base = (*key as u32) << 16;
            c.iter().map(move |lo| AdId(base | lo as u32))
        })
    }

    /// Inserts one id. Returns whether it was new.
    pub fn insert(&mut self, ad: AdId) -> bool {
        if self.contains(ad) {
            return false;
        }
        let (hi, lo) = ((ad.0 >> 16) as u16, ad.0 as u16);
        match self.chunks.binary_search_by_key(&hi, |&(k, _)| k) {
            Ok(i) => {
                let c = std::mem::replace(&mut self.chunks[i].1, Container::Array(Vec::new()));
                let c = match c {
                    Container::Array(mut v) => {
                        let pos = v.binary_search(&lo).unwrap_err();
                        v.insert(pos, lo);
                        Container::Array(v).normalize()
                    }
                    Container::Bitmap(mut b) => {
                        b[lo as usize >> 6] |= 1 << (lo & 63);
                        Container::Bitmap(b)
                    }
                };
                self.chunks[i].1 = c;
            }
            Err(i) => self.chunks.insert(i, (hi, Container::Array(vec![lo]))),
        }
        self.len += 1;
        true
    }

    /// Binary set operation driven by per-chunk closures. `keep_lone_a` /
    /// `keep_lone_b` say what happens to chunks present on only one side.
    fn zip_chunks(
        &self,
        other: &AdBits,
        keep_lone_a: bool,
        keep_lone_b: bool,
        combine: impl Fn(&Container, &Container) -> Container,
    ) -> AdBits {
        let mut chunks: Vec<(u16, Container)> = Vec::new();
        let (a, b) = (&self.chunks, &other.chunks);
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let take = match (a.get(i), b.get(j)) {
                (Some(&(ka, _)), Some(&(kb, _))) => ka.cmp(&kb),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => unreachable!(),
            };
            match take {
                std::cmp::Ordering::Less => {
                    if keep_lone_a {
                        chunks.push(a[i].clone());
                    }
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    if keep_lone_b {
                        chunks.push(b[j].clone());
                    }
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let c = combine(&a[i].1, &b[j].1).normalize();
                    if c.len() > 0 {
                        chunks.push((a[i].0, c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        let len = chunks.iter().map(|(_, c)| c.len() as u64).sum();
        AdBits { chunks, len }
    }

    /// Set union.
    pub fn union(&self, other: &AdBits) -> AdBits {
        self.zip_chunks(other, true, true, |x, y| match (x, y) {
            (Container::Array(a), Container::Array(b)) => Container::Array(merge_union(a, b)),
            _ => {
                let mut m = x.to_bitmap();
                match y {
                    Container::Bitmap(n) => {
                        for (w, v) in m.iter_mut().zip(n.iter()) {
                            *w |= v;
                        }
                    }
                    Container::Array(v) => {
                        for &lo in v {
                            m[lo as usize >> 6] |= 1 << (lo & 63);
                        }
                    }
                }
                Container::Bitmap(m)
            }
        })
    }

    /// Set intersection.
    pub fn intersect(&self, other: &AdBits) -> AdBits {
        self.zip_chunks(other, false, false, |x, y| {
            // Probing the smaller side into the larger keeps this linear
            // in the sparse container.
            let (probe, into) = if x.len() <= y.len() { (x, y) } else { (y, x) };
            Container::Array(probe.iter().filter(|&lo| into.contains(lo)).collect())
        })
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &AdBits) -> AdBits {
        self.zip_chunks(other, true, false, |x, y| {
            Container::Array(x.iter().filter(|&lo| !y.contains(lo)).collect())
        })
    }
}

impl FromIterator<AdId> for AdBits {
    fn from_iter<T: IntoIterator<Item = AdId>>(iter: T) -> AdBits {
        AdBits::from_ids(iter)
    }
}

impl PartialOrd for AdBits {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Member-lexicographic ordering — identical to comparing the old sorted
/// `Vec<AdId>` payloads, so every consumer that sorted on AD-sets (e.g.
/// path-vector RIB keys) keeps its iteration order and golden traces.
impl Ord for AdBits {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let mut a = self.iter();
        let mut b = other.iter();
        loop {
            match (a.next(), b.next()) {
                (Some(x), Some(y)) => match x.cmp(&y) {
                    std::cmp::Ordering::Equal => continue,
                    ord => return ord,
                },
                (None, None) => return std::cmp::Ordering::Equal,
                (None, Some(_)) => return std::cmp::Ordering::Less,
                (Some(_), None) => return std::cmp::Ordering::Greater,
            }
        }
    }
}

impl std::hash::Hash for AdBits {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        for ad in self.iter() {
            ad.0.hash(state);
        }
    }
}

impl fmt::Display for AdBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, ad) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{ad}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(ids: impl IntoIterator<Item = u32>) -> AdBits {
        AdBits::from_ids(ids.into_iter().map(AdId))
    }

    #[test]
    fn build_dedup_and_contains() {
        let b = bits([3, 1, 3, 70_000, 2]);
        assert_eq!(b.len(), 4);
        assert!(b.contains(AdId(1)));
        assert!(b.contains(AdId(70_000)));
        assert!(!b.contains(AdId(4)));
        assert!(!b.contains(AdId(65_536)));
        let members: Vec<u32> = b.iter().map(|a| a.0).collect();
        assert_eq!(members, vec![1, 2, 3, 70_000]);
    }

    #[test]
    fn empty_set() {
        let e = AdBits::new();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(!e.contains(AdId(0)));
        assert_eq!(e.iter().count(), 0);
        assert_eq!(e, bits([]));
    }

    #[test]
    fn dense_chunk_flips_to_bitmap_and_back() {
        // > ARRAY_MAX members in one chunk forces the bitmap form.
        let big = bits(0..5000);
        assert_eq!(big.len(), 5000);
        assert!(matches!(big.chunks[0].1, Container::Bitmap(_)));
        for probe in [0u32, 2500, 4999] {
            assert!(big.contains(AdId(probe)));
        }
        assert!(!big.contains(AdId(5000)));
        // Subtracting back below the threshold restores the array form —
        // canonicality is what makes derived equality semantic.
        let small = big.difference(&bits(1000..5000));
        assert!(matches!(small.chunks[0].1, Container::Array(_)));
        assert_eq!(small, bits(0..1000));
        let roundtrip: Vec<u32> = big.iter().map(|a| a.0).collect();
        assert_eq!(roundtrip, (0..5000).collect::<Vec<_>>());
    }

    #[test]
    fn set_algebra_matches_pointwise() {
        let a = bits([1, 2, 3, 100_000]);
        let b = bits([2, 3, 4, 131_072]);
        let u = a.union(&b);
        let i = a.intersect(&b);
        let d = a.difference(&b);
        for probe in [0, 1, 2, 3, 4, 5, 100_000, 131_072, 200_000] {
            let ad = AdId(probe);
            assert_eq!(u.contains(ad), a.contains(ad) || b.contains(ad), "{probe}");
            assert_eq!(i.contains(ad), a.contains(ad) && b.contains(ad), "{probe}");
            assert_eq!(d.contains(ad), a.contains(ad) && !b.contains(ad), "{probe}");
        }
        assert_eq!(u.len(), 6);
        assert_eq!(i.len(), 2);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn mixed_density_algebra() {
        let dense = bits(0..5000);
        let sparse = bits([10, 4999, 6000]);
        let u = dense.union(&sparse);
        assert_eq!(u.len(), 5001);
        assert!(u.contains(AdId(6000)));
        let i = dense.intersect(&sparse);
        assert_eq!(i, bits([10, 4999]));
        let d = dense.difference(&sparse);
        assert_eq!(d.len(), 4998);
        assert!(!d.contains(AdId(10)));
        // Union of two dense chunks stays a bitmap.
        let dense2 = bits(3000..9000);
        let uu = dense.union(&dense2);
        assert_eq!(uu.len(), 9000);
        assert!(matches!(uu.chunks[0].1, Container::Bitmap(_)));
    }

    #[test]
    fn insert_grows_and_dedups() {
        let mut b = bits([5]);
        assert!(b.insert(AdId(70_000)));
        assert!(!b.insert(AdId(5)));
        assert!(b.insert(AdId(1)));
        assert_eq!(b.len(), 3);
        assert_eq!(b, bits([1, 5, 70_000]));
    }

    #[test]
    fn ordering_is_member_lexicographic() {
        // Matches Vec<AdId> lexicographic comparison on sorted members.
        assert!(bits([1, 2]) < bits([1, 3]));
        assert!(bits([1]) < bits([1, 2]));
        assert!(bits([]) < bits([0]));
        assert_eq!(bits([7, 9]).cmp(&bits([9, 7])), std::cmp::Ordering::Equal);
    }

    #[test]
    fn hash_agrees_with_equality() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |b: &AdBits| {
            let mut s = DefaultHasher::new();
            b.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&bits([1, 70_000])), h(&bits([70_000, 1, 1])));
        assert_ne!(h(&bits([1])), h(&bits([2])));
    }

    #[test]
    fn display_is_comma_joined() {
        assert_eq!(bits([2, 1]).to_string(), "AD1,AD2");
        assert_eq!(AdBits::new().to_string(), "");
    }
}
