//! Occupancy bitmap for data nodes.
//!
//! §5.2.3 of the paper: "ALEX maintains a bitmap for each leaf node, so
//! that each bit tracks whether its corresponding location in the node
//! is occupied by a key or is a gap. The bitmap is fast to query and has
//! low space overhead compared to the data size."

/// A fixed-size bitmap with word-level scans for the next/previous
/// occupied or free slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An all-zero bitmap covering `len` slots.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of slots covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers zero slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether slot `i` is set (occupied).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Set slot `i` (mark occupied).
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Clear slot `i` (mark gap).
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 6] &= !(1u64 << (i & 63));
    }

    /// Number of set slots in `[0, len)`.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set slots in `range`.
    pub fn count_ones_in(&self, range: core::ops::Range<usize>) -> usize {
        // Word-at-a-time with masked boundaries.
        debug_assert!(range.end <= self.len);
        if range.start >= range.end {
            return 0;
        }
        let (start, end) = (range.start, range.end);
        let (sw, ew) = (start >> 6, (end - 1) >> 6);
        if sw == ew {
            let mask = mask_from(start & 63) & mask_upto((end - 1) & 63);
            return (self.words[sw] & mask).count_ones() as usize;
        }
        let mut total = (self.words[sw] & mask_from(start & 63)).count_ones() as usize;
        for w in &self.words[sw + 1..ew] {
            total += w.count_ones() as usize;
        }
        total += (self.words[ew] & mask_upto((end - 1) & 63)).count_ones() as usize;
        total
    }

    /// First set slot at or after `from`, if any.
    pub fn next_occupied(&self, from: usize) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        let mut wi = from >> 6;
        let mut word = self.words[wi] & mask_from(from & 63);
        loop {
            if word != 0 {
                let slot = (wi << 6) + word.trailing_zeros() as usize;
                return (slot < self.len).then_some(slot);
            }
            wi += 1;
            if wi >= self.words.len() {
                return None;
            }
            word = self.words[wi];
        }
    }

    /// Last set slot at or before `from`, if any.
    pub fn prev_occupied(&self, from: usize) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let from = from.min(self.len - 1);
        let mut wi = from >> 6;
        let mut word = self.words[wi] & mask_upto(from & 63);
        loop {
            if word != 0 {
                return Some((wi << 6) + 63 - word.leading_zeros() as usize);
            }
            if wi == 0 {
                return None;
            }
            wi -= 1;
            word = self.words[wi];
        }
    }

    /// First clear slot at or after `from`, if any.
    pub fn next_gap(&self, from: usize) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        let mut wi = from >> 6;
        let mut word = !self.words[wi] & mask_from(from & 63);
        loop {
            if word != 0 {
                let slot = (wi << 6) + word.trailing_zeros() as usize;
                return (slot < self.len).then_some(slot);
            }
            wi += 1;
            if wi >= self.words.len() {
                return None;
            }
            word = !self.words[wi];
        }
    }

    /// Last clear slot at or before `from`, if any.
    pub fn prev_gap(&self, from: usize) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let from = from.min(self.len - 1);
        let mut wi = from >> 6;
        let mut word = !self.words[wi] & mask_upto(from & 63);
        loop {
            if word != 0 {
                return Some((wi << 6) + 63 - word.leading_zeros() as usize);
            }
            if wi == 0 {
                return None;
            }
            wi -= 1;
            word = !self.words[wi];
        }
    }

    /// The eight occupancy bits for slots `start..start + 8`, packed
    /// with slot `start` in bit 0. Bits for slots past `len` are zero,
    /// and the window may cross a word boundary — the companion to the
    /// block-wise key probe, which intersects a key-equality mask with
    /// this window in one AND.
    #[inline]
    pub fn window8(&self, start: usize) -> u8 {
        if start >= self.len {
            return 0;
        }
        let wi = start >> 6;
        let bit = start & 63;
        let mut bits = self.words[wi] >> bit;
        if bit > 56 {
            if let Some(&next) = self.words.get(wi + 1) {
                bits |= next << (64 - bit);
            }
        }
        // Bits past `len` are zero by construction (set/clear assert
        // in-range, and `new` zero-fills), so no tail mask is needed.
        bits as u8
    }

    /// Start loading the word that holds slot `i` (nothing past the
    /// end): a leaf read issues this before its key search, whose
    /// result picks the [`Bitmap::window8`] to read.
    #[inline]
    pub(crate) fn prefetch(&self, i: usize) {
        if let Some(word) = self.words.get(i >> 6) {
            crate::prefetch::prefetch(word);
        }
    }

    /// Bytes of heap memory used (for size accounting).
    pub fn size_bytes(&self) -> usize {
        self.words.capacity() * core::mem::size_of::<u64>()
    }

    /// Iterator over set slots at or after `from`, scanning a word at a
    /// time (the fast path behind range scans, §5.2.3).
    pub fn ones_from(&self, from: usize) -> OnesFrom<'_> {
        if from >= self.len {
            return OnesFrom {
                words: &self.words,
                len: self.len,
                word_idx: self.words.len(),
                current: 0,
            };
        }
        let word_idx = from >> 6;
        OnesFrom {
            words: &self.words,
            len: self.len,
            word_idx,
            current: self.words[word_idx] & mask_from(from & 63),
        }
    }
}

/// Iterator produced by [`Bitmap::ones_from`].
pub struct OnesFrom<'a> {
    words: &'a [u64],
    len: usize,
    word_idx: usize,
    current: u64,
}

impl Iterator for OnesFrom<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let slot = (self.word_idx << 6) + bit;
                return (slot < self.len).then_some(slot);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

/// Bits `pos..64` set.
#[inline]
fn mask_from(pos: usize) -> u64 {
    u64::MAX << pos
}

/// Bits `0..=pos` set.
#[inline]
fn mask_upto(pos: usize) -> u64 {
    if pos >= 63 {
        u64::MAX
    } else {
        (1u64 << (pos + 1)) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::new(130);
        assert!(!b.get(0));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn next_prev_occupied() {
        let mut b = Bitmap::new(200);
        for i in [3, 70, 150] {
            b.set(i);
        }
        assert_eq!(b.next_occupied(0), Some(3));
        assert_eq!(b.next_occupied(3), Some(3));
        assert_eq!(b.next_occupied(4), Some(70));
        assert_eq!(b.next_occupied(151), None);
        assert_eq!(b.prev_occupied(199), Some(150));
        assert_eq!(b.prev_occupied(150), Some(150));
        assert_eq!(b.prev_occupied(149), Some(70));
        assert_eq!(b.prev_occupied(2), None);
    }

    #[test]
    fn next_prev_gap() {
        let mut b = Bitmap::new(130);
        for i in 0..130 {
            b.set(i);
        }
        b.clear(5);
        b.clear(100);
        assert_eq!(b.next_gap(0), Some(5));
        assert_eq!(b.next_gap(6), Some(100));
        assert_eq!(b.next_gap(101), None);
        assert_eq!(b.prev_gap(129), Some(100));
        assert_eq!(b.prev_gap(99), Some(5));
        assert_eq!(b.prev_gap(4), None);
    }

    #[test]
    fn gap_scan_ignores_tail_beyond_len() {
        // len not a multiple of 64: bits past len must never be reported.
        let b = Bitmap::new(70);
        assert_eq!(b.next_occupied(0), None);
        let mut b = Bitmap::new(70);
        for i in 0..70 {
            b.set(i);
        }
        assert_eq!(b.next_gap(0), None);
    }

    #[test]
    fn count_ones_in_ranges() {
        let mut b = Bitmap::new(256);
        for i in (0..256).step_by(2) {
            b.set(i);
        }
        assert_eq!(b.count_ones_in(0..256), 128);
        assert_eq!(b.count_ones_in(0..64), 32);
        assert_eq!(b.count_ones_in(10..20), 5);
        assert_eq!(b.count_ones_in(63..65), 1);
        assert_eq!(b.count_ones_in(5..5), 0);
        assert_eq!(b.count_ones_in(1..2), 0);
    }

    #[test]
    fn ones_from_matches_next_occupied() {
        let mut b = Bitmap::new(300);
        for i in [0, 3, 63, 64, 65, 127, 199, 299] {
            b.set(i);
        }
        for from in [0usize, 1, 63, 64, 128, 250, 300] {
            let fast: Vec<usize> = b.ones_from(from).collect();
            let mut slow = Vec::new();
            let mut s = from;
            while let Some(x) = b.next_occupied(s) {
                slow.push(x);
                s = x + 1;
            }
            assert_eq!(fast, slow, "from {from}");
        }
    }

    #[test]
    fn window8_matches_get_everywhere() {
        // Irregular pattern across several words, incl. word-crossing
        // windows and the past-len tail.
        let mut b = Bitmap::new(150);
        for i in [0, 1, 7, 8, 60, 61, 62, 63, 64, 65, 70, 127, 128, 149] {
            b.set(i);
        }
        for start in 0..160usize {
            let w = b.window8(start);
            for j in 0..8 {
                let expect = start + j < b.len() && b.get(start + j);
                assert_eq!(
                    w & (1 << j) != 0,
                    expect,
                    "start={start} lane={j}"
                );
            }
        }
        assert_eq!(Bitmap::new(0).window8(0), 0);
    }

    #[test]
    fn empty_bitmap() {
        let b = Bitmap::new(0);
        assert!(b.is_empty());
        assert_eq!(b.next_occupied(0), None);
        assert_eq!(b.prev_occupied(0), None);
        assert_eq!(b.next_gap(0), None);
        assert_eq!(b.prev_gap(0), None);
    }
}
