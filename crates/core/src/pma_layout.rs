//! Capacity, segment, and window arithmetic for the Packed Memory
//! Array layout of a data node (§3.3.2), after Bender & Hu, *An
//! adaptive packed-memory array*, TODS 2007 — reference \[6\] of the
//! ALEX paper.
//!
//! A PMA of capacity `2^k` is divided into `2^s` segments of equal
//! power-of-two size. An implicit binary tree is built over the segments:
//! depth `s` (the leaves) corresponds to single segments, depth `0` (the
//! root) to the whole array. Every depth has an upper density bound,
//! linearly interpolated between a permissive bound at the leaves and a
//! strict bound at the root, so that no region of the array can become
//! too packed before a redistribution spreads it out again. An insert
//! that would push its segment over the bound walks up the tree to the
//! smallest window within bounds and respreads it; when even the root
//! window is over its bound the array doubles. Under random inserts
//! that costs `O(log n)` amortized moves per insert and `O(log² n)` in
//! the worst case — the bound the paper's PMA layout relies on.

/// Density bounds for the implicit window tree.
///
/// `upper_leaf` is the maximum fill fraction a single segment may reach;
/// `upper_root` the maximum for the whole array. Bounds at intermediate
/// depths are linear interpolations. A PMA node contracts on deletes at
/// [`NodeParams::lower_density`](crate::NodeParams::lower_density), like
/// a gapped one, so there is no lower bound here.
///
/// The classic choice (and our default) is `upper_leaf = 0.92`,
/// `upper_root = 0.7`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityBounds {
    /// Maximum density of a leaf window (single segment).
    pub upper_leaf: f64,
    /// Maximum density of the root window (entire array).
    pub upper_root: f64,
}

impl Default for DensityBounds {
    fn default() -> Self {
        Self {
            upper_leaf: 0.92,
            upper_root: 0.7,
        }
    }
}

impl DensityBounds {
    /// Create bounds, validating that `0 < upper_root <= upper_leaf <= 1`.
    ///
    /// # Panics
    /// Panics if the ordering constraint is violated.
    pub fn new(upper_leaf: f64, upper_root: f64) -> Self {
        assert!(
            0.0 < upper_root && upper_root <= upper_leaf && upper_leaf <= 1.0,
            "invalid density bounds: upper_root={upper_root}, upper_leaf={upper_leaf}"
        );
        Self { upper_leaf, upper_root }
    }

    /// Upper density bound for a window at `depth`, where depth `0` is the
    /// root and `height` is the leaf depth.
    ///
    /// For a tree of height `0` (a single segment spanning the array) the
    /// root bound applies.
    #[inline]
    pub fn upper_at(&self, depth: u32, height: u32) -> f64 {
        if height == 0 {
            return self.upper_root;
        }
        let t = f64::from(depth) / f64::from(height);
        self.upper_root + (self.upper_leaf - self.upper_root) * t
    }
}

/// Geometry of a PMA: capacity, segment size, and the implicit window
/// tree over segments. All sizes are powers of two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    capacity: usize,
    segment_size: usize,
    num_segments: usize,
    /// Height of the implicit tree (`log2(num_segments)`).
    height: u32,
}

impl Geometry {
    /// Build a geometry for at least `min_capacity` slots.
    ///
    /// Capacity is rounded up to a power of two (minimum 8) and the
    /// segment size is chosen as `log2(capacity)` rounded up to a power
    /// of two, the classic PMA segment sizing.
    pub fn for_capacity(min_capacity: usize) -> Self {
        let capacity = min_capacity.max(8).next_power_of_two();
        let log2_cap = capacity.trailing_zeros();
        let segment_size = usize::max(2, (log2_cap as usize).next_power_of_two()).min(capacity);
        let num_segments = capacity / segment_size;
        let height = num_segments.trailing_zeros();
        Self {
            capacity,
            segment_size,
            num_segments,
            height,
        }
    }

    /// Total number of slots.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slots per segment.
    #[inline]
    pub fn segment_size(&self) -> usize {
        self.segment_size
    }

    /// Number of leaf segments.
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.num_segments
    }

    /// Height of the implicit window tree (root depth = 0, leaf depth =
    /// `height`).
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The segment index containing `slot`.
    #[inline]
    pub fn segment_of(&self, slot: usize) -> usize {
        debug_assert!(slot < self.capacity);
        slot / self.segment_size
    }

    /// The half-open slot range of the window at `depth` containing
    /// `slot`.
    ///
    /// Depth `height` is the single segment containing `slot`; each step
    /// toward depth `0` doubles the window until it spans the array.
    #[inline]
    pub fn window_at(&self, slot: usize, depth: u32) -> core::ops::Range<usize> {
        debug_assert!(depth <= self.height);
        let window_segments = 1usize << (self.height - depth);
        let window_slots = window_segments * self.segment_size;
        let start = (slot / window_slots) * window_slots;
        start..start + window_slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_rounds_to_power_of_two() {
        let g = Geometry::for_capacity(100);
        assert_eq!(g.capacity(), 128);
        assert!(g.capacity().is_power_of_two());
        assert!(g.segment_size().is_power_of_two());
        assert_eq!(g.num_segments() * g.segment_size(), g.capacity());
    }

    #[test]
    fn geometry_minimum_capacity() {
        let g = Geometry::for_capacity(0);
        assert_eq!(g.capacity(), 8);
        let g = Geometry::for_capacity(1);
        assert_eq!(g.capacity(), 8);
    }

    #[test]
    fn geometry_segment_size_tracks_log2() {
        // capacity 1024 -> log2 = 10 -> segment size 16.
        let g = Geometry::for_capacity(1024);
        assert_eq!(g.capacity(), 1024);
        assert_eq!(g.segment_size(), 16);
        assert_eq!(g.num_segments(), 64);
        assert_eq!(g.height(), 6);
    }

    #[test]
    fn window_at_leaf_is_single_segment() {
        let g = Geometry::for_capacity(1024);
        let w = g.window_at(37, g.height());
        assert_eq!(w.len(), g.segment_size());
        assert!(w.contains(&37));
    }

    #[test]
    fn window_at_root_is_whole_array() {
        let g = Geometry::for_capacity(1024);
        assert_eq!(g.window_at(999, 0), 0..1024);
    }

    #[test]
    fn windows_nest() {
        let g = Geometry::for_capacity(4096);
        let slot = 1234;
        let mut prev = g.window_at(slot, g.height());
        for depth in (0..g.height()).rev() {
            let w = g.window_at(slot, depth);
            assert!(w.start <= prev.start && prev.end <= w.end, "windows must nest");
            assert_eq!(w.len(), prev.len() * 2);
            prev = w;
        }
    }

    #[test]
    fn density_bounds_interpolate() {
        let b = DensityBounds::default();
        let h = 4;
        assert!((b.upper_at(0, h) - b.upper_root).abs() < 1e-12);
        assert!((b.upper_at(h, h) - b.upper_leaf).abs() < 1e-12);
        let mid = b.upper_at(2, h);
        assert!(b.upper_root < mid && mid < b.upper_leaf);
    }

    #[test]
    fn density_bounds_height_zero_uses_root() {
        let b = DensityBounds::default();
        assert_eq!(b.upper_at(0, 0), b.upper_root);
    }

    #[test]
    #[should_panic(expected = "invalid density bounds")]
    fn density_bounds_validate() {
        let _ = DensityBounds::new(0.5, 0.9);
    }

    #[test]
    fn segment_of_matches_window() {
        let g = Geometry::for_capacity(512);
        for slot in [0, 1, 31, 32, 511] {
            let seg = g.segment_of(slot);
            let w = g.window_at(slot, g.height());
            assert_eq!(w.start, seg * g.segment_size());
        }
    }
}
