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

/// Maximum density of a leaf window (a single segment).
pub const UPPER_LEAF: f64 = 0.92;
/// Maximum density of the root window (the whole array). A PMA node
/// contracts on deletes at the same lower density as a gapped one, so
/// there is no lower bound here.
pub const UPPER_ROOT: f64 = 0.7;

/// Upper density bound for a window at `depth`, where depth `0` is the
/// root and `height` is the leaf depth: linear between [`UPPER_ROOT`]
/// and [`UPPER_LEAF`]. For a tree of height `0` (a single segment
/// spanning the array) the root bound applies.
#[inline]
pub fn upper_density_at(depth: u32, height: u32) -> f64 {
    if height == 0 {
        return UPPER_ROOT;
    }
    let t = f64::from(depth) / f64::from(height);
    UPPER_ROOT + (UPPER_LEAF - UPPER_ROOT) * t
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
        let h = 4;
        assert!((upper_density_at(0, h) - UPPER_ROOT).abs() < 1e-12);
        assert!((upper_density_at(h, h) - UPPER_LEAF).abs() < 1e-12);
        let mid = upper_density_at(2, h);
        assert!(UPPER_ROOT < mid && mid < UPPER_LEAF);
    }

    #[test]
    fn density_bounds_height_zero_uses_root() {
        assert_eq!(upper_density_at(0, 0), UPPER_ROOT);
    }
}
