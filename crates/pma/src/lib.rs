//! A Packed Memory Array (PMA), after Bender & Hu, *An adaptive
//! packed-memory array*, TODS 2007 — reference \[6\] of the ALEX paper.
//!
//! A PMA stores a dynamic set of ordered elements in a single array of
//! power-of-two capacity, deliberately leaving gaps between elements so
//! that an insertion only has to shift elements within a small local
//! region. The array is divided into equal-sized *segments*; an implicit
//! binary tree is built over the segments, and every node of that tree
//! carries a *density bound*. When an insertion would push a segment over
//! its bound, the PMA walks up the implicit tree until it finds a window
//! whose density is within bounds and uniformly redistributes the
//! elements of that window. If even the root window is over its bound the
//! array doubles in size.
//!
//! Under random inserts the PMA achieves `O(log n)` amortized moves per
//! insert, and `O(log² n)` worst case — the property the ALEX paper
//! relies on for its PMA node layout (§3.3.2).
//!
//! The crate exposes two layers:
//!
//! - [`layout`] — the capacity/segment/window arithmetic and the
//!   [`layout::DensityBounds`] interpolation, shared with `alex-core`'s
//!   model-based PMA node.
//! - [`Pma`] — a complete, self-contained ordered set built on that
//!   layout (classic PMA with uniform redistribution), the reference
//!   implementation the property tests check.
//!
//! The paper uses the PMA as a leaf layout (`alex_core::PmaNode`), so
//! the crate offers no key/value map of its own.
//!
//! # Examples
//! ```
//! use alex_pma::Pma;
//!
//! let mut pma = Pma::new();
//! for x in [42u64, 7, 19, 3] {
//!     assert!(pma.insert(x));
//! }
//! assert!(pma.remove(&7));
//! assert_eq!(pma.range_from(&4).copied().collect::<Vec<_>>(), vec![19, 42]);
//! // The backing array keeps power-of-two capacity across rebalances.
//! assert_eq!(pma.len(), 3);
//! assert!(pma.capacity().is_power_of_two());
//! ```

pub mod layout;

mod classic;

pub use classic::{Pma, PmaStats};
