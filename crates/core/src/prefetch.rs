//! Software prefetch: start loading a cache line without waiting for
//! it.
//!
//! A leaf read knows every address it will touch once the model has
//! predicted a slot, but each load only issues after the compare
//! before it resolves. Prefetching the later lines first lets their
//! DRAM misses overlap the first one instead of following it.

/// Ask the CPU to start loading the cache line that holds `*r` into
/// every cache level. Returns at once; the load completes in the
/// background, and a later read of `*r` finds the line closer or
/// already cached. A no-op on targets other than x86_64.
#[inline(always)]
#[allow(unsafe_code)]
pub(crate) fn prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let p = (r as *const T).cast::<i8>();
        // SAFETY: `_mm_prefetch` needs only SSE, which every x86_64
        // target enables. A prefetch is a hint: it never faults and
        // never writes, and `p` comes from a reference, so it is a
        // valid address besides.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}
