//! Epoch-based reclamation (EBR) for lock-free shard readers.
//!
//! This is the reclamation scheme the ROADMAP's "epoch-based follow-up"
//! called for: readers *pin* an epoch before touching any node, writers
//! *publish* replacement nodes through atomic pointers and *retire* the
//! old ones, and retired nodes are freed only once every reader that
//! could still hold a reference has provably moved on. The result is a
//! read path that never blocks on structure modification — the property
//! the paper's §5 multi-thread results assume.
//!
//! # The protocol
//!
//! A [`Collector`] owns a global epoch counter `E` and a fixed table of
//! participant slots. [`Collector::pin`] claims a free slot, stores
//! `E` into it (tagged "pinned"), and returns a [`Guard`]; dropping the
//! guard clears the slot. The global epoch may only advance from `E` to
//! `E + 1` when every pinned participant has observed `E`.
//!
//! Writers retire replaced nodes into a per-arena garbage list tagged
//! with the epoch current at retirement. A node retired at epoch `e`
//! is freed once the global epoch reaches `e + 2`:
//!
//! - advancing `e → e + 1` required every pinned reader to be at `e`,
//!   so readers pinned at `e - 1` (who may have loaded the pointer
//!   before it was swapped out) are gone;
//! - advancing `e + 1 → e + 2` required every pinned reader to be at
//!   `e + 1`, so readers pinned at `e` — the last cohort that could
//!   have loaded the pointer before the swap — are gone too.
//!
//! A reader pinned at `e' ≥ e + 1` necessarily pinned *after* the
//! epoch left `e`, which happened-after the swap made the node
//! unreachable (the retiring writer was itself pinned at `e`, and its
//! slot blocked any advance past `e` until it unpinned). Such a reader
//! can only load the replacement pointer, never the retired one. Hence
//! **a pinned reader can never observe a freed node**.
//!
//! All epoch bookkeeping uses `SeqCst`; the cost is paid on pin/unpin
//! and on the writer's advance scan, never inside a reader's descent.
//!
//! # The arena
//!
//! `AtomicSlots` (crate-internal) is the growable array the index
//! arena is built on:
//! stable integer ids, one atomic pointer per slot. Slots live in
//! power-of-two segments published on demand, so readers indexing into
//! the arena never race a reallocation. Writers must be externally
//! serialized (the index keeps a writer mutex); readers are wait-free.
//!
//! The slot payload for a leaf is not just the gapped base array: it
//! carries a **delta arm** — a bounded sorted buffer of pending edits
//! (`index::delta`) published atomically with the snapshot, with the
//! base array `Arc`-shared across snapshots. A buffered write
//! therefore retires only the small leaf shell, not a full array
//! copy; the array itself is retired (through the same garbage list)
//! when a flush, split, or batch run publishes a rebuilt base. Either
//! way every replacement goes through `publish`, so the reclamation
//! argument below is unchanged.
//!
//! # Safety contract (crate-internal)
//!
//! This module is the only one in the workspace allowed to use
//! `unsafe`. The two obligations its callers (all crate-internal) must
//! uphold, checked by the concurrency suite in
//! `tests/epoch_concurrency.rs`:
//!
//! 1. **Single writer.** `push`/`publish` on one `AtomicSlots` are
//!    never called concurrently (the index's writer mutex, or `&mut`
//!    exclusivity, provides this).
//! 2. **Pinned shared readers.** Any thread that dereferences slot
//!    contents while another thread may publish holds a [`Guard`] from
//!    the arena's [`Collector`] for the whole time it uses the
//!    returned references. Exclusive (`&mut`-rooted) access needs no
//!    guard: no writer can run concurrently, so nothing is freed.

use core::sync::atomic::{fence, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of participant slots a [`Collector`] allocates. Pinning
/// claims a slot per guard, so this bounds *simultaneously pinned
/// guards*, not threads; `pin` spins (yielding) if all are taken.
const PARTICIPANTS: usize = 128;

/// Participant-slot encoding: `0` = free, otherwise `epoch << 1 | 1`.
const FREE: u64 = 0;

#[inline]
fn pinned(epoch: u64) -> u64 {
    (epoch << 1) | 1
}

#[inline]
fn epoch_of(word: u64) -> u64 {
    word >> 1
}

/// The epoch clock: a global counter plus the participant table used
/// to prove quiescence. One collector guards one arena.
pub struct Collector {
    global: AtomicU64,
    participants: Box<[AtomicU64]>,
    /// Last slot successfully claimed — the next `pin` starts its scan
    /// here, so an unpin/pin cycle on one thread reuses one slot.
    hint: AtomicUsize,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// A fresh collector at epoch 0 with no pinned participants.
    pub fn new() -> Self {
        Self {
            global: AtomicU64::new(0),
            participants: (0..PARTICIPANTS).map(|_| AtomicU64::new(FREE)).collect(),
            hint: AtomicUsize::new(0),
        }
    }

    /// The current global epoch (diagnostics; advances are driven by
    /// [`Collector::try_advance`]).
    pub fn global_epoch(&self) -> u64 {
        self.global.load(Ordering::SeqCst)
    }

    /// Pin the current epoch. While the returned [`Guard`] lives, the
    /// global epoch cannot advance more than one step past the pinned
    /// value, so nothing retired at or after it is freed.
    pub fn pin(&self) -> Guard<'_> {
        // Claim a free participant slot. CAS-claiming (rather than
        // per-thread registration) keeps the collector self-contained:
        // scoped test threads come and go freely.
        let start = self.hint.load(Ordering::Relaxed);
        let mut attempt = 0usize;
        let slot = loop {
            let idx = (start + attempt) % PARTICIPANTS;
            let slot = &self.participants[idx];
            if slot.load(Ordering::Relaxed) == FREE {
                let e = self.global.load(Ordering::SeqCst);
                if slot
                    .compare_exchange(FREE, pinned(e), Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
                {
                    break idx;
                }
            }
            attempt += 1;
            if attempt.is_multiple_of(PARTICIPANTS) {
                // All slots busy: readers are short-lived, wait one out.
                std::thread::yield_now();
            }
        };
        self.hint.store(slot, Ordering::Relaxed);
        // Re-synchronize: the epoch we read may have advanced before
        // our slot store became visible. Repeat until the slot
        // advertises the epoch the collector is *currently* at; after
        // that, any advance must observe our pin first.
        let cell = &self.participants[slot];
        loop {
            fence(Ordering::SeqCst);
            let now = self.global.load(Ordering::SeqCst);
            if epoch_of(cell.load(Ordering::SeqCst)) == now {
                break;
            }
            cell.store(pinned(now), Ordering::SeqCst);
        }
        Guard {
            collector: self,
            slot,
        }
    }

    /// Try to move the global epoch forward one step. Succeeds only
    /// when every pinned participant has observed the current epoch.
    /// Returns the global epoch after the attempt.
    pub fn try_advance(&self) -> u64 {
        let e = self.global.load(Ordering::SeqCst);
        fence(Ordering::SeqCst);
        for slot in self.participants.iter() {
            let w = slot.load(Ordering::SeqCst);
            if w != FREE && epoch_of(w) != e {
                // A straggler is still pinned in an older epoch.
                return e;
            }
        }
        let _ = self
            .global
            .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst);
        self.global.load(Ordering::SeqCst)
    }

    /// Number of currently pinned participants (diagnostics).
    pub fn pinned_count(&self) -> usize {
        self.participants
            .iter()
            .filter(|s| s.load(Ordering::SeqCst) != FREE)
            .count()
    }
}

impl core::fmt::Debug for Collector {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Collector")
            .field("global_epoch", &self.global_epoch())
            .field("pinned", &self.pinned_count())
            .finish()
    }
}

/// Proof of a pinned epoch. While alive, nothing retired at or after
/// the pinned epoch is freed, so shared references loaded from an
/// `AtomicSlots` arena stay valid. Dropping unpins.
#[must_use = "references loaded from the arena are only protected while the guard lives"]
pub struct Guard<'c> {
    collector: &'c Collector,
    slot: usize,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.collector.participants[self.slot].store(FREE, Ordering::SeqCst);
    }
}

impl core::fmt::Debug for Guard<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Guard").field("slot", &self.slot).finish()
    }
}

/// Growable arena of epoch-protected heap slots with stable `u32` ids.
///
/// Storage is a ladder of power-of-two segments (`BASE << s` entries
/// each), so a slot's address never changes once allocated — readers
/// index concurrently with writer appends without ever racing a
/// reallocation. Each slot is an `AtomicPtr<T>`; `publish` swaps the
/// pointer and retires the old box to the garbage list, which is
/// drained under the collector's `retire-epoch + 2` rule.
///
/// See the module docs for the safety contract (single writer, pinned
/// shared readers).
pub(crate) struct AtomicSlots<T> {
    segments: [AtomicPtr<AtomicPtr<T>>; SEGMENTS],
    len: AtomicU32,
    /// Retired boxes: `(epoch at retirement, pointer)`. Writer-only.
    garbage: Mutex<Vec<(u64, *mut T)>>,
    /// Lifetime counters proving exactly-once reclamation:
    /// `retired_total == freed_total + garbage.len()` at all times.
    retired_total: AtomicU64,
    freed_total: AtomicU64,
}

/// Segment ladder: segment `s` holds `BASE << s` slots; cumulative
/// capacity is `BASE * (2^SEGMENTS - 1)`, so 27 segments cover the
/// full `u32` id space ALEX's `NodeId` uses
/// (`64 * (2^27 - 1) > u32::MAX`).
const SEGMENTS: usize = 27;
const BASE: u32 = 64;

/// Segment and offset of slot `id` in the ladder.
#[inline]
fn locate(id: u32) -> (usize, usize) {
    let q = id / BASE + 1;
    let seg = (u32::BITS - 1 - q.leading_zeros()) as usize;
    let offset = id - BASE * ((1 << seg) - 1);
    (seg, offset as usize)
}

#[inline]
fn segment_capacity(seg: usize) -> usize {
    (BASE as usize) << seg
}

// SAFETY: AtomicSlots owns the boxed `T`s behind the raw pointers; it
// hands out `&T` (requiring `T: Sync` for sharing) and moves/drops `T`
// on reclamation and in `Drop` (requiring `T: Send`). The raw pointers
// themselves carry no thread affinity.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for AtomicSlots<T> {}
// SAFETY: through `&AtomicSlots`, `get` and `iter` hand out `&T` to
// any thread (`T: Sync`), `push` and `publish` move a `T` in from the
// writer's thread, and `collect` drops retired `T`s on whichever
// thread runs it (`T: Send`). Every shared mutation goes through an
// atomic (`segments`, the slot cells, `len`, the counters) or the
// `garbage` mutex; the module contract's single-writer and
// pinned-reader rules cover what those cannot.
#[allow(unsafe_code)]
unsafe impl<T: Send + Sync> Sync for AtomicSlots<T> {}

impl<T> AtomicSlots<T> {
    pub fn new() -> Self {
        Self {
            segments: core::array::from_fn(|_| AtomicPtr::new(core::ptr::null_mut())),
            len: AtomicU32::new(0),
            garbage: Mutex::new(Vec::new()),
            retired_total: AtomicU64::new(0),
            freed_total: AtomicU64::new(0),
        }
    }

    /// Number of allocated slots. Ids `0..len` are occupied.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len.load(Ordering::Acquire)
    }

    /// The slot cell for `id`, which must lie in an allocated segment.
    #[inline]
    fn cell(&self, id: u32) -> &AtomicPtr<T> {
        let (seg, offset) = locate(id);
        debug_assert!(offset < segment_capacity(seg));
        let base = self.segments[seg].load(Ordering::Acquire);
        debug_assert!(!base.is_null(), "slot {id} read before its segment exists");
        // SAFETY: a non-null segment pointer is a live allocation of
        // `segment_capacity(seg)` cells, published with Release before
        // any id inside it became reachable, and never freed before
        // `self` drops; `offset` is in bounds by the ladder arithmetic.
        #[allow(unsafe_code)]
        unsafe {
            &*base.add(offset)
        }
    }

    /// Append a value, returning its id. **Single writer only** (see
    /// module safety contract); readers may run concurrently.
    pub fn push(&self, value: T) -> u32 {
        let id = self.len.load(Ordering::Relaxed);
        let (seg, _) = locate(id);
        if self.segments[seg].load(Ordering::Acquire).is_null() {
            let fresh: Box<[AtomicPtr<T>]> = (0..segment_capacity(seg))
                .map(|_| AtomicPtr::new(core::ptr::null_mut()))
                .collect();
            // Publish the segment before any slot in it is reachable.
            self.segments[seg].store(Box::into_raw(fresh).cast::<AtomicPtr<T>>(), Ordering::Release);
        }
        self.cell(id).store(Box::into_raw(Box::new(value)), Ordering::Release);
        // Release: the slot contents are visible before the new length.
        self.len.store(id + 1, Ordering::Release);
        id
    }

    /// Shared read of slot `id`.
    ///
    /// The returned reference is valid for the caller's current
    /// protection regime: under a live [`Guard`] of the owning
    /// collector (shared regime), or for as long as no writer can run
    /// (exclusive regime). See the module safety contract.
    #[inline]
    pub fn get(&self, id: u32) -> &T {
        debug_assert!(id < self.len(), "slot {id} out of bounds");
        let ptr = self.cell(id).load(Ordering::Acquire);
        // SAFETY: `ptr` was stored by `push`/`publish` from a live Box.
        // If it has since been retired, the epoch rule (free only at
        // retire-epoch + 2) plus the caller's pin — or exclusivity —
        // guarantees it has not been freed while this reference lives.
        #[allow(unsafe_code)]
        unsafe {
            &*ptr
        }
    }

    /// Replace slot `id` with `value`, retiring the old box. **Single
    /// writer only.** The old value is freed once the collector's
    /// epoch has advanced two steps past the current one.
    pub fn publish(&self, id: u32, value: T, collector: &Collector) {
        debug_assert!(id < self.len());
        let fresh = Box::into_raw(Box::new(value));
        let old = self.cell(id).swap(fresh, Ordering::AcqRel);
        let epoch = collector.global_epoch();
        self.retired_total.fetch_add(1, Ordering::Relaxed);
        self.garbage.lock().expect("garbage lock poisoned").push((epoch, old));
        self.collect(collector);
    }

    /// Free retired boxes whose epoch is at least two behind, after
    /// attempting one epoch advance. Writer-side only (readers never
    /// touch the garbage lock).
    pub fn collect(&self, collector: &Collector) {
        let mut garbage = self.garbage.lock().expect("garbage lock poisoned");
        if garbage.is_empty() {
            return;
        }
        let global = collector.try_advance();
        let mut freed = 0u64;
        garbage.retain(|&(epoch, ptr)| {
            if epoch + 2 <= global {
                // SAFETY: retired at `epoch`, and the global epoch has
                // advanced twice since — per the module-level argument
                // no pinned reader can still hold this pointer, and
                // the single-writer rule means it was retired exactly
                // once.
                #[allow(unsafe_code)]
                unsafe {
                    drop(Box::from_raw(ptr));
                }
                freed += 1;
                false
            } else {
                true
            }
        });
        self.freed_total.fetch_add(freed, Ordering::Relaxed);
    }

    /// Drive epochs forward until the retire list drains (or a pinned
    /// reader blocks progress). Returns the number of boxes still
    /// pending. At quiescence (no guards alive) this always reaches 0.
    pub fn flush(&self, collector: &Collector) -> usize {
        // Each round advances the epoch at most one step; anything
        // already retired is freeable after two advances, so a third
        // round guarantees progress-to-empty when nothing is pinned.
        for _ in 0..3 {
            self.collect(collector);
            if self.retired() == 0 {
                break;
            }
        }
        self.retired()
    }

    /// Number of retired-but-not-yet-freed boxes.
    pub fn retired(&self) -> usize {
        self.garbage.lock().expect("garbage lock poisoned").len()
    }

    /// Lifetime `(retired, freed)` counters; at quiescence after
    /// [`AtomicSlots::flush`] they are equal (exactly-once
    /// reclamation, no leak, no double-free).
    pub fn reclamation_totals(&self) -> (u64, u64) {
        (
            self.retired_total.load(Ordering::Relaxed),
            self.freed_total.load(Ordering::Relaxed),
        )
    }

    /// Iterate the current contents of every allocated slot (id
    /// order). Same protection contract as [`AtomicSlots::get`].
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        (0..self.len()).map(move |id| self.get(id))
    }
}

impl<T> Drop for AtomicSlots<T> {
    fn drop(&mut self) {
        // Retired boxes first (disjoint from live slot contents).
        for (_, ptr) in self.garbage.get_mut().expect("garbage lock poisoned").drain(..) {
            // SAFETY: exclusive access; each garbage entry is a
            // uniquely-owned retired box.
            #[allow(unsafe_code)]
            unsafe {
                drop(Box::from_raw(ptr));
            }
        }
        // Live slot contents.
        for id in 0..*self.len.get_mut() {
            let ptr = self.cell(id).load(Ordering::Relaxed);
            if !ptr.is_null() {
                // SAFETY: exclusive access; every slot below `len`
                // holds a uniquely-owned live box.
                #[allow(unsafe_code)]
                unsafe {
                    drop(Box::from_raw(ptr));
                }
            }
        }
        // The segment allocations themselves.
        for (seg, cell) in self.segments.iter_mut().enumerate() {
            let base = *cell.get_mut();
            if !base.is_null() {
                // SAFETY: `base` came from `Box::<[AtomicPtr<T>]>::into_raw`
                // with exactly `segment_capacity(seg)` elements.
                #[allow(unsafe_code)]
                unsafe {
                    let slice = core::ptr::slice_from_raw_parts_mut(base, segment_capacity(seg));
                    drop(Box::from_raw(slice));
                }
            }
        }
    }
}

impl<T> core::fmt::Debug for AtomicSlots<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AtomicSlots")
            .field("len", &self.len())
            .field("retired", &self.retired())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_ladder_locates_every_boundary() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        let mut start = 0u32;
        for seg in 0..10usize {
            assert_eq!(locate(start), (seg, 0), "segment {seg} start");
            start += segment_capacity(seg) as u32;
            assert_eq!(locate(start - 1), (seg, segment_capacity(seg) - 1));
        }
    }

    #[test]
    fn push_get_round_trips_across_segments() {
        let slots: AtomicSlots<u64> = AtomicSlots::new();
        for i in 0..500u64 {
            assert_eq!(slots.push(i * 3), i as u32);
        }
        assert_eq!(slots.len(), 500);
        for i in 0..500u32 {
            assert_eq!(*slots.get(i), u64::from(i) * 3);
        }
        assert_eq!(slots.iter().count(), 500);
    }

    #[test]
    fn publish_retires_and_flush_drains_at_quiescence() {
        let collector = Collector::new();
        let slots: AtomicSlots<String> = AtomicSlots::new();
        slots.push("old".to_string());
        for round in 0..10 {
            slots.publish(0, format!("v{round}"), &collector);
        }
        assert_eq!(slots.get(0), "v9");
        assert_eq!(slots.flush(&collector), 0, "no pinned readers: retire list drains");
        let (retired, freed) = slots.reclamation_totals();
        assert_eq!(retired, 10);
        assert_eq!(freed, 10, "every retiree freed exactly once");
    }

    #[test]
    fn pinned_guard_blocks_reclamation() {
        let collector = Collector::new();
        let slots: AtomicSlots<u64> = AtomicSlots::new();
        slots.push(1);
        let guard = collector.pin();
        let before = collector.global_epoch();
        slots.publish(0, 2, &collector);
        slots.publish(0, 3, &collector);
        // The pinned guard allows at most one advance, which is not
        // enough to free anything retired at or after `before`.
        assert!(collector.global_epoch() <= before + 1);
        assert!(slots.flush(&collector) > 0, "pinned guard must hold garbage back");
        drop(guard);
        assert_eq!(slots.flush(&collector), 0, "unpinning releases everything");
        let (retired, freed) = slots.reclamation_totals();
        assert_eq!(retired, freed);
    }

    #[test]
    fn epoch_advances_require_current_pins_only() {
        let collector = Collector::new();
        let e0 = collector.global_epoch();
        let g1 = collector.pin();
        // A reader pinned at the current epoch permits one advance…
        let e1 = collector.try_advance();
        assert_eq!(e1, e0 + 1);
        // …but then blocks further progress until it unpins.
        assert_eq!(collector.try_advance(), e1);
        assert_eq!(collector.try_advance(), e1);
        drop(g1);
        assert_eq!(collector.try_advance(), e1 + 1);
    }

    #[test]
    fn guards_stack_and_release_slots() {
        let collector = Collector::new();
        let guards: Vec<_> = (0..32).map(|_| collector.pin()).collect();
        assert_eq!(collector.pinned_count(), 32);
        drop(guards);
        assert_eq!(collector.pinned_count(), 0);
    }

    #[test]
    fn concurrent_readers_see_only_live_values() {
        let collector = Collector::new();
        let slots: AtomicSlots<u64> = AtomicSlots::new();
        slots.push(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..2000 {
                        let guard = collector.pin();
                        let v = *slots.get(0);
                        assert!(v <= 2000, "observed value {v} was never published");
                        drop(guard);
                    }
                });
            }
            s.spawn(|| {
                for gen in 1..=2000u64 {
                    slots.publish(0, gen, &collector);
                }
            });
        });
        assert_eq!(slots.flush(&collector), 0);
        let (retired, freed) = slots.reclamation_totals();
        assert_eq!(retired, 2000);
        assert_eq!(retired, freed);
    }
}
