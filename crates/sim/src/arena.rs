//! Generational arena allocation and intrusive queues for kernel-side
//! object populations.
//!
//! The datacenter-scale refactor replaces per-object heap allocation
//! (boxed events, map-of-vec ACK batches, per-node `VecDeque`s) with index
//! handles into flat slabs. An [`Arena`] hands out [`Handle`]s — a slot
//! index plus a generation — so a stale handle to a reused slot is
//! detectable instead of silently aliasing a new tenant. Freed slots go on
//! a free list and are reused in LIFO order, which keeps the slab dense
//! and the reuse order deterministic. A [`Slab`] is the same free list
//! without generations, for rows that name themselves by a dense `u32`
//! slot. A [`FifoSet`] keeps FIFO queues of dense ids as links in one
//! flat table, and a [`BusyTable`] keeps a busy-until time per dense id
//! as a 4-byte offset from a rolling epoch.
//!
//! Generations start at 1 (a `NonZeroU32`), so `Option<Handle>` is the
//! same 8 bytes as a `Handle`.
//!
//! The arena also keeps the allocation counters the `scaling` experiment
//! reports: live population, high-water mark, total insertions, and slab
//! capacity (see [`ArenaStats`]).

use std::num::NonZeroU32;

use crate::time::{Duration, Time};

/// A generational handle into an [`Arena`].
///
/// Copyable and order-free: handles are only meaningful against the arena
/// that issued them. The generation disambiguates reuse — a handle whose
/// generation no longer matches its slot is dead and resolves to `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handle {
    slot: u32,
    generation: NonZeroU32,
}

impl Handle {
    /// The raw slot, for diagnostics only (not a stable identifier —
    /// slots are reused; the generation is what makes a handle unique).
    pub fn slot(self) -> u32 {
        self.slot
    }
}

/// One slab slot: the current generation plus the tenant, if any.
#[derive(Debug, Clone)]
struct Slot<T> {
    generation: NonZeroU32,
    value: Option<T>,
}

/// Allocation counters for one arena, in the shape the `scaling`
/// experiment reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Currently live entries.
    pub live: u64,
    /// Peak simultaneous live entries over the arena's lifetime.
    pub high_water: u64,
    /// Total insertions ever (reuse included).
    pub total_inserts: u64,
    /// Slab slots allocated (live + free-listed).
    pub slots: u64,
}

/// A generational slab allocator: `insert` returns a [`Handle`], `remove`
/// retires it and recycles the slot. All storage is two flat `Vec`s — no
/// per-entry heap allocation once the slab has grown to its working set.
#[derive(Debug, Clone)]
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: u64,
    high_water: u64,
    total_inserts: u64,
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            high_water: 0,
            total_inserts: 0,
        }
    }

    /// An empty arena with slab capacity for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        Arena {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            live: 0,
            high_water: 0,
            total_inserts: 0,
        }
    }

    /// Number of live entries.
    pub fn live(&self) -> u64 {
        self.live
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Allocation counters.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            live: self.live,
            high_water: self.high_water,
            total_inserts: self.total_inserts,
            slots: self.slots.len() as u64,
        }
    }

    /// Bytes of slab storage currently reserved (capacity, not live
    /// population) — the exact figure the `scaling` experiment charges
    /// per endpoint.
    pub fn state_bytes(&self) -> u64 {
        (self.slots.capacity() * std::mem::size_of::<Slot<T>>()
            + self.free.capacity() * std::mem::size_of::<u32>()) as u64
    }

    /// Inserts `value`, returning its handle. Reuses the most recently
    /// freed slot when one exists (LIFO — deterministic and cache-warm).
    pub fn insert(&mut self, value: T) -> Handle {
        self.total_inserts += 1;
        self.live += 1;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            s.value = Some(value);
            return Handle {
                slot,
                generation: s.generation,
            };
        }
        let slot = u32::try_from(self.slots.len()).unwrap_or(u32::MAX);
        debug_assert!(slot < u32::MAX, "arena slab exceeded u32 slots");
        self.slots.push(Slot {
            generation: NonZeroU32::MIN,
            value: Some(value),
        });
        Handle {
            slot,
            generation: NonZeroU32::MIN,
        }
    }

    /// Shared access to a live entry (`None` for stale or foreign handles).
    pub fn get(&self, h: Handle) -> Option<&T> {
        self.slots
            .get(h.slot as usize)
            .filter(|s| s.generation == h.generation)
            .and_then(|s| s.value.as_ref())
    }

    /// Exclusive access to a live entry.
    pub fn get_mut(&mut self, h: Handle) -> Option<&mut T> {
        self.slots
            .get_mut(h.slot as usize)
            .filter(|s| s.generation == h.generation)
            .and_then(|s| s.value.as_mut())
    }

    /// Removes a live entry, returning it and retiring the handle. A
    /// stale or foreign handle is a no-op returning `None`.
    pub fn remove(&mut self, h: Handle) -> Option<T> {
        let s = self.slots.get_mut(h.slot as usize)?;
        if s.generation != h.generation {
            return None;
        }
        let value = s.value.take()?;
        // Wraps from `u32::MAX` back to 1, never to 0.
        s.generation = s.generation.checked_add(1).unwrap_or(NonZeroU32::MIN);
        self.free.push(h.slot);
        self.live -= 1;
        Some(value)
    }
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena::new()
    }
}

/// A free-listed slab of rows at dense `u32` slots. `insert` stores a row
/// in the most recently freed slot (LIFO, like [`Arena`]) and appends a
/// new slot only when none is free, so the slab grows to the peak live
/// population, not to the number of rows ever inserted. A slot carries no
/// generation: the caller frees it only once nothing can still name it,
/// and a table kept beside the slab (a [`FifoSet`]'s links) grows only
/// when `insert` returns a slot past its end. A free slot holds `None`
/// (no bytes for rows with a niche), so [`Slab::get`] sees it as free.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    rows: Vec<Option<T>>,
    free: Vec<u32>,
    live: u64,
    high_water: u64,
    total_inserts: u64,
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab {
            rows: Vec::new(),
            free: Vec::new(),
            live: 0,
            high_water: 0,
            total_inserts: 0,
        }
    }

    /// Number of live rows.
    pub fn live(&self) -> u64 {
        self.live
    }

    /// Number of slots, live and free: one past the highest slot issued.
    pub fn slots(&self) -> usize {
        self.rows.len()
    }

    /// Allocation counters, in the [`Arena`]'s shape.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            live: self.live,
            high_water: self.high_water,
            total_inserts: self.total_inserts,
            slots: self.rows.len() as u64,
        }
    }

    /// Bytes of row and free-list storage reserved (capacity, not live
    /// population).
    pub fn state_bytes(&self) -> u64 {
        (self.rows.capacity() * std::mem::size_of::<Option<T>>()
            + self.free.capacity() * std::mem::size_of::<u32>()) as u64
    }

    /// Stores `row` and returns its slot: the most recently freed one, or
    /// [`Slab::slots`] (a new slot) when none is free.
    #[inline]
    pub fn insert(&mut self, row: T) -> u32 {
        self.total_inserts += 1;
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        if let Some(slot) = self.free.pop() {
            self.rows[slot as usize] = Some(row);
            return slot;
        }
        let slot = u32::try_from(self.rows.len()).unwrap_or(u32::MAX);
        debug_assert!(slot < u32::MAX, "slab exceeded u32 slots");
        self.rows.push(Some(row));
        slot
    }

    /// Frees `slot` for reuse and returns its row; `None`, changing
    /// nothing, when the slot is already free or was never issued.
    #[inline]
    pub fn remove(&mut self, slot: u32) -> Option<T> {
        let row = self.rows.get_mut(slot as usize)?.take()?;
        self.free.push(slot);
        self.live -= 1;
        Some(row)
    }

    /// The row at `slot` (`None` when free or never issued).
    #[inline]
    pub fn get(&self, slot: u32) -> Option<&T> {
        self.rows.get(slot as usize)?.as_ref()
    }

    /// The row at `slot`, mutably.
    #[inline]
    pub fn get_mut(&mut self, slot: u32) -> Option<&mut T> {
        self.rows.get_mut(slot as usize)?.as_mut()
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> std::ops::Index<u32> for Slab<T> {
    type Output = T;

    /// The row at a live `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is free or was never issued, as a `Vec` index
    /// past the end does.
    #[inline]
    fn index(&self, slot: u32) -> &T {
        match self.get(slot) {
            Some(row) => row,
            None => panic!("slab slot {slot} is not live"),
        }
    }
}

impl<T> std::ops::IndexMut<u32> for Slab<T> {
    #[inline]
    fn index_mut(&mut self, slot: u32) -> &mut T {
        match self.get_mut(slot) {
            Some(row) => row,
            None => panic!("slab slot {slot} is not live"),
        }
    }
}

/// The null id: an empty queue's head and tail, and the link behind a
/// queue's tail.
const NIL: u32 = u32::MAX;

/// A set of intrusive FIFO queues over dense `u32` ids: a head and tail
/// per queue, and one `next` link per id shared by every queue, so an id
/// sits in at most one queue at a time. Callers keep any lengths. The
/// operations are `#[inline]`: the packet models call them per event from
/// another crate, and the workspace has no LTO.
#[derive(Debug, Clone)]
pub struct FifoSet {
    head: Vec<u32>,
    tail: Vec<u32>,
    next: Vec<u32>,
}

impl FifoSet {
    /// `queues` empty queues and no ids.
    pub fn new(queues: usize) -> Self {
        FifoSet {
            head: vec![NIL; queues],
            tail: vec![NIL; queues],
            next: Vec::new(),
        }
    }

    /// Registers the next id (`0`, `1`, … in call order) with the set.
    #[inline]
    pub fn add_id(&mut self) {
        self.next.push(NIL);
    }

    /// Number of registered ids: every id below it has a link.
    #[inline]
    pub fn ids(&self) -> usize {
        self.next.len()
    }

    /// True when queue `q` holds no id.
    #[inline]
    pub fn is_empty(&self, q: usize) -> bool {
        self.head[q] == NIL
    }

    /// The id at the front of queue `q`, if any.
    #[inline]
    pub fn front(&self, q: usize) -> Option<u32> {
        let head = self.head[q];
        (head != NIL).then_some(head)
    }

    /// Appends `id` to the back of queue `q`.
    #[inline]
    pub fn push_back(&mut self, q: usize, id: u32) {
        self.next[id as usize] = NIL;
        let tail = self.tail[q];
        if tail == NIL {
            self.head[q] = id;
        } else {
            self.next[tail as usize] = id;
        }
        self.tail[q] = id;
    }

    /// Puts `id` at the front of queue `q`.
    #[inline]
    pub fn push_front(&mut self, q: usize, id: u32) {
        let head = self.head[q];
        self.next[id as usize] = head;
        if head == NIL {
            self.tail[q] = id;
        }
        self.head[q] = id;
    }

    /// Removes and returns the front of queue `q`.
    #[inline]
    pub fn pop_front(&mut self, q: usize) -> Option<u32> {
        let head = self.head[q];
        if head == NIL {
            return None;
        }
        let next = self.next[head as usize];
        self.head[q] = next;
        if next == NIL {
            self.tail[q] = NIL;
        }
        Some(head)
    }

    /// Unlinks and returns the first id of queue `q`, front to back, for
    /// which `pred` holds.
    #[inline]
    pub fn unlink_first(&mut self, q: usize, mut pred: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut prev = NIL;
        let mut cur = self.head[q];
        while cur != NIL {
            let next = self.next[cur as usize];
            if pred(cur) {
                if prev == NIL {
                    self.head[q] = next;
                } else {
                    self.next[prev as usize] = next;
                }
                if next == NIL {
                    self.tail[q] = prev;
                }
                return Some(cur);
            }
            prev = cur;
            cur = next;
        }
        None
    }

    /// Bytes reserved by the head, tail and link tables (capacity, not
    /// occupancy).
    pub fn state_bytes(&self) -> u64 {
        ((self.head.capacity() + self.tail.capacity() + self.next.capacity())
            * std::mem::size_of::<u32>()) as u64
    }
}

/// Busy-until times for a dense table of resources (Baldur's switch
/// output ports), stored as 4-byte offsets from one epoch base: entry `i`
/// is busy until `base + off[i]` ps. Half the bytes of a table of 8-byte
/// [`Time`]s, and as exact.
///
/// A claim whose end does not fit in a `u32` offset first rebases the
/// table: the base moves to the claim's `now` and every offset drops by
/// the gap, clamped at zero (all zero when the gap itself exceeds
/// `u32::MAX` ps). A busy entry keeps its exact time; an entry that was
/// free stays free, now busy until `now` at the latest. That is exact as
/// long as claim times never decrease, which holds for claims made at a
/// simulation's current time. The O(len) sweep runs at most once per
/// `2^32` ps minus the longest claim (about 4.3 ms of simulated time).
#[derive(Debug, Clone)]
pub struct BusyTable {
    base: Time,
    off: Vec<u32>,
}

impl BusyTable {
    /// The longest claim an offset can hold.
    pub const MAX_CLAIM: Duration = Duration::from_ps(u32::MAX as u64);

    /// `len` entries, all free from time zero. The zeroed table is a
    /// lazily zeroed allocation: its pages cost nothing until written.
    pub fn new(len: usize) -> Self {
        BusyTable {
            base: Time::ZERO,
            off: vec![0; len],
        }
    }

    /// The time entry `idx` is busy until (`None` out of range). Exact
    /// for an entry still busy at the last rebase; an entry free then
    /// reads no later than that rebase's time.
    #[inline]
    pub fn busy_until(&self, idx: usize) -> Option<Time> {
        let off = *self.off.get(idx)?;
        Some(self.base + Duration::from_ps(u64::from(off)))
    }

    /// Claims entry `idx` until `now + dur` if it is free at `now` (busy
    /// until no later than `now`) and returns true; returns false and
    /// changes nothing if it is busy.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range, or if the claim needs a rebase and
    /// `dur` exceeds [`BusyTable::MAX_CLAIM`].
    #[inline]
    pub fn claim(&mut self, idx: usize, now: Time, dur: Duration) -> bool {
        // Every offset is at least zero, so nothing is free before `base`.
        let Some(since) = now.as_ps().checked_sub(self.base.as_ps()) else {
            return false;
        };
        if u64::from(self.off[idx]) > since {
            return false;
        }
        self.off[idx] = match u32::try_from(since.saturating_add(dur.as_ps())) {
            Ok(end) => end,
            Err(_) => self.rebase(now, dur),
        };
        true
    }

    /// Moves the base to `now` keeping every busy entry's time, and
    /// returns `dur` as an offset from the new base.
    #[cold]
    fn rebase(&mut self, now: Time, dur: Duration) -> u32 {
        let Ok(dur) = u32::try_from(dur.as_ps()) else {
            panic!(
                "a {dur} claim exceeds the busy table's {} bound",
                Self::MAX_CLAIM
            );
        };
        match u32::try_from(now.since(self.base).as_ps()) {
            Ok(gap) => self.off.iter_mut().for_each(|o| *o = o.saturating_sub(gap)),
            Err(_) => self.off.fill(0),
        }
        self.base = now;
        dur
    }

    /// Bytes reserved by the offset table (capacity, not occupancy).
    pub fn state_bytes(&self) -> u64 {
        (self.off.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a = Arena::new();
        let h1 = a.insert("one");
        let h2 = a.insert("two");
        assert_eq!(a.get(h1), Some(&"one"));
        assert_eq!(a.get(h2), Some(&"two"));
        assert_eq!(a.live(), 2);
        assert_eq!(a.remove(h1), Some("one"));
        assert_eq!(a.get(h1), None);
        assert_eq!(a.live(), 1);
    }

    #[test]
    fn stale_handles_are_dead_after_reuse() {
        let mut a = Arena::new();
        let h1 = a.insert(1u64);
        assert_eq!(a.remove(h1), Some(1));
        let h2 = a.insert(2u64);
        // LIFO reuse: same slot, new generation.
        assert_eq!(h1.slot(), h2.slot());
        assert_ne!(h1, h2);
        assert_eq!(a.get(h1), None);
        assert_eq!(a.remove(h1), None);
        assert_eq!(a.get(h2), Some(&2));
    }

    #[test]
    fn option_handle_is_niche_packed_and_generations_skip_zero() {
        assert_eq!(std::mem::size_of::<Handle>(), 8);
        assert_eq!(std::mem::size_of::<Option<Handle>>(), 8);
        let mut a = Arena::new();
        let first = a.insert(1u8);
        // Retire the slot at the last generation: the next tenant wraps
        // to generation 1 and the retired handle stays dead.
        a.slots[0].generation = NonZeroU32::MAX;
        let last = Handle {
            slot: first.slot,
            generation: NonZeroU32::MAX,
        };
        assert_eq!(a.remove(last), Some(1));
        let next = a.insert(2u8);
        assert_eq!(next.generation, NonZeroU32::MIN);
        assert_eq!(a.get(last), None);
        assert_eq!(a.get(next), Some(&2));
    }

    #[test]
    fn counters_track_high_water_and_totals() {
        let mut a = Arena::new();
        let hs: Vec<Handle> = (0..10u64).map(|i| a.insert(i)).collect();
        for &h in &hs[..7] {
            a.remove(h);
        }
        a.insert(99);
        let s = a.stats();
        assert_eq!(s.live, 4);
        assert_eq!(s.high_water, 10);
        assert_eq!(s.total_inserts, 11);
        assert_eq!(s.slots, 10);
        assert!(a.state_bytes() > 0);
    }

    #[test]
    fn get_mut_edits_in_place() {
        let mut a = Arena::new();
        let h = a.insert(vec![1u32]);
        if let Some(v) = a.get_mut(h) {
            v.push(2);
        }
        assert_eq!(a.get(h), Some(&vec![1, 2]));
    }

    /// A set of `queues` queues with ids `0..ids` registered.
    fn fifo(queues: usize, ids: u32) -> FifoSet {
        let mut f = FifoSet::new(queues);
        for _ in 0..ids {
            f.add_id();
        }
        f
    }

    /// Pops queue `q` to empty, front to back.
    fn drain(f: &mut FifoSet, q: usize) -> Vec<u32> {
        std::iter::from_fn(|| f.pop_front(q)).collect()
    }

    #[test]
    fn fifo_push_front_onto_an_empty_queue_sets_head_and_tail() {
        let mut f = fifo(1, 3);
        f.push_front(0, 2);
        assert_eq!(f.front(0), Some(2));
        // The tail was set too: a push_back lands behind the pushed id.
        f.push_back(0, 0);
        f.push_front(0, 1);
        assert_eq!(drain(&mut f, 0), vec![1, 2, 0]);
    }

    #[test]
    fn fifo_pops_in_order_to_empty_and_is_reusable() {
        let mut f = fifo(1, 4);
        assert!(f.is_empty(0));
        assert_eq!(f.pop_front(0), None);
        for id in 0..4 {
            f.push_back(0, id);
        }
        assert!(!f.is_empty(0));
        assert_eq!(drain(&mut f, 0), vec![0, 1, 2, 3]);
        assert!(f.is_empty(0));
        assert_eq!(f.front(0), None);
        // Emptied by pops, the tail was reset: the next push is the head.
        f.push_back(0, 3);
        assert_eq!(f.front(0), Some(3));
        assert_eq!(drain(&mut f, 0), vec![3]);
    }

    #[test]
    fn fifo_unlink_first_at_head_middle_and_tail() {
        let mut f = fifo(1, 5);
        for id in 0..5 {
            f.push_back(0, id);
        }
        // Head.
        assert_eq!(f.unlink_first(0, |id| id == 0), Some(0));
        assert_eq!(f.front(0), Some(1));
        // Middle: the first match wins, later matches stay.
        assert_eq!(f.unlink_first(0, |id| id % 2 == 0), Some(2));
        // Tail: the tail moves back to its predecessor, so a later push
        // links behind 3, not behind the unlinked 4.
        assert_eq!(f.unlink_first(0, |id| id == 4), Some(4));
        f.push_back(0, 0);
        assert_eq!(f.unlink_first(0, |id| id > 9), None);
        assert_eq!(drain(&mut f, 0), vec![1, 3, 0]);
        // The only element is head and tail at once.
        f.push_back(0, 2);
        assert_eq!(f.unlink_first(0, |_| true), Some(2));
        assert!(f.is_empty(0));
        f.push_back(0, 1);
        assert_eq!(drain(&mut f, 0), vec![1]);
    }

    #[test]
    fn fifo_interleaved_queues_share_the_link_table() {
        let mut f = fifo(2, 6);
        for id in 0..6 {
            f.push_back((id % 2) as usize, id);
        }
        // Moves between the queues rewrite the shared links.
        assert_eq!(f.pop_front(1), Some(1));
        f.push_back(0, 1);
        assert_eq!(f.unlink_first(0, |id| id == 2), Some(2));
        f.push_front(1, 2);
        assert_eq!(drain(&mut f, 0), vec![0, 4, 1]);
        assert_eq!(drain(&mut f, 1), vec![2, 3, 5]);
        assert!(f.state_bytes() >= 4 * (2 + 2 + 6));
    }

    const EPOCH: u64 = 1 << 32;

    #[test]
    fn busy_claims_on_the_same_boundary_as_an_absolute_time() {
        let mut t = BusyTable::new(2);
        assert!(t.claim(0, Time::from_ps(10), Duration::from_ps(5)));
        assert_eq!(t.busy_until(0), Some(Time::from_ps(15)));
        assert!(!t.claim(0, Time::from_ps(14), Duration::from_ps(5)));
        // Busy until 15 means free at 15; a zero-length claim holds nothing.
        assert!(t.claim(0, Time::from_ps(15), Duration::ZERO));
        assert!(t.claim(0, Time::from_ps(15), Duration::from_ps(1)));
        assert_eq!(t.busy_until(1), Some(Time::ZERO));
        assert_eq!(t.busy_until(2), None);
        assert_eq!(t.state_bytes(), 8);
    }

    #[test]
    fn a_rebase_keeps_busy_times_exact_and_free_entries_free() {
        let mut t = BusyTable::new(3);
        let max = BusyTable::MAX_CLAIM;
        assert!(t.claim(0, Time::from_ps(EPOCH - 100), Duration::from_ps(99)));
        assert!(t.claim(1, Time::from_ps(EPOCH - 100), Duration::from_ps(30)));
        // Entry 2's claim ends past the epoch: the base moves to its start,
        // when entry 0 is still busy and entry 1 is free.
        assert!(t.claim(2, Time::from_ps(EPOCH - 60), max));
        assert_eq!(t.busy_until(0), Some(Time::from_ps(EPOCH - 1)));
        assert_eq!(t.busy_until(1), Some(Time::from_ps(EPOCH - 60)));
        assert_eq!(t.busy_until(2), Some(Time::from_ps(EPOCH - 60) + max));
        assert!(!t.claim(0, Time::from_ps(EPOCH - 2), Duration::ZERO));
        assert!(t.claim(0, Time::from_ps(EPOCH - 1), Duration::ZERO));
        assert!(t.claim(1, Time::from_ps(EPOCH - 60), Duration::ZERO));
    }

    #[test]
    fn an_idle_gap_past_an_epoch_clears_every_entry() {
        let mut t = BusyTable::new(2);
        assert!(t.claim(0, Time::from_ps(7), Duration::from_ps(3)));
        let later = Time::from_ps(3 * EPOCH);
        assert!(t.claim(1, later, Duration::from_ps(4)));
        assert_eq!(t.busy_until(0), Some(later));
        assert_eq!(t.busy_until(1), Some(later + Duration::from_ps(4)));
        assert!(t.claim(0, later, Duration::from_ps(1)));
    }

    #[test]
    #[should_panic(expected = "exceeds the busy table's")]
    fn a_claim_longer_than_an_offset_panics() {
        let mut t = BusyTable::new(1);
        t.claim(0, Time::ZERO, BusyTable::MAX_CLAIM + Duration::from_ps(1));
    }
}
