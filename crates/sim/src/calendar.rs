//! The scheduler's future event list: a calendar queue (Brown 1988).
//!
//! Day `at >> shift` lands in bucket `day & (buckets - 1)`. Every queued
//! event is one slot (40 bytes for a 16-byte event) of a single
//! free-listed slab, and each bucket is the `(head, tail)` of a
//! doubly-linked slot list sorted by `(time, seq)`: insert walks back from
//! the tail; pop unlinks the head found by scanning at most one "year" of
//! days from the cursor (then directly searching the heads). The slab
//! grows by half and reuses freed slots, and there are `len / 2` to
//! `2 · len` buckets, so the bytes are O(peak pending). The width comes
//! from the queue head ([`width_shift`]), so far-future timeouts do not
//! widen near-term buckets. A resize (doubling, halving, or re-estimating
//! the width when scans and walks average over [`COST_PER_OP`] steps per
//! operation) collects the live `(at, seq, slot)` triples from the bucket
//! lists, selects and sorts the earliest [`SAMPLE`] for the width, and
//! sorts and re-links the rest only if the bucket count or the width
//! changed: a re-estimate that keeps both moves nothing. The
//! [`CalendarQueue::resizes`] and [`CalendarQueue::relinked`] counters
//! count the re-links.
//!
//! A pop is one search, [`CalendarQueue::seek`], then an unlink of the
//! head it found, [`CalendarQueue::pop_head`]. The search moves the
//! cursor to the head's day even when the caller pops nothing, as the
//! scheduler does when a fixed-delay lane's head comes first; the next
//! search then starts at that head instead of rescanning the days before
//! it.

use crate::time::Time;

/// Null slab link.
const NIL: u32 = u32::MAX;

/// Bucket count the queue never shrinks below.
const MIN_BUCKETS: usize = 16;

/// Earliest events the bucket width is estimated from.
const SAMPLE: usize = 256;

/// Average scan-plus-walk steps per operation that trigger a re-estimate.
const COST_PER_OP: u64 = 8;

/// A queued event and its bucket-list links, or (with `event` empty) a
/// free slot whose `next` threads the free list.
struct Slot<E> {
    at: u64,
    seq: u64,
    prev: u32,
    next: u32,
    event: Option<E>,
}

/// The ends of a bucket's sorted slot list.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// The earliest event as [`CalendarQueue::seek`] found it: its
/// `(time, seq)` and the bucket whose head it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Head {
    /// Timestamp.
    pub at: Time,
    /// Tie-break sequence number.
    pub seq: u64,
    bucket: usize,
}

/// A calendar queue over `(Time, seq)`-ordered events.
pub struct CalendarQueue<E> {
    slab: Vec<Slot<E>>,
    /// First free slot.
    free: u32,
    buckets: Vec<Bucket>,
    /// Bucket width is `2^shift` picoseconds.
    shift: u32,
    /// Day the next scan starts at; no queued event is earlier.
    cursor: u64,
    len: usize,
    /// Operations (pushes and searches, a pop being one search), and
    /// buckets scanned plus entries walked past, since the last resize.
    ops: u64,
    cost: u64,
    /// Resizes so far, and the events they re-linked into new buckets.
    resizes: u64,
    relinked: u64,
}

impl<E> CalendarQueue<E> {
    /// An empty queue: 16 buckets of 1,024 ps.
    pub fn new() -> Self {
        CalendarQueue {
            slab: Vec::new(),
            free: NIL,
            buckets: vec![EMPTY; MIN_BUCKETS],
            shift: 10,
            cursor: 0,
            len: 0,
            ops: 0,
            cost: 0,
            resizes: 0,
            relinked: 0,
        }
    }

    /// Number of queued events.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Resizes so far that re-linked the queue into new buckets.
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// Events re-linked by all resizes so far.
    pub fn relinked(&self) -> u64 {
        self.relinked
    }

    /// Bytes reserved: slab capacity plus the bucket table.
    pub fn state_bytes(&self) -> u64 {
        let bytes = self.slab.capacity() * std::mem::size_of::<Slot<E>>()
            + self.buckets.capacity() * std::mem::size_of::<Bucket>();
        bytes as u64
    }

    fn bucket_of(&self, day: u64) -> usize {
        // Mask in u64 *before* narrowing: the masked value is < the bucket
        // count (a usize), so the cast can never truncate — even on a
        // 32-bit host where `day` alone would not fit.
        let wheel = day & (self.buckets.len() as u64 - 1);
        wheel as usize
    }

    fn slot(&self, i: u32) -> &Slot<E> {
        &self.slab[i as usize]
    }

    fn slot_mut(&mut self, i: u32) -> &mut Slot<E> {
        &mut self.slab[i as usize]
    }

    /// Links `slot` into bucket `b` after `prev` (first when `prev` is
    /// `NIL`).
    fn link(&mut self, b: usize, prev: u32, slot: u32) {
        let next = if prev == NIL {
            std::mem::replace(&mut self.buckets[b].head, slot)
        } else {
            std::mem::replace(&mut self.slot_mut(prev).next, slot)
        };
        if next == NIL {
            self.buckets[b].tail = slot;
        } else {
            self.slot_mut(next).prev = slot;
        }
        let s = self.slot_mut(slot);
        s.prev = prev;
        s.next = next;
    }

    /// Enqueues an event. Panics if 2^32 − 1 events are already queued.
    pub fn push(&mut self, at: Time, seq: u64, event: E) {
        let at = at.as_ps();
        let day = at >> self.shift;
        if self.len == 0 || day < self.cursor {
            self.cursor = day;
        }
        let s = Slot {
            at,
            seq,
            prev: NIL,
            next: NIL,
            event: Some(event),
        };
        let slot = if self.free == NIL {
            let slot = match u32::try_from(self.slab.len()) {
                Ok(slot) if slot != NIL => slot,
                _ => panic!("calendar queue: over 2^32 - 1 pending events"),
            };
            if self.slab.len() == self.slab.capacity() {
                // Grow by half, not double: at most 1.5x the peak.
                self.slab.reserve_exact(self.slab.len() / 2 + 16);
            }
            self.slab.push(s);
            slot
        } else {
            let slot = self.free;
            self.free = std::mem::replace(self.slot_mut(slot), s).next;
            slot
        };
        // Walk back from the tail to the last entry that sorts before us.
        let b = self.bucket_of(day);
        let mut prev = self.buckets[b].tail;
        while prev != NIL && (self.slot(prev).at, self.slot(prev).seq) > (at, seq) {
            prev = self.slot(prev).prev;
            self.cost += 1;
        }
        self.link(b, prev, slot);
        self.len += 1;
        self.ops += 1;
        if self.len > 2 * self.buckets.len() {
            self.resize(self.buckets.len() * 2);
        } else {
            self.rewidth_if_costly();
        }
    }

    /// The bucket holding the earliest event, that event's day, and the
    /// scan cost of finding it; `None` when empty.
    fn find_min(&self) -> Option<(usize, u64, u64)> {
        if self.len == 0 {
            return None;
        }
        // Scan one year from the cursor: no event precedes the cursor, so
        // a head within the year is in the year's first occupied day.
        let mut day = self.cursor;
        for scanned in 0..self.buckets.len() as u64 {
            let b = self.bucket_of(day);
            let head = self.buckets[b].head;
            if head != NIL && self.slot(head).at >> self.shift == day {
                return Some((b, day, scanned));
            }
            day = day.wrapping_add(1);
        }
        // Sparse case: the earliest head is the global minimum.
        let (at, _, b) = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, bucket)| bucket.head != NIL)
            .map(|(b, bucket)| (self.slot(bucket.head).at, self.slot(bucket.head).seq, b))
            .min()?;
        Some((b, at >> self.shift, 2 * self.buckets.len() as u64))
    }

    /// The `(time, seq)` of the earliest event.
    pub fn peek(&self) -> Option<(Time, u64)> {
        let (b, _, _) = self.find_min()?;
        let s = self.slot(self.buckets[b].head);
        Some((Time::from_ps(s.at), s.seq))
    }

    /// Finds the earliest event with one search and moves the cursor to
    /// its day (no queued event is earlier, so a later search starts
    /// there). The [`Head`] pops it with [`CalendarQueue::pop_head`] while
    /// no push or pop intervenes; `None` when empty.
    #[inline]
    pub fn seek(&mut self) -> Option<Head> {
        let (bucket, day, cost) = self.find_min()?;
        self.cursor = day;
        self.cost += cost;
        self.ops += 1;
        let s = self.slot(self.buckets[bucket].head);
        Some(Head {
            at: Time::from_ps(s.at),
            seq: s.seq,
            bucket,
        })
    }

    /// Dequeues the event `head` found, without searching again. `head`
    /// must come from the last [`CalendarQueue::seek`], with no push or
    /// pop since; the result is then always `Some`.
    #[inline]
    pub fn pop_head(&mut self, head: Head) -> Option<(Time, u64, E)> {
        let b = head.bucket;
        let slot = self.buckets[b].head;
        let next = self.slot(slot).next;
        self.buckets[b].head = next;
        if next == NIL {
            self.buckets[b].tail = NIL;
        } else {
            self.slot_mut(next).prev = NIL;
        }
        let free = std::mem::replace(&mut self.free, slot);
        let s = self.slot_mut(slot);
        s.next = free;
        let (at, seq, event) = (s.at, s.seq, s.event.take());
        debug_assert!(
            (Time::from_ps(at), seq) == (head.at, head.seq),
            "stale head"
        );
        self.len -= 1;
        if self.len < self.buckets.len() / 2 && self.buckets.len() > MIN_BUCKETS {
            self.resize(self.buckets.len() / 2);
        } else {
            self.rewidth_if_costly();
        }
        event.map(|e| (Time::from_ps(at), seq, e))
    }

    /// Dequeues the earliest event if it is due by `horizon`, with one
    /// search (`Time::MAX` dequeues any event). Otherwise only the cursor
    /// moves: `Err(None)` when the queue is empty, `Err(Some(at))` when
    /// the earliest event is at `at`, past `horizon`.
    #[cfg(test)]
    pub fn pop_due(&mut self, horizon: Time) -> Result<(Time, u64, E), Option<Time>> {
        let head = self.seek().ok_or(None)?;
        if head.at > horizon {
            return Err(Some(head.at));
        }
        self.pop_head(head).ok_or(None)
    }

    /// Re-estimates the width when the cost since the last resize exceeds
    /// [`COST_PER_OP`] per operation plus one year of slack (one direct
    /// search never triggers it); a long good stretch restarts the count.
    fn rewidth_if_costly(&mut self) {
        let n = self.buckets.len() as u64;
        if self.cost > COST_PER_OP * (self.ops + n) {
            self.resize(self.buckets.len());
        } else if self.ops > 16 * n {
            (self.ops, self.cost) = (0, 0);
        }
    }

    /// Re-estimates the width and re-links every queued event into
    /// `buckets` buckets with it; when neither the count nor the width
    /// changes, every event is already in its bucket and nothing moves.
    /// The width needs only the earliest [`SAMPLE`] events in order, so
    /// they are selected and sorted apart from the rest, which is sorted
    /// only for a re-link.
    fn resize(&mut self, buckets: usize) {
        let mut live: Vec<(u64, u64, u32)> = Vec::with_capacity(self.len);
        for bucket in &self.buckets {
            let mut i = bucket.head;
            while i != NIL {
                let s = self.slot(i);
                live.push((s.at, s.seq, i));
                i = s.next;
            }
        }
        let sample = live.len().min(SAMPLE);
        if live.len() > sample {
            live.select_nth_unstable(sample);
        }
        live[..sample].sort_unstable();
        let shift = width_shift(&live[..sample]).unwrap_or(self.shift);
        (self.ops, self.cost) = (0, 0);
        self.cursor = live.first().map_or(0, |&(at, _, _)| at >> shift);
        if shift == self.shift && buckets == self.buckets.len() {
            return;
        }
        live[sample..].sort_unstable();
        self.shift = shift;
        self.buckets = vec![EMPTY; buckets];
        for &(at, _, slot) in &live {
            let b = self.bucket_of(at >> self.shift);
            self.link(b, self.buckets[b].tail, slot);
        }
        self.resizes += 1;
        self.relinked += live.len() as u64;
    }
}

/// Brown's width rule over the earliest [`SAMPLE`] events, sorted, as a
/// power-of-two shift: three times the mean separation after dropping
/// separations over twice the mean (the plain mean if that leaves only
/// ties). `None` with fewer than two events.
fn width_shift(head: &[(u64, u64, u32)]) -> Option<u32> {
    let gaps = (head.len() as u64).checked_sub(1).filter(|&g| g > 0)?;
    let mean = (head[head.len() - 1].0 - head[0].0) / gaps;
    let (sum, kept) = head
        .windows(2)
        .map(|w| w[1].0 - w[0].0)
        .filter(|&gap| gap <= mean.saturating_mul(2))
        .fold((0u64, 0u64), |(sum, kept), gap| (sum + gap, kept + 1));
    let trimmed = if sum == 0 { mean } else { sum / kept };
    Some(trimmed.saturating_mul(3).max(1).ilog2())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Structural invariants: every bucket list is linked both ways,
    /// sorted, and holds only its own days (none before the cursor); live
    /// plus free slots make up the slab.
    fn check<E>(q: &CalendarQueue<E>) {
        let (mut live, mut free) = (0, 0);
        for (b, bucket) in q.buckets.iter().enumerate() {
            let (mut prev, mut i) = (NIL, bucket.head);
            while i != NIL {
                let s = q.slot(i);
                let day = s.at >> q.shift;
                assert!(s.event.is_some() && s.prev == prev && q.bucket_of(day) == b);
                assert!(day >= q.cursor, "event before the cursor");
                assert!(prev == NIL || (q.slot(prev).at, q.slot(prev).seq) < (s.at, s.seq));
                (prev, i, live) = (i, s.next, live + 1);
            }
            assert_eq!(bucket.tail, prev, "bucket {b}: stale tail");
        }
        let mut i = q.free;
        while i != NIL {
            assert!(q.slot(i).event.is_none(), "free list holds a live slot");
            (i, free) = (q.slot(i).next, free + 1);
        }
        assert_eq!((live, live + free), (q.len, q.slab.len()));
    }

    fn pop<E>(q: &mut CalendarQueue<E>) -> Option<(Time, u64, E)> {
        q.pop_due(Time::MAX).ok()
    }

    #[test]
    fn pop_due_leaves_a_later_head_queued() {
        let mut q = CalendarQueue::new();
        assert!(matches!(q.pop_due(Time::MAX), Err(None)));
        q.push(Time::from_ps(700), 0, "late");
        q.push(Time::from_ps(300), 1, "early");
        let Err(next) = q.pop_due(Time::from_ps(299)) else {
            panic!("nothing is due by 299 ps");
        };
        assert_eq!(next, Some(Time::from_ps(300)));
        check(&q);
        assert_eq!(q.len(), 2);
        let popped = q.pop_due(Time::from_ps(300)).ok();
        assert_eq!(popped, Some((Time::from_ps(300), 1, "early")));
        assert!(matches!(q.pop_due(Time::from_ps(699)), Err(Some(_))));
        assert_eq!(pop(&mut q), Some((Time::from_ps(700), 0, "late")));
        check(&q);
    }

    #[test]
    fn seek_moves_the_cursor_and_leaves_the_head_queued() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.seek(), None);
        // Two events more than a year of days apart: after the first pops,
        // the year scan from its day misses the second.
        let year = (q.buckets.len() as u64) << q.shift;
        q.push(Time::from_ps(100), 0, "near");
        q.push(Time::from_ps(100 + 3 * year), 1, "far");
        let Some(near) = q.seek() else {
            panic!("two events queued");
        };
        assert_eq!((near.at, near.seq), (Time::from_ps(100), 0));
        assert_eq!(q.pop_head(near), Some((Time::from_ps(100), 0, "near")));
        // The search for the far head moves the cursor to its day and
        // leaves it queued; the next search finds it at the cursor.
        let far = q.seek();
        assert_eq!(
            far.map(|h| (h.at, h.seq)),
            Some((Time::from_ps(100 + 3 * year), 1))
        );
        assert_eq!(q.cursor, (100 + 3 * year) >> q.shift);
        assert_eq!(q.len(), 1);
        check(&q);
        let cost = q.cost;
        assert_eq!(q.seek(), far);
        assert_eq!(q.cost, cost, "a head at the cursor costs no scan");
        // A push before the cursor moves it back and wins the next search.
        q.push(Time::from_ps(200), 2, "early");
        check(&q);
        let Some(early) = q.seek() else {
            panic!("two events queued");
        };
        assert_eq!(q.pop_head(early), Some((Time::from_ps(200), 2, "early")));
        assert_eq!(pop(&mut q).map(|(_, _, e)| e), Some("far"));
        check(&q);
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(Time::from_ps(50), 1, "b");
        q.push(Time::from_ps(10), 2, "a");
        q.push(Time::from_ps(50), 0, "c");
        q.push(Time::from_ps(10_000), 3, "d");
        check(&q);
        let order: Vec<&str> = std::iter::from_fn(|| pop(&mut q).map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec!["a", "c", "b", "d"]);
    }

    #[test]
    fn survives_resizes_with_mixed_scales() {
        let mut q = CalendarQueue::new();
        // Mix ps-scale and ms-scale events to force geometry churn.
        let mut expect = Vec::new();
        for i in 0..2_000u64 {
            let t = if i % 3 == 0 { i } else { i * 1_000_000 };
            q.push(Time::from_ps(t), i, (t, i));
            expect.push((t, i));
        }
        check(&q);
        expect.sort_unstable();
        let mut got = Vec::new();
        while let Some(head) = q.peek() {
            let (t, seq, e) = pop(&mut q).expect("peeked");
            assert_eq!(head, (t, seq), "peek disagrees with pop");
            got.push(e);
        }
        assert_eq!(got, expect);
        check(&q);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        let mut last = 0u64;
        let mut pending = 0usize;
        let mut x: u64 = 0x12345;
        for step in 0..5_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if pending == 0 || !x.is_multiple_of(3) {
                // Push an event at or after the last popped time.
                let t = last + x % 1_000;
                q.push(Time::from_ps(t), seq, t);
                seq += 1;
                pending += 1;
            } else {
                let (t, _, _) = pop(&mut q).expect("pending > 0");
                assert!(t.as_ps() >= last, "{} < {last}", t.as_ps());
                last = t.as_ps();
                pending -= 1;
            }
            if step % 500 == 0 {
                check(&q);
            }
        }
    }

    #[test]
    fn width_comes_from_the_queue_head_not_far_timeouts() {
        let mut q = CalendarQueue::new();
        // 4,000 events one picosecond apart, plus one far-future timeout
        // per 20: the span-based rule would make buckets ~25,000 ps wide.
        for i in 0..4_000u64 {
            q.push(Time::from_ps(i), i, ());
            if i % 20 == 0 {
                q.push(
                    Time::from_ps(1_000_000_000 + i * 100_000),
                    i + 1_000_000,
                    (),
                );
            }
        }
        check(&q);
        assert!(q.shift <= 2, "bucket width {} ps", 1u64 << q.shift);
    }

    /// The slab is sized by the peak population, not by any bucket's
    /// history: push to 200K clustered events, drain to 1K, four times
    /// over. The per-bucket `Vec` layout this replaced measured about 890
    /// bytes per pending event on this shape of load.
    #[test]
    fn bytes_stay_proportional_to_peak_pending() {
        let mut q = CalendarQueue::new();
        let (mut x, mut seq, mut now) = (0xBA1Du64, 0u64, 0u64);
        for round in 0..4 {
            while q.len() < 200_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                // Most events within 64 ns, one in 20 a far timeout.
                let ahead = if x.is_multiple_of(20) {
                    10_000_000 + (x >> 20) % 1_000_000_000
                } else {
                    (x >> 20) % 64_000
                };
                q.push(Time::from_ps(now + ahead), seq, seq);
                seq += 1;
            }
            while q.len() > 1_000 {
                now = pop(&mut q).expect("non-empty").0.as_ps();
            }
            check(&q);
            let table = (q.buckets.capacity() * std::mem::size_of::<Bucket>()) as u64;
            assert!(table <= 16 * 1_000, "round {round}: {table} table bytes");
            let bytes = q.state_bytes();
            assert!(
                bytes <= 64 * 200_000 + table,
                "round {round}: {bytes} bytes"
            );
        }
    }

    /// The churn a tie-heavy queue used to cause, pinned by the resize
    /// counters: clusters of 260 events tied at one instant, 100 ns
    /// apart. The earliest [`SAMPLE`] events are all ties, so the width
    /// rule picks 1 ps buckets and each cluster change is a direct search
    /// of the whole table, whose cost keeps triggering re-estimates that
    /// pick the same width at the same bucket count. When every re-estimate
    /// re-linked the queue, the 200 cluster changes below made 21 resizes
    /// that re-linked 109,179 events; now they re-link nothing.
    #[test]
    fn a_rewidth_that_keeps_the_geometry_relinks_nothing() {
        let mut q = CalendarQueue::new();
        let (cluster, gap) = (260, 100_000u64);
        let mut seq = 0u64;
        let mut push_cluster = |q: &mut CalendarQueue<()>, c: u64| {
            for _ in 0..cluster {
                q.push(Time::from_ps(c * gap), seq, ());
                seq += 1;
            }
        };
        for c in 0..20 {
            push_cluster(&mut q, c);
        }
        // Eight doublings from 16 buckets to 4,096 re-link 33 + 65 + ...
        // + 4,097 events.
        assert_eq!((q.resizes(), q.relinked()), (8, 8_168));
        assert_eq!((q.buckets.len(), q.shift), (4_096, 0));
        for c in 20..220 {
            for _ in 0..cluster {
                assert!(pop(&mut q).is_some());
            }
            push_cluster(&mut q, c);
        }
        check(&q);
        assert_eq!((q.resizes(), q.relinked()), (8, 8_168));
        assert_eq!((q.buckets.len(), q.shift), (4_096, 0));
    }
}
