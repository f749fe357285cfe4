//! Hierarchical timing wheel — the simulator's O(1) event scheduler.
//!
//! The event loop used to pay an O(log n) `BinaryHeap` pop per event,
//! where n is every pending event across every flow; at 100+ contending
//! flows the heap holds tens of thousands of entries and the comparisons
//! (plus their cache misses) dominate the run. This wheel replaces the
//! heap with slot indexing:
//!
//! * the **inner wheel** (level 0) has 64 slots of 2²⁰ ns ≈ 1.05 ms —
//!   TTI-scale granularity, matching the millisecond cadence of cell
//!   delivery opportunities and the 5 ms ε epochs;
//! * each of the 5 **overflow levels** covers 64× the span of the level
//!   below (level 5 slots are ≈ 13 days wide, for a total horizon of
//!   ≈ 2.3 simulated years); events beyond that go to an overflow list
//!   that is re-placed if the cursor ever gets there;
//! * every level keeps a 64-bit **occupancy bitmap**, so "find the next
//!   non-empty slot" is a rotate + `trailing_zeros`, not a scan.
//!
//! Scheduling an event indexes a slot and pushes onto its `Vec`; popping
//! takes from the *current bucket*, the events of the granule being
//! processed. A refill moves the next granule's events into the bucket
//! and sorts them once, by descending `(time, tie)`, so each pop is a
//! `Vec::pop` off the back rather than a heap sift. A busy granule is not
//! small: a 10 000-flow cell crowd parks a few hundred events in each.
//! An event scheduled into the granule being drained is a sorted insert;
//! that is rare (about 400 of 2.5 million events in that crowd), because
//! the event loop's delays mostly exceed a granule. Slot `Vec`s and the bucket keep their
//! capacity, so steady state allocates nothing. The simulator and the
//! transport's timer plane share this one structure.
//!
//! ## Determinism
//!
//! Events are delivered in exactly the global `(time, tie)` order a
//! `BinaryHeap` would produce: the caller's tie-breaker is part of the
//! sort key inside each granule bucket, and granules are visited in
//! time order. Ties need not be globally monotone — the event loop's
//! canonical ties (per-flow counters, see `crate::sim`) interleave
//! freely — they only have to make `(time, tie)` unique among pending
//! events. `tests::matches_reference_heap` pins this against a
//! `BinaryHeap` oracle over adversarial schedules.
//!
//! ## Cascading correctness
//!
//! A refill must *compare level candidates by slot start time* rather
//! than greedily serving level 0: an event parked at level 1 (it was
//! ≥ 64 granules away when inserted) can become nearer than a level-0
//! event once the cursor advances, and must cascade down before the
//! level-0 slot after it is consumed. Ties between levels cascade the
//! higher level first so equal-granule events merge before popping.

use verus_nettypes::SimTime;

/// log2 of the inner-slot width in nanoseconds (2²⁰ ns ≈ 1.05 ms).
/// Crate-visible: the event loop quantizes RTO deadlines to this
/// granule so per-ACK deadline churn costs one insert per granule.
pub(crate) const GRAN_BITS: u32 = 20;

/// Width of one inner-wheel granule (2²⁰ ns ≈ 1.05 ms) as a duration —
/// the wheel's scheduling resolution. External consumers (the transport
/// shard server quantizes its RTO re-arms exactly like the event loop
/// does) size their deadline coalescing from this instead of hardcoding
/// a copy of `GRAN_BITS`.
#[must_use]
pub fn granule() -> verus_nettypes::SimDuration {
    verus_nettypes::SimDuration::from_nanos(1 << GRAN_BITS)
}
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels above the current-granule bucket.
const LEVELS: usize = 6;

/// One scheduled entry. Ordering ignores the payload: `(time, tie)` is
/// a total order because ties are unique.
struct Entry<K> {
    time: u64,
    tie: u64,
    kind: K,
}

impl<K> Entry<K> {
    fn key(&self) -> (u64, u64) {
        (self.time, self.tie)
    }
}

struct Level<K> {
    /// Bit i set ⇔ `slots[i]` is non-empty.
    occ: u64,
    slots: Vec<Vec<Entry<K>>>,
}

impl<K> Level<K> {
    fn new() -> Self {
        Self {
            occ: 0,
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
        }
    }
}

/// A hierarchical timing wheel over nanosecond [`SimTime`] stamps.
///
/// `K` is the event payload. The caller supplies a `tie` making
/// `(time, tie)` unique; [`TimingWheel::pop_next`] returns events in
/// `(time, tie)` order.
pub struct TimingWheel<K> {
    /// Cursor: every event with `time < cur` has been popped. Always a
    /// lower bound on the earliest pending event.
    cur: u64,
    /// The events of the granule currently being drained, sorted by
    /// *descending* `(time, tie)` so the next event pops off the back.
    current: Vec<Entry<K>>,
    levels: Vec<Level<K>>,
    /// Events beyond the top level's horizon (≈ 2.3 simulated years).
    overflow: Vec<Entry<K>>,
    len: usize,
}

impl<K> Default for TimingWheel<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> TimingWheel<K> {
    /// An empty wheel with its cursor at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            cur: 0,
            current: Vec::new(),
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            overflow: Vec::new(),
            len: 0,
        }
    }

    /// Pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `kind` at `time`. `(time, tie)` must be unique among
    /// pending events (ties may otherwise repeat or decrease across
    /// calls); `time` must be no earlier than the last popped event's
    /// time.
    pub fn schedule(&mut self, time: SimTime, tie: u64, kind: K) {
        self.len += 1;
        let e = Entry {
            time: time.as_nanos(),
            tie,
            kind,
        };
        if self.in_cursor_granule(&e) {
            // The granule being drained (or, defensively, the past —
            // the simulator never schedules before its own clock): a
            // sorted insert keeps the bucket's pop order.
            let key = e.key();
            let at = self.current.partition_point(|x| x.key() > key);
            self.current.insert(at, e);
        } else {
            self.park(e);
        }
    }

    /// Removes and returns the earliest event as `(time, tie, kind)`.
    pub fn pop_next(&mut self) -> Option<(SimTime, u64, K)> {
        if self.current.is_empty() && !self.refill() {
            return None;
        }
        let e = self.current.pop()?;
        self.len -= 1;
        Some((SimTime::from_nanos(e.time), e.tie, e.kind))
    }

    /// The earliest pending event's `(time, tie)` without removing it —
    /// the deadline a wall-clock driver sleeps toward. Takes `&mut self`
    /// because finding the minimum may refill the current bucket (and so
    /// advance the cursor); as documented on [`TimingWheel::pop_next_before`],
    /// that is safe for later `schedule` calls.
    pub fn peek_next(&mut self) -> Option<(SimTime, u64)> {
        if self.current.is_empty() && !self.refill() {
            return None;
        }
        self.current
            .last()
            .map(|e| (SimTime::from_nanos(e.time), e.tie))
    }

    /// Like [`TimingWheel::pop_next`], but only if the earliest event's
    /// time is `≤ bound`; otherwise returns `None` and leaves the event
    /// pending. The sharded engine drains each worker up to a barrier
    /// time with this.
    ///
    /// A `None` may still have advanced the cursor to the (out-of-bound)
    /// earliest event's granule. That is safe for later `schedule` calls
    /// with times in `(bound, earliest]`: `schedule` sorts a time at or
    /// before the cursor's granule into the current bucket, so
    /// `(time, tie)` pop order is preserved. The bounded-oracle test
    /// below pins exactly this shape.
    pub fn pop_next_before(&mut self, bound: SimTime) -> Option<(SimTime, u64, K)> {
        if self.current.is_empty() && !self.refill() {
            return None;
        }
        // After a refill the current bucket holds the earliest pending
        // granule, and every slot/overflow event is in a strictly later
        // granule — so the bucket top is the global minimum.
        let top = self.current.last()?;
        if top.time > bound.as_nanos() {
            return None;
        }
        let e = self.current.pop()?;
        self.len -= 1;
        Some((SimTime::from_nanos(e.time), e.tie, e.kind))
    }

    /// Whether `e` belongs in the current bucket: its granule is the
    /// cursor's (or earlier).
    fn in_cursor_granule(&self, e: &Entry<K>) -> bool {
        e.time >> GRAN_BITS <= self.cur >> GRAN_BITS
    }

    /// Files an entry past the cursor's granule into a wheel slot, or
    /// into overflow beyond the top level's horizon.
    fn park(&mut self, e: Entry<K>) {
        for (l, level) in self.levels.iter_mut().enumerate() {
            let shift = GRAN_BITS + SLOT_BITS * u32::try_from(l).unwrap_or(0);
            if (e.time >> shift) - (self.cur >> shift) < SLOTS as u64 {
                // Masked to 6 bits, so the cast cannot truncate.
                let slot = ((e.time >> shift) & 63) as usize; // verus-check: allow(no-truncating-cast)
                level.slots[slot].push(e);
                level.occ |= 1 << slot;
                return;
            }
        }
        self.overflow.push(e);
    }

    /// Advances the cursor to the next non-empty slot (cascading outer
    /// levels as needed), loads it into the current bucket and sorts the
    /// bucket. Returns `false` when the wheel is empty. Called only on
    /// an empty bucket, so the bucket is filled unsorted and sorted once.
    ///
    /// The loop keeps consuming candidate slots until *no remaining slot
    /// can hold an event in the current bucket's granule*: a level-0
    /// slot and an outer-level slot can share the same start granule, and
    /// both must merge into the bucket before anything pops, or the
    /// bucket would emit a later event while an equal-granule slot still
    /// holds an earlier one.
    fn refill(&mut self) -> bool {
        loop {
            // Candidate = (slot start time, level). Pick the earliest
            // start; on equal starts cascade the *higher* level first so
            // its events trickle down before lower slots drain.
            let mut best: Option<(u64, usize)> = None;
            for (l, level) in self.levels.iter().enumerate() {
                if level.occ == 0 {
                    continue;
                }
                let shift = GRAN_BITS + SLOT_BITS * u32::try_from(l).unwrap_or(0);
                let cur_idx = self.cur >> shift;
                // Rotate the bitmap so bit k means "k slots ahead of the
                // cursor"; all live slots are < 64 ahead by invariant.
                let base = u32::try_from(cur_idx & 63).unwrap_or(0);
                let k = u64::from(level.occ.rotate_right(base).trailing_zeros());
                let start = (cur_idx + k) << shift;
                let better = match best {
                    None => true,
                    Some((t, bl)) => start < t || (start == t && l > bl),
                };
                if better {
                    best = Some((start, l));
                }
            }
            let Some((start, l)) = best else {
                if !self.current.is_empty() {
                    self.sort_current();
                    return true;
                }
                // Every level empty: pull the overflow back in, if any.
                if self.overflow.is_empty() {
                    return false;
                }
                let min_t = self.overflow.iter().map(|e| e.time).min().unwrap_or(0);
                self.cur = self.cur.max((min_t >> GRAN_BITS) << GRAN_BITS);
                let pending = std::mem::take(&mut self.overflow);
                for e in pending {
                    self.file(e);
                }
                continue;
            };
            if !self.current.is_empty() {
                // The bucket holds the cursor's granule. Stop once the
                // nearest slot starts past that granule — it cannot hold
                // an event that should pop before the bucket drains.
                let granule_end = ((self.cur >> GRAN_BITS) + 1) << GRAN_BITS;
                if start >= granule_end {
                    self.sort_current();
                    return true;
                }
            }
            let shift = GRAN_BITS + SLOT_BITS * u32::try_from(l).unwrap_or(0);
            // Masked to 6 bits, so the cast cannot truncate.
            let slot = ((start >> shift) & 63) as usize; // verus-check: allow(no-truncating-cast)
            self.cur = self.cur.max(start);
            let mut events = std::mem::take(&mut self.levels[l].slots[slot]);
            self.levels[l].occ &= !(1u64 << slot);
            if l == 0 {
                self.current.append(&mut events);
            } else {
                for e in events.drain(..) {
                    self.file(e);
                }
            }
            // Hand the (empty) Vec back so the slot keeps its capacity.
            self.levels[l].slots[slot] = events;
        }
    }

    /// Refill's routing: an entry in the cursor's granule joins the
    /// (still unsorted) bucket, any later one is parked.
    fn file(&mut self, e: Entry<K>) {
        if self.in_cursor_granule(&e) {
            self.current.push(e);
        } else {
            self.park(e);
        }
    }

    /// Sorts the freshly filled bucket by descending `(time, tie)`.
    /// Keys are unique, so the unstable sort is deterministic.
    fn sort_current(&mut self) {
        self.current
            .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Local deterministic RNG — the workspace `rand` is an offline stub
    /// whose uniform draws are constant, useless for schedule shuffling.
    struct SplitMix64(u64);
    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Drains `wheel` and a reference heap in lockstep, asserting
    /// identical `(time, tie, kind)` streams.
    fn assert_matches_heap(mut wheel: TimingWheel<u32>, mut heap: Vec<(u64, u64, u32)>) {
        heap.sort_by_key(|&(t, tie, _)| (t, tie));
        let mut got = Vec::new();
        while let Some((t, tie, k)) = wheel.pop_next() {
            got.push((t.as_nanos(), tie, k));
        }
        assert_eq!(got, heap);
        assert!(wheel.is_empty());
    }

    #[test]
    fn empty_wheel_pops_none() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        assert!(w.pop_next().is_none());
        assert!(w.is_empty());
    }

    #[test]
    fn same_time_events_pop_fifo() {
        let mut w = TimingWheel::new();
        for tie in 0..100u64 {
            w.schedule(SimTime::from_millis(5), tie, tie as u32);
        }
        let mut last = None;
        while let Some((t, tie, _)) = w.pop_next() {
            assert_eq!(t, SimTime::from_millis(5));
            assert!(last < Some(tie), "FIFO order violated");
            last = Some(tie);
        }
    }

    #[test]
    fn matches_reference_heap_random_batch() {
        let mut rng = SplitMix64(7);
        let mut w = TimingWheel::new();
        let mut reference = Vec::new();
        for tie in 0..20_000u64 {
            // Mix of granule-local, near, far, and very far times.
            let t = match rng.next() % 4 {
                0 => rng.next() % 1_000_000,                 // sub-granule
                1 => rng.next() % 100_000_000,               // level 0/1
                2 => rng.next() % 600_000_000_000,           // 10 min
                _ => rng.next() % (86_400_000_000_000 * 30), // a month
            };
            w.schedule(SimTime::from_nanos(t), tie, (tie % 97) as u32);
            reference.push((t, tie, (tie % 97) as u32));
        }
        assert_matches_heap(w, reference);
    }

    #[test]
    fn matches_reference_heap_interleaved_pop_push() {
        // The adversarial shape for cascading: schedule relative to the
        // *popped* time so events constantly land near (and sometimes
        // just beyond) level boundaries while the cursor moves.
        let mut rng = SplitMix64(99);
        let mut w = TimingWheel::new();
        let mut pending: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>> =
            std::collections::BinaryHeap::new();
        let mut tie = 0u64;
        let sched = |w: &mut TimingWheel<u32>,
                         pending: &mut std::collections::BinaryHeap<_>,
                         t: u64,
                         tie: &mut u64| {
            w.schedule(SimTime::from_nanos(t), *tie, 0);
            pending.push(std::cmp::Reverse((t, *tie)));
            *tie += 1;
        };
        for _ in 0..50 {
            sched(&mut w, &mut pending, rng.next() % 10_000_000, &mut tie);
        }
        let mut now = 0u64;
        for _ in 0..30_000 {
            let Some((t, got_tie, _)) = w.pop_next() else {
                break;
            };
            let std::cmp::Reverse((et, etie)) = pending.pop().expect("reference non-empty");
            assert_eq!((t.as_nanos(), got_tie), (et, etie), "order diverged");
            assert!(t.as_nanos() >= now, "time went backwards");
            now = t.as_nanos();
            // Keep ~2 new events per pop, biased to boundary distances.
            for _ in 0..(rng.next() % 3) {
                let delta = match rng.next() % 5 {
                    0 => rng.next() % (1 << GRAN_BITS),          // same granule
                    1 => (1 << GRAN_BITS) * 63 + rng.next() % (1 << GRAN_BITS) * 2,
                    2 => rng.next() % (1 << (GRAN_BITS + SLOT_BITS)),
                    3 => rng.next() % (1 << (GRAN_BITS + 2 * SLOT_BITS)),
                    _ => rng.next() % 50_000,
                };
                sched(&mut w, &mut pending, now + delta, &mut tie);
            }
        }
        // Drain both to the end.
        while let Some((t, got_tie, _)) = w.pop_next() {
            let std::cmp::Reverse((et, etie)) = pending.pop().expect("reference non-empty");
            assert_eq!((t.as_nanos(), got_tie), (et, etie));
        }
        assert!(pending.is_empty());
    }

    #[test]
    fn same_granule_inserts_interleaved_with_pops_match_reference_heap() {
        // The sorted bucket's insert path: thousands of schedules into
        // the granule being drained, at times before, between and after
        // the pending ones, interleaved with plain and bounded pops. A
        // second granule is kept busy too so refills keep re-sorting.
        let g = 1u64 << GRAN_BITS;
        let mut rng = SplitMix64(2024);
        let mut w = TimingWheel::new();
        let mut pending: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64, u32)>> =
            std::collections::BinaryHeap::new();
        let mut tie = 0u64;
        let mut now = 0u64;
        let mut same_granule = 0;
        for step in 0..6_000u32 {
            // Keep ties interleaved rather than monotone, like the event
            // loop's per-flow counters: unique but unordered.
            let t = now + rng.next() % (g - now % g);
            let key = (tie * 7919) % 1_000_003;
            tie += 1;
            w.schedule(SimTime::from_nanos(t), key, step);
            pending.push(std::cmp::Reverse((t, key, step)));
            if t >> GRAN_BITS == now >> GRAN_BITS {
                same_granule += 1;
            }
            if rng.next().is_multiple_of(4) {
                // A later granule's event, so the next refill sorts a
                // bucket that already saw inserts.
                let t = now + g + rng.next() % (3 * g);
                let key = 1_000_003 + tie;
                tie += 1;
                w.schedule(SimTime::from_nanos(t), key, step);
                pending.push(std::cmp::Reverse((t, key, step)));
            }
            for _ in 0..(rng.next() % 3) {
                let got = if rng.next().is_multiple_of(2) {
                    w.pop_next()
                } else {
                    // Bound inside the pending range: either pops the
                    // minimum or refuses it, never anything else.
                    let bound = now + rng.next() % (g / 2);
                    match w.pop_next_before(SimTime::from_nanos(bound)) {
                        None => {
                            let min = pending.peek().map(|r| r.0 .0);
                            assert!(min.is_none_or(|m| m > bound), "refused an in-bound event");
                            continue;
                        }
                        some => some,
                    }
                };
                let (t, got_tie, k) = got.expect("wheel non-empty");
                let std::cmp::Reverse(want) = pending.pop().expect("reference non-empty");
                assert_eq!((t.as_nanos(), got_tie, k), want, "step {step}");
                now = t.as_nanos();
            }
        }
        assert!(
            same_granule >= 1_000,
            "only {same_granule} same-granule schedules"
        );
        while let Some((t, got_tie, k)) = w.pop_next() {
            let std::cmp::Reverse(want) = pending.pop().expect("reference non-empty");
            assert_eq!((t.as_nanos(), got_tie, k), want);
        }
        assert!(pending.is_empty());
    }

    #[test]
    fn bounded_pop_respects_the_bound() {
        let mut w = TimingWheel::new();
        w.schedule(SimTime::from_nanos(100), 0, 1);
        w.schedule(SimTime::from_nanos(200), 1, 2);
        w.schedule(SimTime::from_millis(500), 2, 3);
        assert_eq!(
            w.pop_next_before(SimTime::from_nanos(150)).map(|(_, _, k)| k),
            Some(1)
        );
        assert_eq!(w.pop_next_before(SimTime::from_nanos(150)), None);
        assert_eq!(w.len(), 2);
        assert_eq!(
            w.pop_next_before(SimTime::from_nanos(200)).map(|(_, _, k)| k),
            Some(2)
        );
        // The remaining event is far future; a bounded pop refuses it
        // even after the refill has advanced the cursor toward it.
        assert_eq!(w.pop_next_before(SimTime::from_millis(1)), None);
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(3));
        assert!(w.pop_next_before(SimTime::from_secs(10)).is_none());
    }

    #[test]
    fn schedule_between_bound_and_refused_event_still_pops_in_order() {
        // The sharded round shape: a bounded pop refuses a far-future
        // event (cursor may now sit at its granule), then the merger
        // schedules deliveries *earlier* than that event but after the
        // bound. They must pop before the refused event.
        let g = 1u64 << GRAN_BITS;
        let mut w = TimingWheel::new();
        w.schedule(SimTime::from_nanos(10), 0, 10);
        w.schedule(SimTime::from_nanos(90 * g), 1, 90);
        assert_eq!(w.pop_next_before(SimTime::from_nanos(50)).map(|(_, _, k)| k), Some(10));
        // Bound well before the granule-90 event: refused.
        assert_eq!(w.pop_next_before(SimTime::from_nanos(2 * g)), None);
        // Batch arrivals between the bound and the refused event, one of
        // them in the refused event's own granule.
        w.schedule(SimTime::from_nanos(5 * g), 2, 5);
        w.schedule(SimTime::from_nanos(90 * g - 1), 3, 89);
        w.schedule(SimTime::from_nanos(90 * g + 1), 4, 91);
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(5));
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(89));
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(90));
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(91));
        assert!(w.is_empty());
    }

    #[test]
    fn bounded_pop_matches_reference_heap_rounds() {
        // Round-based oracle: drain in bounded windows with fresh events
        // scheduled between rounds, against a sorted reference.
        let mut rng = SplitMix64(41);
        let mut w = TimingWheel::new();
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let mut tie = 0u64;
        let mut now = 0u64;
        for round in 1..=200u64 {
            let bound = round * 5_000_000; // 5 ms rounds
            for _ in 0..(rng.next() % 8) {
                let t = now + rng.next() % 40_000_000;
                w.schedule(SimTime::from_nanos(t), tie, 0);
                reference.push((t, tie));
                tie += 1;
            }
            reference.sort_unstable();
            let mut idx = 0;
            while let Some((t, got_tie, _)) = w.pop_next_before(SimTime::from_nanos(bound)) {
                assert_eq!((t.as_nanos(), got_tie), reference[idx], "round {round}");
                assert!(t.as_nanos() <= bound);
                now = now.max(t.as_nanos());
                idx += 1;
            }
            if idx < reference.len() {
                assert!(reference[idx].0 > bound, "stopped early in round {round}");
            }
            reference.drain(..idx);
            now = now.max(bound);
        }
        let mut idx = 0;
        while let Some((t, got_tie, _)) = w.pop_next() {
            assert_eq!((t.as_nanos(), got_tie), reference[idx]);
            idx += 1;
        }
        assert_eq!(idx, reference.len());
    }

    #[test]
    fn peek_matches_the_next_pop_without_consuming() {
        let mut w = TimingWheel::new();
        assert_eq!(w.peek_next(), None);
        let g = 1u64 << GRAN_BITS;
        // One near event, one parked on an outer level.
        w.schedule(SimTime::from_nanos(500), 3, 50u32);
        w.schedule(SimTime::from_nanos(70 * g), 4, 70);
        for _ in 0..3 {
            assert_eq!(w.peek_next(), Some((SimTime::from_nanos(500), 3)));
        }
        assert_eq!(w.len(), 2, "peek must not consume");
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(50));
        // The outer-level event cascades in through peek's refill.
        assert_eq!(w.peek_next(), Some((SimTime::from_nanos(70 * g), 4)));
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(70));
        assert_eq!(w.peek_next(), None);
        // Scheduling after a peek-driven refill stays ordered.
        w.schedule(SimTime::from_nanos(70 * g + 1), 5, 71);
        w.schedule(SimTime::from_nanos(71 * g), 6, 72);
        assert_eq!(w.peek_next(), Some((SimTime::from_nanos(70 * g + 1), 5)));
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(71));
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(72));
    }

    #[test]
    fn granule_matches_gran_bits() {
        assert_eq!(granule().as_nanos(), 1u64 << GRAN_BITS);
    }

    #[test]
    fn far_future_overflow_events_still_arrive_in_order() {
        let mut w = TimingWheel::new();
        let three_years = 3 * 365 * 86_400_000_000_000u64;
        w.schedule(SimTime::from_nanos(three_years), 0, 1);
        w.schedule(SimTime::from_nanos(5), 1, 2);
        w.schedule(SimTime::from_nanos(three_years + 7), 2, 3);
        assert_eq!(w.len(), 3);
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(2));
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(1));
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(3));
        assert!(w.pop_next().is_none());
    }

    #[test]
    fn parked_outer_event_cascades_before_nearer_inner_event() {
        // Regression shape for the refill candidate comparison: an event
        // parked at level 1 becomes *earlier* than a level-0 event after
        // the cursor advances, and must still pop first.
        let g = 1u64 << GRAN_BITS;
        let mut w = TimingWheel::new();
        w.schedule(SimTime::from_nanos(70 * g), 0, 70); // level 1 (≥ 64 granules)
        w.schedule(SimTime::from_nanos(63 * g), 1, 63); // level 0
        // Pop the granule-63 event: cursor advances to granule 63.
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(63));
        // Granule 80 is now < 64 granules ahead → level 0; granule 70 is
        // still parked at level 1 and must cascade down first.
        w.schedule(SimTime::from_nanos(80 * g), 2, 80);
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(70));
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(80));
    }
}
