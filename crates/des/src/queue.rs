//! Deterministic event priority queue.
//!
//! Events are ordered by `(timestamp, tie key, sequence number)`. The tie
//! key is caller-supplied ([`EventQueue::push_keyed`]; plain `push` uses 0)
//! and ranks events that fire at the same instant by *what they are* rather
//! than by when they happened to be scheduled; the sequence number, assigned
//! at insertion, breaks the remaining ties in scheduling order. Ordering
//! same-instant events by identity means an event's rank does not depend
//! on the moment it was scheduled — part of what makes whole-simulation
//! runs bit-reproducible.
//!
//! # Implementation: a sliding timing wheel with an overflow heap
//!
//! [`EventQueue`] is a calendar-queue / timing-wheel hybrid tuned for
//! packet-level simulation, where the overwhelming majority of events fire
//! within a few link serialization times of "now" while a minority (RTO
//! timers) sit hundreds of milliseconds out:
//!
//! * **Near future** — a wheel of `WHEEL_SLOTS` buckets, each covering
//!   `BUCKET_NS` nanoseconds. A bucket is an unsorted singly linked list
//!   of nodes in a shared slab of fixed 256-node chunks, its links kept
//!   apart from the nodes in one dense `u32` array (see [`EventQueue`]);
//!   push is O(1) and allocation-free once the slab reaches its
//!   high-water size, which it exceeds by less than a chunk. The wheel
//!   is a *sliding window* over absolute bucket indices
//!   `[cursor, cursor + WHEEL_SLOTS)`; slot `abs % WHEEL_SLOTS` is unique
//!   within the window.
//! * **Current bucket** — when the cursor reaches a bucket its events are
//!   drained into a dense vector of packed 32-byte *hot records*
//!   `(time, key, seq, slab index)` and sorted once; pops (and same-bucket
//!   re-schedules) proceed in exact order through a cursor over that
//!   vector. The payloads stay in the slab until their record is popped —
//!   the sort and comparison loop touches only packed metadata, never the
//!   (potentially large) payloads: a struct-of-arrays split of the hot
//!   fields.
//! * **Far future** — events at or beyond the window horizon go to an
//!   overflow min-heap and migrate into the wheel as the cursor advances.
//!
//! Ordering proof sketch: equal timestamps always land in the same absolute
//! bucket, so ties are resolved inside one sorted run by `(key, seq)`; bucket `b` only
//! drains after every bucket `< b` is empty, and overflow events are only
//! eligible once their bucket enters the window — strictly after everything
//! currently in the wheel ahead of them. Hence pops are globally sorted by
//! `(time, seq)`, exactly like the previous `BinaryHeap` implementation
//! (kept below as [`BinaryHeapQueue`], the differential oracle the wheel's
//! tests compare every pop against).
//!
//! An occupancy bitmap (one bit per slot, plus a word-level summary) lets
//! the cursor jump over empty buckets in O(words) rather than O(slots).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Nanoseconds covered by one wheel bucket (2^6 = 64 ns — a small fraction
/// of one 1500 B serialization time at 1 Gbps, so buckets stay shallow even
/// with tens of thousands of packet events pending).
const BUCKET_SHIFT: u32 = 6;
/// Number of wheel slots (2^15). Window horizon = 2^21 ns ≈ 2.1 ms.
///
/// Sizing rule: the window holds what a packet schedules — one hop's
/// propagation plus the queue ahead of it — on the paper's slowest link,
/// the 300 Mbps bottleneck of its 1.8 ms-RTT testbed: 450 µs of
/// propagation plus K = 15 serializations of 40 µs marks at about 1.05 ms,
/// and the window leaves as much again for a queue that overshoots K.
/// Timers do not fit at any size worth keeping (delayed ACK 40 ms, RTO
/// ≥ 200 ms) and go to the overflow heap; [`EventQueue::far_total`] counts
/// them together with any packet event past the horizon. Every slot costs
/// a resident `u32` head per queue, 128 KiB in all (DESIGN.md §9.2).
const WHEEL_SLOTS: usize = 1 << 15;
const SLOT_MASK: u64 = (WHEEL_SLOTS as u64) - 1;
/// Occupancy bitmap words.
const BITMAP_WORDS: usize = WHEEL_SLOTS / 64;

/// An event plus its scheduling metadata, as stored in the queue.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Caller-supplied same-instant rank (0 for plain `push`).
    pub key: u64,
    /// Monotone insertion counter; breaks the remaining ties.
    pub seq: u64,
    /// The user payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, at equal
        // times, the lowest-keyed then first-inserted) event pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[inline]
fn abs_bucket(at: SimTime) -> u64 {
    at.as_nanos() >> BUCKET_SHIFT
}

/// Sentinel index terminating a slot's node list / the freelist.
const NIL: u32 = u32::MAX;

/// One slab entry: an event on a wheel slot's LIFO list or in the current
/// run, or a freelist entry (`payload == None`) awaiting reuse. The
/// scheduling metadata is stored inline (not inside the payload option)
/// so the current-bucket drain and `peek_time` scans read it without
/// touching `E`. A node holds no list link: a slot list's links are
/// `Slab::links`, and a vacant node's `seq` holds the next freelist
/// index instead, so the freelist costs no field either. With the packet
/// engine's 104-byte event the node is 128 B, two cache lines.
#[derive(Debug)]
struct Node<E> {
    at: SimTime,
    key: u64,
    /// Insertion counter while occupied; next freelist index (or `NIL`)
    /// while vacant.
    seq: u64,
    payload: Option<E>,
}

/// Nodes per slab chunk: 2^8 = 256, 32 KiB at the packet engine's
/// 128-byte node, plus 1 KiB of links.
const CHUNK_SHIFT: u32 = 8;
const CHUNK_NODES: usize = 1 << CHUNK_SHIFT;
const CHUNK_MASK: u32 = (CHUNK_NODES as u32) - 1;

/// The wheel's node storage: fixed chunks of `CHUNK_NODES` nodes behind
/// one `u32` index (chunk `i >> CHUNK_SHIFT`, entry `i & CHUNK_MASK`),
/// plus the nodes' list links in one dense array under the same index.
/// A chunk is allocated whole and never resized, so a node never moves
/// once placed, a realloc copies only the 4-byte links, and the room held
/// exceeds the high-water population by less than one chunk — a doubling
/// `Vec` leaves up to half of it never written (DESIGN.md §9.2). A chunk
/// is a fixed-size array, so an index costs one bounds check, on the
/// chunk table.
#[derive(Debug)]
struct Slab<E> {
    chunks: Vec<Box<[Node<E>; CHUNK_NODES]>>,
    /// The slot lists' links, indexed like the nodes: `links[i]` is the
    /// node after `i` on its slot's list (`NIL` at the tail). Kept out of
    /// the nodes so a bucket's walk runs through this dense array, which
    /// stays in cache, and the nodes' own loads are issued together
    /// instead of one after another. Grows by exactly one chunk's worth
    /// with each chunk; meaningless for a node not on a slot list. A boxed
    /// slice rather than a `Vec`, and the freelist head kept here, so that
    /// `EventQueue` is no larger than it was with the links in the nodes:
    /// growing it by a few words slowed the k = 8 workloads by ≈ 3 %
    /// through the layout alone (DESIGN.md §13.4).
    links: Box<[u32]>,
    /// Nodes placed so far (live or free-listed); the rest of the last
    /// chunk is vacant.
    len: u32,
    /// Head of the freelist, threaded through the vacant nodes' `seq`
    /// (`NIL` when no placed node is vacant).
    free_head: u32,
}

impl<E> Slab<E> {
    fn new() -> Self {
        Slab {
            chunks: Vec::new(),
            links: Box::default(),
            len: 0,
            free_head: NIL,
        }
    }

    /// Nodes placed so far.
    fn len(&self) -> usize {
        self.len as usize
    }

    /// Nodes the allocated chunks have room for.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.chunks.len() * CHUNK_NODES
    }

    /// The node at `i`, if it has been placed.
    fn get(&self, i: u32) -> Option<&Node<E>> {
        (i < self.len).then(|| &self[i])
    }

    /// Place a node after the last one, opening a new chunk when the last
    /// one is full, and return its index.
    fn push(&mut self, node: Node<E>) -> u32 {
        let i = self.len;
        assert!(i != NIL, "wheel slab exceeds u32 indices");
        if i as usize == self.chunks.len() * CHUNK_NODES {
            let vacant = (0..CHUNK_NODES).map(|_| Node {
                at: SimTime::ZERO,
                key: 0,
                seq: 0,
                payload: None,
            });
            let chunk: Box<[Node<E>]> = vacant.collect();
            let Ok(chunk) = chunk.try_into() else {
                unreachable!("a chunk holds CHUNK_NODES nodes")
            };
            self.chunks.push(chunk);
            let mut links = std::mem::take(&mut self.links).into_vec();
            links.reserve_exact(CHUNK_NODES);
            links.resize(links.len() + CHUNK_NODES, NIL);
            self.links = links.into_boxed_slice();
        }
        self.len += 1;
        self[i] = node;
        i
    }

    /// The placed nodes, in index order.
    fn iter(&self) -> impl Iterator<Item = &Node<E>> {
        self.chunks.iter().flat_map(|c| c.iter()).take(self.len())
    }
}

impl<E> std::ops::Index<u32> for Slab<E> {
    type Output = Node<E>;
    #[inline]
    fn index(&self, i: u32) -> &Node<E> {
        &self.chunks[(i >> CHUNK_SHIFT) as usize][(i & CHUNK_MASK) as usize]
    }
}

impl<E> std::ops::IndexMut<u32> for Slab<E> {
    #[inline]
    fn index_mut(&mut self, i: u32) -> &mut Node<E> {
        &mut self.chunks[(i >> CHUNK_SHIFT) as usize][(i & CHUNK_MASK) as usize]
    }
}

/// A current-bucket record: the hot scheduling fields plus the slab index
/// of the payload. 32 bytes, `Copy` — sorting the current bucket moves
/// these, never the payloads.
#[derive(Debug, Clone, Copy)]
struct HotRec {
    at: SimTime,
    key: u64,
    seq: u64,
    idx: u32,
}

/// A deterministic min-priority queue of timestamped events
/// (timing-wheel implementation; see the module docs).
///
/// Wheel storage is a **slab with a freelist**: each slot holds the head
/// index of a singly linked list of nodes in one shared, chunked slab,
/// whose links sit in a dense array beside the nodes.
/// Hot buckets drift across slots as simulated time advances (a cluster of
/// synchronized serialization completions lands 64 ns later every round),
/// so per-slot growable buffers re-grow forever; the slab instead quiesces
/// at the *global* high-water event population, after which scheduling
/// never touches the allocator (the steady-state guarantee the
/// benchmark's self-test asserts).
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Sorted run over the cursor's bucket: the globally earliest events,
    /// as packed hot records in `(time, key, seq)` order. Payloads stay in
    /// the slab until popped.
    hot: Vec<HotRec>,
    /// Pop cursor into `hot`; `head == hot.len()` means the run is drained.
    head: usize,
    /// Slab of wheel nodes, their slot-list links and the freelist, which
    /// threads through the `seq` of `payload == None` entries.
    nodes: Slab<E>,
    /// Per-slot list head; slot = absolute bucket % WHEEL_SLOTS.
    slots: Box<[u32; WHEEL_SLOTS]>,
    /// One bit per non-empty wheel slot.
    bitmap: [u64; BITMAP_WORDS],
    /// One bit per non-zero bitmap word (jump table for sparse wheels).
    summary: [u64; BITMAP_WORDS.div_ceil(64)],
    /// Events at or beyond `cursor + WHEEL_SLOTS` buckets.
    overflow: BinaryHeap<ScheduledEvent<E>>,
    /// Absolute bucket index the current run (`hot`) was loaded from.
    cursor: u64,
    len: usize,
    next_seq: u64,
    /// Events ever pushed past the window (into `overflow`).
    far: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            hot: Vec::new(),
            head: 0,
            nodes: Slab::new(),
            slots: vec![NIL; WHEEL_SLOTS]
                .into_boxed_slice()
                .try_into()
                .expect("WHEEL_SLOTS heads"),
            bitmap: [0; BITMAP_WORDS],
            summary: [0; BITMAP_WORDS.div_ceil(64)],
            overflow: BinaryHeap::new(),
            cursor: 0,
            len: 0,
            next_seq: 0,
            far: 0,
        }
    }

    #[inline]
    fn mark_slot(&mut self, slot: usize) {
        self.bitmap[slot / 64] |= 1 << (slot % 64);
        self.summary[slot / 64 / 64] |= 1 << ((slot / 64) % 64);
    }

    #[inline]
    fn clear_slot(&mut self, slot: usize) {
        self.bitmap[slot / 64] &= !(1 << (slot % 64));
        if self.bitmap[slot / 64] == 0 {
            self.summary[slot / 64 / 64] &= !(1 << ((slot / 64) % 64));
        }
    }

    /// Store an event in the slab: pull a node off the freelist (or extend
    /// the slab while still below high-water) and return its index.
    #[inline]
    fn alloc_node(&mut self, at: SimTime, key: u64, seq: u64, payload: E) -> u32 {
        let i = self.nodes.free_head;
        if i != NIL {
            let node = &mut self.nodes[i];
            debug_assert!(node.payload.is_none(), "freelist node still occupied");
            let next = node.seq as u32;
            *node = Node {
                at,
                key,
                seq,
                payload: Some(payload),
            };
            self.nodes.free_head = next;
            i
        } else {
            self.nodes.push(Node {
                at,
                key,
                seq,
                payload: Some(payload),
            })
        }
    }

    /// Place an event whose bucket lies inside the window `(cursor, cursor +
    /// WHEEL_SLOTS)` into its wheel slot: slab-allocate a node and link it
    /// in at the slot's head.
    #[inline]
    fn place_in_wheel(&mut self, ev: ScheduledEvent<E>) {
        let slot = (abs_bucket(ev.at) & SLOT_MASK) as usize;
        let idx = self.alloc_node(ev.at, ev.key, ev.seq, ev.event);
        self.nodes.links[idx as usize] = self.slots[slot];
        self.slots[slot] = idx;
        self.mark_slot(slot);
    }

    /// Insert an event into the (sorted) current run. The payload goes to
    /// the slab; the hot record is binary-searched into position past the
    /// pop cursor. `seq` is monotone, so among equal `(time, key)` pairs
    /// the new record always sorts last — the insertion point is the
    /// partition point over `(time, key)` alone.
    fn push_current(&mut self, at: SimTime, key: u64, seq: u64, event: E) {
        let idx = self.alloc_node(at, key, seq, event);
        let pos = self.head + self.hot[self.head..].partition_point(|r| (r.at, r.key) <= (at, key));
        self.hot.insert(pos, HotRec { at, key, seq, idx });
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// Events at or before the cursor's bucket (the bucket currently being
    /// drained) are inserted into the sorted current run, so zero-delay
    /// cascades and — for direct users without an [`Engine`](crate::Engine)
    /// clock — even past-dated pushes still pop in `(time, seq)` order
    /// relative to everything pending.
    pub fn push(&mut self, at: SimTime, event: E) {
        self.push_keyed(at, 0, event);
    }

    /// [`EventQueue::push`] with an explicit same-instant tie key: events at
    /// the same timestamp pop in ascending `key` order (then insertion
    /// order), regardless of when they were scheduled.
    pub fn push_keyed(&mut self, at: SimTime, key: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let b = abs_bucket(at);
        if b <= self.cursor {
            self.push_current(at, key, seq, event);
        } else if b < self.cursor + WHEEL_SLOTS as u64 {
            self.place_in_wheel(ScheduledEvent {
                at,
                key,
                seq,
                event,
            });
        } else {
            self.far += 1;
            self.overflow.push(ScheduledEvent {
                at,
                key,
                seq,
                event,
            });
        }
    }

    /// Smallest absolute bucket ahead of the cursor with a pending wheel
    /// event, if any (bitmap scan; O(words)).
    fn next_wheel_bucket(&self) -> Option<u64> {
        let start = (self.cursor & SLOT_MASK) as usize;
        // Slots run circularly from `start` (exclusive — cursor's own slot
        // was drained into the current run) for WHEEL_SLOTS-1 positions; but a
        // fresh queue may also have events in the cursor slot itself, so
        // include it.
        let (start_word, start_bit) = (start / 64, start % 64);
        // First, the remainder of the start word.
        let w = self.bitmap[start_word] >> start_bit;
        if w != 0 {
            let slot = start + w.trailing_zeros() as usize;
            return Some(self.cursor + (slot - start) as u64);
        }
        // Then whole words, circularly, via the summary.
        for i in 1..=BITMAP_WORDS {
            let word_idx = (start_word + i) % BITMAP_WORDS;
            if self.summary[word_idx / 64] & (1 << (word_idx % 64)) == 0 {
                continue;
            }
            let mut w = self.bitmap[word_idx];
            if word_idx == start_word {
                // Wrapped all the way: only bits before start_bit remain.
                w &= (1 << start_bit) - 1;
                if w == 0 {
                    break;
                }
            }
            if w != 0 {
                let slot = word_idx * 64 + w.trailing_zeros() as usize;
                let dist = (slot + WHEEL_SLOTS - start) % WHEEL_SLOTS;
                // dist == 0 handled by the start-word scan above.
                let dist = if dist == 0 { WHEEL_SLOTS } else { dist };
                return Some(self.cursor + dist as u64);
            }
        }
        None
    }

    /// Absolute bucket of the next pending event once the current run is
    /// drained. The wheel's earliest bucket wins whenever it has one:
    /// overflow events live at least a full window past everything in the
    /// wheel.
    fn next_pending_bucket(&self) -> Option<u64> {
        self.next_wheel_bucket()
            .or_else(|| self.overflow.peek().map(|e| abs_bucket(e.at)))
    }

    /// Advance the cursor to the bucket holding the next pending event and
    /// load that bucket into the current run. Returns false if nothing is
    /// pending.
    fn refill_current(&mut self) -> bool {
        match self.next_pending_bucket() {
            Some(target) => {
                self.load_bucket(target);
                true
            }
            None => false,
        }
    }

    /// Move the cursor to `target` — [`Self::next_pending_bucket`]'s answer
    /// — and load that bucket into the (drained) current run.
    fn load_bucket(&mut self, target: u64) {
        debug_assert!(self.head == self.hot.len());
        self.hot.clear();
        self.head = 0;
        self.cursor = target;
        // Migrate overflow events that now fit in the window. The overflow
        // heap yields them in (time, seq) order; anything landing in the
        // cursor bucket will be sorted with the wheel slot below.
        let horizon = self.cursor + WHEEL_SLOTS as u64;
        while self
            .overflow
            .peek()
            .is_some_and(|e| abs_bucket(e.at) < horizon)
        {
            let ev = self.overflow.pop().expect("peeked");
            self.place_in_wheel(ev);
        }
        // Load the cursor bucket: walk its list pushing packed hot records
        // into the recycled `hot` vec, then sort once. The walk follows
        // `links`, so the next index never waits for a node to arrive and
        // the nodes' metadata loads overlap. The sort touches only the
        // 32-byte records — payloads stay put in the slab (their freelist
        // return is deferred to pop time). The vec and the slab both
        // quiesce at their high-water marks; a warmed-up steady state never
        // touches the allocator.
        let slot = (self.cursor & SLOT_MASK) as usize;
        self.clear_slot(slot);
        let Self {
            nodes, slots, hot, ..
        } = self;
        let mut i = std::mem::replace(&mut slots[slot], NIL);
        debug_assert!(i != NIL, "advanced to an empty bucket");
        while i != NIL {
            let node = &nodes[i];
            debug_assert!(node.payload.is_some(), "slot list node occupied");
            hot.push(HotRec {
                at: node.at,
                key: node.key,
                seq: node.seq,
                idx: i,
            });
            i = nodes.links[i as usize];
        }
        hot.sort_unstable_by_key(|r| (r.at, r.key, r.seq));
    }

    /// Take the record at the pop cursor: advance the cursor, lift the
    /// payload out of the slab and return the node to the freelist.
    /// Caller guarantees `head < hot.len()`.
    #[inline]
    fn pop_hot(&mut self) -> ScheduledEvent<E> {
        let rec = self.hot[self.head];
        self.head += 1;
        let next_free = self.nodes.free_head;
        let node = &mut self.nodes[rec.idx];
        let event = node.payload.take().expect("hot record node occupied");
        node.seq = next_free.into();
        self.nodes.free_head = rec.idx;
        if self.head == self.hot.len() {
            self.hot.clear();
            self.head = 0;
        }
        self.len -= 1;
        ScheduledEvent {
            at: rec.at,
            key: rec.key,
            seq: rec.seq,
            event,
        }
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if self.head == self.hot.len() && !self.refill_current() {
            return None;
        }
        Some(self.pop_hot())
    }

    /// Remove and return the earliest event **iff** it fires at or before
    /// `deadline` — the run loop's single per-event queue access.
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<ScheduledEvent<E>> {
        if self.head == self.hot.len() {
            // Bound-check before committing the cursor: advancing the wheel
            // toward an event beyond the deadline would be premature — the
            // caller may schedule earlier events before its next pop.
            // Comparing bucket indices settles it without touching the
            // bucket's nodes, except when the deadline falls inside the
            // bucket itself: only then is its minimum looked up.
            let target = self.next_pending_bucket()?;
            match target.cmp(&abs_bucket(deadline)) {
                Ordering::Greater => return None,
                Ordering::Equal if self.peek_time().is_none_or(|t| t > deadline) => return None,
                _ => self.load_bucket(target),
            }
        }
        if self.hot[self.head].at <= deadline {
            Some(self.pop_hot())
        } else {
            None
        }
    }

    /// Lookahead: the `k`-th event of the sorted current run past the pop
    /// cursor — `upcoming(0)` is what the next pop returns, provided
    /// nothing earlier is pushed first. `None` when the run holds `k` or
    /// fewer events, however many wait in later buckets: those are not
    /// sorted yet, and sorting them early would commit the cursor.
    ///
    /// For hints only. Handling the events in between may schedule others
    /// ahead of this one or (at a layer above) make it stale.
    #[inline]
    pub fn upcoming(&self, k: usize) -> Option<&E> {
        let rec = self.hot.get(self.head + k)?;
        self.nodes[rec.idx].payload.as_ref()
    }

    /// Hint the CPU to start loading the slab node of [`Self::upcoming`]`(k)`
    /// — or, when the current run is that short, the head node of the next
    /// non-empty wheel bucket, whose list walk is the first thing the next
    /// refill does. Reads nothing but the queue's own index structures and
    /// changes nothing ([`crate::hint::prefetch_read`]).
    #[inline]
    pub fn prefetch_upcoming(&self, k: usize) {
        let idx = match self.hot.get(self.head + k) {
            Some(rec) => rec.idx,
            None => match self.next_wheel_bucket() {
                Some(b) => self.slots[(b & SLOT_MASK) as usize],
                // Far-future events sit in the overflow heap's own buffer.
                None => return,
            },
        };
        crate::hint::prefetch_read(&self.nodes[idx]);
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(r) = self.hot.get(self.head) {
            return Some(r.at);
        }
        if let Some(b) = self.next_wheel_bucket() {
            let slot = (b & SLOT_MASK) as usize;
            // The earliest bucket's minimum is the global minimum: overflow
            // events live at least a full window later.
            let mut i = self.slots[slot];
            let mut best: Option<SimTime> = None;
            while i != NIL {
                let at = self.nodes[i].at;
                best = Some(best.map_or(at, |b| b.min(at)));
                i = self.nodes.links[i as usize];
            }
            return best;
        }
        self.overflow.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled (the insertion counter).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Events ever pushed at or past the window horizon — into the overflow
    /// heap rather than a wheel slot. Timers account for nearly all of them;
    /// a packet workload whose share grows has outrun the window.
    pub fn far_total(&self) -> u64 {
        self.far
    }

    /// Audit the wheel's storage invariants: freelist integrity (no cycles,
    /// every free node vacated), slab accounting (every node either live or
    /// on the freelist), hot-run consistency (sorted records pointing at
    /// occupied slab nodes with matching metadata), slot-list/bitmap/summary
    /// agreement (lists followed through the slab's links), and the global
    /// length reconciliation `len == hot + wheel + overflow`.
    ///
    /// Intended for mid-run invariant audits (the `simcheck` chaos harness
    /// calls it between event windows); costs O(slots + nodes), so call it
    /// at probe granularity, not per event. Returns a description of the
    /// first inconsistency found.
    pub fn check_integrity(&self) -> Result<(), String> {
        // 1. Freelist: bounded walk, every entry vacated.
        let mut free = 0usize;
        let mut i = self.nodes.free_head;
        while i != NIL {
            let node = self.nodes.get(i).ok_or_else(|| {
                format!(
                    "freelist index {i} out of range (slab holds {} nodes)",
                    self.nodes.len()
                )
            })?;
            if node.payload.is_some() {
                return Err(format!("freelist node {i} still holds a payload"));
            }
            free += 1;
            if free > self.nodes.len() {
                return Err("freelist cycle detected".into());
            }
            i = u32::try_from(node.seq)
                .map_err(|_| format!("freelist node {i} links to {}", node.seq))?;
        }
        // 2. Slab accounting: every node is live xor free-listed.
        let occupied = self.nodes.iter().filter(|n| n.payload.is_some()).count();
        if occupied + free != self.nodes.len() {
            return Err(format!(
                "slab leak: {occupied} occupied + {free} free != {} total nodes \
                 (some node is neither live nor on the freelist)",
                self.nodes.len()
            ));
        }
        // 3. Hot run: live records sorted, each pointing at an occupied node
        //    whose inline metadata matches the packed record.
        let live_hot = &self.hot[self.head..];
        for (n, rec) in live_hot.iter().enumerate() {
            let node = self
                .nodes
                .get(rec.idx)
                .ok_or_else(|| format!("hot record {n} slab index {} out of range", rec.idx))?;
            if node.payload.is_none() {
                return Err(format!(
                    "hot record {n} points at vacated slab node {}",
                    rec.idx
                ));
            }
            if (node.at, node.key, node.seq) != (rec.at, rec.key, rec.seq) {
                return Err(format!(
                    "hot record {n} metadata {:?} disagrees with slab node {}: {:?}",
                    (rec.at, rec.key, rec.seq),
                    rec.idx,
                    (node.at, node.key, node.seq)
                ));
            }
        }
        if live_hot
            .windows(2)
            .any(|w| (w[0].at, w[0].key, w[0].seq) > (w[1].at, w[1].key, w[1].seq))
        {
            return Err("hot run not sorted by (time, key, seq)".into());
        }
        // 4. Wheel slots: lists hold occupied nodes; bitmap and summary
        //    agree with slot heads.
        let mut wheel = 0usize;
        for (slot, &head) in self.slots.iter().enumerate() {
            let bit = self.bitmap[slot / 64] >> (slot % 64) & 1 == 1;
            if bit != (head != NIL) {
                return Err(format!(
                    "slot {slot} occupancy bit {bit} disagrees with list head"
                ));
            }
            let mut j = head;
            let mut steps = 0usize;
            while j != NIL {
                let node = self
                    .nodes
                    .get(j)
                    .ok_or_else(|| format!("slot {slot} list index {j} out of range"))?;
                if node.payload.is_none() {
                    return Err(format!("slot {slot} lists vacated slab node {j}"));
                }
                steps += 1;
                if steps > self.nodes.len() {
                    return Err(format!("slot {slot} list cycle detected"));
                }
                j = self.nodes.links[j as usize];
            }
            wheel += steps;
        }
        for (w, &word) in self.bitmap.iter().enumerate() {
            let summarized = self.summary[w / 64] >> (w % 64) & 1 == 1;
            if summarized != (word != 0) {
                return Err(format!("summary bit for bitmap word {w} inconsistent"));
            }
        }
        // 5. Global reconciliation: hot + wheel == occupied (each live node
        //    is referenced exactly once) and len covers overflow too.
        if live_hot.len() + wheel != occupied {
            return Err(format!(
                "slab reference mismatch: {} hot + {wheel} wheel != {occupied} occupied \
                 (a live node is on no list, or on two)",
                live_hot.len()
            ));
        }
        let total = live_hot.len() + wheel + self.overflow.len();
        if total != self.len {
            return Err(format!(
                "length mismatch: {} hot + {wheel} wheel + {} overflow != len {}",
                live_hot.len(),
                self.overflow.len(),
                self.len
            ));
        }
        Ok(())
    }
}

/// The previous single-`BinaryHeap` scheduler, kept verbatim as the
/// timing wheel's differential oracle: both implementations must produce
/// the same pop sequence for any push sequence.
#[derive(Debug)]
pub struct BinaryHeapQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BinaryHeapQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        self.push_keyed(at, 0, event);
    }

    /// [`BinaryHeapQueue::push`] with an explicit same-instant tie key.
    pub fn push_keyed(&mut self, at: SimTime, key: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent {
            at,
            key,
            seq,
            event,
        });
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop()
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop().unwrap().event, "a");
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.pop().unwrap().event, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().event, i);
        }
    }

    #[test]
    fn keys_rank_same_instant_events_regardless_of_push_order() {
        // Two events at the same instant pop in key order even though the
        // higher-keyed one was scheduled first — and the wheel agrees with
        // the heap baseline.
        let mut q = EventQueue::new();
        let mut h = BinaryHeapQueue::new();
        for (at, key, ev) in [(t(5), 9u64, "late"), (t(5), 1, "early"), (t(4), 7, "first")] {
            q.push_keyed(at, key, ev);
            h.push_keyed(at, key, ev);
        }
        for want in ["first", "early", "late"] {
            assert_eq!(q.pop().unwrap().event, want);
            assert_eq!(h.pop().unwrap().event, want);
        }
        // Equal keys at the same instant fall back to insertion order.
        q.push_keyed(t(9), 3, "a");
        q.push_keyed(t(9), 3, "b");
        assert_eq!(q.pop().unwrap().event, "a");
        assert_eq!(q.pop().unwrap().event, "b");
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(t(7), ());
        q.push(t(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(3)));
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn pop_at_or_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop_at_or_before(t(5)), None);
        assert_eq!(q.pop_at_or_before(t(10)).unwrap().event, "a");
        assert_eq!(q.pop_at_or_before(t(15)), None);
        assert_eq!(q.pop_at_or_before(t(25)).unwrap().event, "b");
        assert_eq!(q.pop_at_or_before(SimTime::MAX), None);
    }

    /// `pop_at_or_before` against the heap baseline (peek, then pop) with
    /// the current run drained and the deadline before, inside and after
    /// the next pending bucket — the three outcomes of its bucket-index
    /// compare — for a next bucket in the wheel and one in the overflow
    /// heap. Whatever a pop refused, an earlier event scheduled afterwards
    /// still pops first.
    #[test]
    fn pop_at_or_before_matches_heap_around_the_next_bucket() {
        fn heap_pop(h: &mut BinaryHeapQueue<u32>, deadline: SimTime) -> Option<(SimTime, u32)> {
            if h.peek_time()? > deadline {
                return None;
            }
            h.pop().map(|e| (e.at, e.event))
        }
        let bucket = 1u64 << BUCKET_SHIFT;
        // Next bucket inside the wheel window, then one beyond it.
        for base in [1_000 * bucket, (WHEEL_SLOTS as u64 + 1_000) * bucket] {
            // Two events in one bucket, 10 ns and 40 ns into it.
            let (lo, hi) = (base + 10, base + 40);
            let deadlines = [
                base - 1,      // previous bucket
                base,          // same bucket, before both
                lo,            // exactly the first
                lo + 1,        // between the two
                hi,            // exactly the second
                base + bucket, // next bucket
                u64::MAX,
            ];
            for d in deadlines {
                let deadline = SimTime::from_nanos(d);
                let mut wheel = EventQueue::new();
                let mut heap = BinaryHeapQueue::new();
                for (at, ev) in [(hi, 2u32), (lo, 1)] {
                    wheel.push(SimTime::from_nanos(at), ev);
                    heap.push(SimTime::from_nanos(at), ev);
                }
                for round in 0..3 {
                    let got = wheel.pop_at_or_before(deadline).map(|e| (e.at, e.event));
                    assert_eq!(
                        got,
                        heap_pop(&mut heap, deadline),
                        "deadline {d} round {round}"
                    );
                    wheel.check_integrity().unwrap();
                }
                // Whatever was refused, an earlier arrival overtakes it.
                let early = SimTime::from_nanos(base - bucket);
                wheel.push(early, 0);
                heap.push(early, 0);
                loop {
                    let got = wheel
                        .pop_at_or_before(SimTime::MAX)
                        .map(|e| (e.at, e.event));
                    assert_eq!(got, heap_pop(&mut heap, SimTime::MAX), "deadline {d} drain");
                    if got.is_none() {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn far_timers_cross_the_overflow_horizon() {
        // An RTO-style timer far beyond the wheel window, plus near events.
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(200), "rto");
        q.push(t(1), "now");
        q.push(SimTime::from_millis(199), "near-rto");
        assert_eq!(q.pop().unwrap().event, "now");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(199)));
        assert_eq!(q.pop().unwrap().event, "near-rto");
        assert_eq!(q.pop().unwrap().event, "rto");
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_ties_keep_insertion_order_after_migration() {
        // Event A goes to overflow; after the cursor advances, B is pushed
        // at the *same* timestamp into the wheel. A must still pop first.
        let far = SimTime::from_millis(500);
        let mut q = EventQueue::new();
        q.push(far, "a"); // seq 0, overflow
        q.push(t(1), "tick"); // seq 1
        assert_eq!(q.pop().unwrap().event, "tick");
        // Drag the cursor close enough that `far` is inside the window.
        q.push(SimTime::from_millis(490), "drag");
        assert_eq!(q.pop().unwrap().event, "drag");
        q.push(far, "b"); // seq 3, lands in the wheel
        assert_eq!(q.pop().unwrap().event, "a");
        assert_eq!(q.pop().unwrap().event, "b");
    }

    #[test]
    fn interleaved_push_pop_in_same_bucket() {
        // Re-scheduling into the bucket currently being drained preserves
        // (time, seq) order — the common zero-delay cascade case.
        let mut q = EventQueue::new();
        q.push(t(1), 0u32);
        let e = q.pop().unwrap();
        assert_eq!(e.event, 0);
        q.push(e.at, 1); // same instant, later seq
        q.push(e.at + SimDuration::from_nanos(100), 2); // same bucket
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.pop().unwrap().event, 2);
    }

    /// Differential test: the wheel and the heap baseline produce identical
    /// pop sequences over randomized workloads with a dumbbell-like time
    /// profile (near events + queueing delays + far timers + ties), plus
    /// pushes within two buckets of the window horizon, so every seed
    /// migrates events across it. `far_total` counts exactly the pushes
    /// past the horizon. 200+ seeded cases.
    #[test]
    fn wheel_matches_heap_oracle() {
        let mut deep_lookaheads = 0;
        for seed in 0..250u64 {
            let mut rng = SimRng::new(0xC0FFEE ^ seed);
            let mut wheel = EventQueue::new();
            let mut heap = BinaryHeapQueue::new();
            let mut now_ns = 0u64;
            let mut next_id = 0u64;
            let mut far = 0u64;
            let ops = rng.index(400) + 10;
            for op in 0..5 + ops {
                // The first five pushes land near the window horizon; then
                // 50% near events (serialization-scale delay), 5% a
                // queueing delay on a slow link (1–2 ms), 5% near the
                // horizon again, 20% far timers (RTO-scale delay), 20% pops.
                let roll = if op < 5 { 11 } else { rng.index(20) };
                let push = match roll {
                    0..=9 => Some(now_ns + rng.uniform_u64(0, 40_000)),
                    10 => Some(now_ns + rng.uniform_u64(1_000_000, 2_000_000)),
                    // Within two buckets either side of the horizon.
                    11 => {
                        let b = wheel.cursor + WHEEL_SLOTS as u64 - 2 + rng.uniform_u64(0, 4);
                        Some((b << BUCKET_SHIFT) + rng.uniform_u64(0, (1 << BUCKET_SHIFT) - 1))
                    }
                    12..=15 => Some(now_ns + rng.uniform_u64(10_000_000, 300_000_000)),
                    // 20%: pop and compare — once, or as many times as the
                    // lookahead can see: whatever `upcoming(0..=k)` shows,
                    // the next `k + 1` pops deliver, in that order.
                    _ => {
                        let k = rng.index(4);
                        let promised: Vec<u64> =
                            (0..=k).map_while(|j| wheel.upcoming(j).copied()).collect();
                        assert!(
                            (promised.len()..=k).all(|j| wheel.upcoming(j).is_none()),
                            "lookahead has a hole (seed {seed})"
                        );
                        deep_lookaheads += usize::from(promised.len() > 1);
                        wheel.prefetch_upcoming(k);
                        for j in 0..promised.len().max(1) {
                            match (wheel.pop(), heap.pop()) {
                                (None, None) => {}
                                (Some(x), Some(y)) => {
                                    assert_eq!(
                                        (x.at, x.seq, x.event),
                                        (y.at, y.seq, y.event),
                                        "diverged (seed {seed})"
                                    );
                                    if let Some(&want) = promised.get(j) {
                                        assert_eq!(x.event, want, "lookahead {j} (seed {seed})");
                                    }
                                    now_ns = x.at.as_nanos();
                                }
                                (a, b) => panic!("one queue empty: {a:?} vs {b:?} (seed {seed})"),
                            }
                        }
                        None
                    }
                };
                if let Some(ns) = push {
                    let at = SimTime::from_nanos(ns);
                    far += u64::from(abs_bucket(at) >= wheel.cursor + WHEEL_SLOTS as u64);
                    wheel.push(at, next_id);
                    heap.push(at, next_id);
                    next_id += 1;
                }
                assert_eq!(wheel.len(), heap.len(), "len diverged (seed {seed})");
                assert_eq!(
                    wheel.peek_time(),
                    heap.peek_time(),
                    "peek diverged (seed {seed})"
                );
            }
            // Drain both fully.
            loop {
                match (wheel.pop(), heap.pop()) {
                    (None, None) => break,
                    (Some(x), Some(y)) => {
                        assert_eq!((x.at, x.seq), (y.at, y.seq), "drain diverged (seed {seed})")
                    }
                    (a, b) => panic!("drain length mismatch: {a:?} vs {b:?} (seed {seed})"),
                }
            }
            assert_eq!(wheel.far_total(), far, "far count (seed {seed})");
        }
        assert!(
            deep_lookaheads > 20,
            "only {deep_lookaheads} multi-event lookaheads"
        );
    }

    #[test]
    fn upcoming_sees_the_current_run_and_nothing_past_it() {
        let mut q = EventQueue::new();
        assert_eq!(q.upcoming(0), None);
        q.prefetch_upcoming(0); // nothing to hint at: must not panic
        q.push(t(1), "a");
        q.push(t(1), "b"); // same bucket as "a"
        q.push(t(50), "later");
        // Nothing is loaded until the first pop commits the cursor.
        assert_eq!(q.upcoming(0), None);
        assert_eq!(q.pop().unwrap().event, "a");
        assert_eq!(q.upcoming(0), Some(&"b"));
        assert_eq!(q.upcoming(1), None, "\"later\" waits in an unsorted bucket");
        assert_eq!(q.pop().unwrap().event, "b");
        // Drained run, one event still pending.
        assert_eq!(q.upcoming(0), None);
        assert_eq!(q.len(), 1);
    }

    /// The hint's fallback — run drained, next event in a wheel bucket or
    /// in the overflow heap — reads the index structures and leaves the
    /// queue exactly as it was: an earlier event pushed afterwards still
    /// pops first (the cursor did not move).
    #[test]
    fn prefetch_upcoming_leaves_a_drained_queue_as_it_was() {
        let far = SimTime::from_millis(300);
        for (next, what) in [(t(90), "wheel"), (far, "overflow")] {
            let mut q = EventQueue::new();
            q.push(t(10), "first");
            q.push(next, "next");
            assert_eq!(q.pop().unwrap().event, "first");
            for k in 0..3 {
                q.prefetch_upcoming(k);
                assert_eq!(q.upcoming(k), None, "{what}");
            }
            assert_eq!((q.len(), q.peek_time()), (1, Some(next)), "{what}");
            q.check_integrity().unwrap();
            q.push(t(20), "earlier");
            assert_eq!(q.pop().unwrap().event, "earlier", "{what}");
            assert_eq!(q.pop().unwrap().event, "next", "{what}");
            assert!(q.pop().is_none());
        }
    }

    /// Long horizons: two hours, thirty days and the last representable
    /// instant but one are all far past the wheel window; they pop in time
    /// order, agree with the heap baseline, and the bucket arithmetic at
    /// the top of the `u64` range does not overflow.
    #[test]
    fn multi_hour_and_end_of_time_events_pop_in_order() {
        let hour = 3_600 * 1_000_000_000u64;
        let times = [u64::MAX - 1, 30 * 24 * hour, 2 * hour, 64];
        let mut wheel = EventQueue::new();
        let mut heap = BinaryHeapQueue::new();
        for (i, ns) in times.into_iter().enumerate() {
            wheel.push(SimTime::from_nanos(ns), i);
            heap.push(SimTime::from_nanos(ns), i);
        }
        assert!(SimTime::from_nanos(u64::MAX - 1) < SimTime::MAX);
        for want in [3, 2, 1, 0] {
            wheel.prefetch_upcoming(1);
            let (w, h) = (wheel.pop().unwrap(), heap.pop().unwrap());
            assert_eq!((w.at, w.event), (h.at, h.event));
            assert_eq!(w.event, want);
            wheel.check_integrity().unwrap();
        }
        assert!(wheel.is_empty());
    }

    /// Long horizons, seeded against the heap oracle: events anchored at 3 h,
    /// 5 h and 30 days and in the top window of the `u64` range (`MAX −
    /// 70 ms`, `MAX − 1`, `MAX`), each jittered by up to 3 ms so some land
    /// inside the window of their anchor's first event and some past it;
    /// every popped event is re-armed 1.5 ms later (saturating at `MAX`, so
    /// the top chains pile up on the last instant) a seeded number of times.
    /// Pops match the heap's and the wheel audits clean after every pop —
    /// the `cursor + WHEEL_SLOTS` horizon arithmetic holds up to the last
    /// bucket.
    #[test]
    fn multi_hour_and_top_of_range_horizons_match_heap_oracle() {
        let hour = 3_600 * 1_000_000_000u64;
        let anchors = [
            3 * hour,
            5 * hour,
            30 * 24 * hour,
            u64::MAX - 70_000_000,
            u64::MAX - 1,
            u64::MAX,
        ];
        let rearm = SimDuration::from_micros(1_500);
        for seed in 0..10u64 {
            let mut rng = SimRng::new(0x10E ^ seed);
            let mut wheel = EventQueue::new();
            let mut heap = BinaryHeapQueue::new();
            // The payload is how many re-arms the event has left.
            let mut push = |at: SimTime, left: u32| {
                wheel.push(at, left);
                heap.push(at, left);
            };
            push(t(1), 0);
            for a in anchors {
                for _ in 0..rng.index(4) + 1 {
                    let at = SimTime::from_nanos(a.saturating_add(rng.uniform_u64(0, 3_000_000)));
                    push(at, rng.index(60) as u32);
                }
            }
            let mut pops = 0;
            loop {
                let (x, y) = match (wheel.pop(), heap.pop()) {
                    (None, None) => break,
                    (Some(x), Some(y)) => (x, y),
                    (a, b) => panic!("one queue empty: {a:?} vs {b:?} (seed {seed})"),
                };
                assert_eq!(
                    (x.at, x.seq, x.event),
                    (y.at, y.seq, y.event),
                    "diverged at pop {pops} (seed {seed})"
                );
                wheel
                    .check_integrity()
                    .unwrap_or_else(|e| panic!("{e} (seed {seed})"));
                if x.event > 0 {
                    let at = x.at.saturating_add(rearm);
                    wheel.push(at, x.event - 1);
                    heap.push(at, x.event - 1);
                }
                pops += 1;
            }
            assert!(pops > anchors.len(), "seed {seed}: {pops} pops");
        }
    }

    /// For any multiset of timestamps, pops are globally sorted by
    /// (time, insertion order). Seeded-loop rewrite of the old proptest.
    #[test]
    fn pop_order_is_sorted_seeded() {
        for seed in 0..250u64 {
            let mut rng = SimRng::new(seed);
            let n = rng.index(200);
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(t(rng.uniform_u64(0, 999)), i);
            }
            let mut last: Option<(SimTime, u64)> = None;
            while let Some(ev) = q.pop() {
                if let Some((lt, ls)) = last {
                    assert!((lt, ls) < (ev.at, ev.seq), "unsorted pop (seed {seed})");
                    assert!(lt <= ev.at, "time went backwards (seed {seed})");
                }
                last = Some((ev.at, ev.seq));
            }
        }
    }

    /// Every pushed event is popped exactly once. Seeded-loop rewrite of
    /// the old proptest.
    #[test]
    fn conservation_seeded() {
        for seed in 0..250u64 {
            let mut rng = SimRng::new(0xBEEF ^ seed);
            let n = rng.index(100);
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(t(rng.uniform_u64(0, 49)), i);
            }
            let mut seen = vec![false; n];
            while let Some(ev) = q.pop() {
                assert!(!seen[ev.event], "double pop (seed {seed})");
                seen[ev.event] = true;
            }
            assert!(seen.iter().all(|&s| s), "lost event (seed {seed})");
        }
    }

    /// A node holds its metadata and the payload and nothing else: with a
    /// 104-byte payload (the packet engine's event) it is two cache lines.
    /// A field added to `Node` spends the bytes the link array saved. The
    /// queue itself stays at the size it had with the links in the nodes:
    /// 24 more bytes of it cost the k = 8 workloads ≈ 3 % (DESIGN.md §13.4).
    #[test]
    fn node_with_a_104_byte_payload_is_128_bytes() {
        #[allow(dead_code)]
        enum Payload {
            Packet([u64; 12]),
            Timer(u64),
        }
        assert_eq!(std::mem::size_of::<Option<Payload>>(), 104);
        assert_eq!(std::mem::size_of::<Node<Payload>>(), 128);
        assert_eq!(std::mem::size_of::<EventQueue<Payload>>(), 4_304);
    }

    /// Differential test for dense buckets: pushes land within eight
    /// buckets of the last pop (and one in ten within 64), so a bucket
    /// holds tens of events when the cursor reaches it — the fat-tree
    /// regime, where `load_bucket` walks long lists; a third of the pops
    /// push again into the bucket being drained. The pending population
    /// climbs past three slab chunks, drains, and climbs again on the
    /// freelist. Every pop matches the heap oracle; the wheel audits clean
    /// every 200 operations.
    #[test]
    fn dense_buckets_match_heap_oracle() {
        let bucket = 1u64 << BUCKET_SHIFT;
        let mut deepest = 0;
        for seed in 0..12u64 {
            let mut rng = SimRng::new(0xDE45E ^ seed);
            let mut wheel = EventQueue::new();
            let mut heap = BinaryHeapQueue::new();
            let mut now_ns = 0u64;
            let mut next_id = 0u64;
            let mut pop = |wheel: &mut EventQueue<u64>, heap: &mut BinaryHeapQueue<u64>| {
                let got = match (wheel.pop(), heap.pop()) {
                    (None, None) => None,
                    (Some(x), Some(y)) => {
                        assert_eq!(
                            (x.at, x.seq, x.event),
                            (y.at, y.seq, y.event),
                            "diverged (seed {seed})"
                        );
                        Some(x.at)
                    }
                    (a, b) => panic!("one queue empty: {a:?} vs {b:?} (seed {seed})"),
                };
                deepest = deepest.max(wheel.hot.len());
                got
            };
            let mut push = |wheel: &mut EventQueue<u64>, heap: &mut BinaryHeapQueue<u64>, ns| {
                let at = SimTime::from_nanos(ns);
                wheel.push(at, next_id);
                heap.push(at, next_id);
                next_id += 1;
            };
            for round in 0..2 {
                // Fill: 70 % pushes, so the population climbs past 1 000.
                for op in 0..3_000 {
                    let ahead = match rng.index(10) {
                        0..=5 => 8 * bucket,
                        6 => 64 * bucket,
                        _ => 0,
                    };
                    if ahead > 0 {
                        push(&mut wheel, &mut heap, now_ns + rng.uniform_u64(0, ahead));
                    } else if let Some(at) = pop(&mut wheel, &mut heap) {
                        now_ns = at.as_nanos();
                    }
                    if op % 200 == 0 {
                        wheel
                            .check_integrity()
                            .unwrap_or_else(|e| panic!("{e} (seed {seed} round {round} op {op})"));
                    }
                }
                assert!(
                    wheel.len() > 3 * CHUNK_NODES,
                    "seed {seed}: {} pending",
                    wheel.len()
                );
                // Drain, a third of the pops re-scheduling into their own
                // bucket: past the pop cursor of the run being drained.
                let mut ops = 0;
                while let Some(at) = pop(&mut wheel, &mut heap) {
                    now_ns = at.as_nanos();
                    if rng.index(3) == 0 {
                        let left = bucket - 1 - now_ns % bucket;
                        push(&mut wheel, &mut heap, now_ns + rng.uniform_u64(0, left));
                    }
                    ops += 1;
                    if ops % 200 == 0 {
                        wheel.check_integrity().unwrap_or_else(|e| {
                            panic!("{e} (seed {seed} round {round} drain {ops})")
                        });
                    }
                }
                assert!(wheel.is_empty() && heap.is_empty());
                wheel.check_integrity().unwrap();
            }
            // The second climb reused the first one's nodes.
            assert!(wheel.nodes.chunks.len() >= 3, "seed {seed}");
            assert!(
                (wheel.nodes.len() as u64) < next_id / 2,
                "seed {seed}: {} nodes for {next_id} pushes",
                wheel.nodes.len()
            );
        }
        assert!(deepest >= 32, "deepest loaded bucket held {deepest} events");
    }

    /// A queue for the corruption tests: `b` waits in the current run
    /// (`a`, popped, left a freelist entry), three events share the slot of
    /// 50 µs and one sits alone at 60 µs. Returns the queue and the 50 µs
    /// slot.
    fn audited_queue() -> (EventQueue<&'static str>, usize) {
        let mut q = EventQueue::new();
        q.push(t(1), "a");
        q.push(t(1), "b");
        for ev in ["c", "d", "e"] {
            q.push(t(50), ev);
        }
        q.push(t(60), "f");
        assert_eq!(q.pop().unwrap().event, "a");
        q.check_integrity().unwrap();
        (q, (abs_bucket(t(50)) & SLOT_MASK) as usize)
    }

    /// The slot list's nodes, head first, followed through `links`.
    fn slot_list(q: &EventQueue<&str>, slot: usize) -> Vec<u32> {
        let mut list = vec![q.slots[slot]];
        while q.nodes.links[*list.last().unwrap() as usize] != NIL {
            list.push(q.nodes.links[*list.last().unwrap() as usize]);
        }
        list
    }

    /// `check_integrity` fails, naming what is wrong, for each kind of
    /// corruption it audits: its clean answer on a running wheel means
    /// something.
    #[test]
    fn check_integrity_names_each_corruption() {
        let expect = |q: &EventQueue<&str>, what: &str| {
            let err = q.check_integrity().expect_err(what);
            assert!(err.contains(what), "{what:?} not in {err:?}");
        };
        // A slot list closed into a cycle through the links.
        let (mut q, slot) = audited_queue();
        let list = slot_list(&q, slot);
        assert_eq!(list.len(), 3);
        q.nodes.links[list[2] as usize] = list[0];
        expect(&q, &format!("slot {slot} list cycle detected"));
        // A freelist entry pointing at a live node.
        let (mut q, slot) = audited_queue();
        let free = q.nodes.free_head;
        let live = q.slots[slot];
        q.nodes[free].seq = live.into();
        expect(&q, &format!("freelist node {live} still holds a payload"));
        // A live node on no list: the list ends before its tail.
        let (mut q, slot) = audited_queue();
        let list = slot_list(&q, slot);
        q.nodes.links[list[1] as usize] = NIL;
        expect(&q, "a live node is on no list");
        // An occupancy bit for an empty slot.
        let (mut q, _) = audited_queue();
        let empty = (abs_bucket(t(70)) & SLOT_MASK) as usize;
        assert_eq!(q.slots[empty], NIL);
        q.mark_slot(empty);
        expect(
            &q,
            &format!("slot {empty} occupancy bit true disagrees with list head"),
        );
    }

    /// The slab grows one chunk at a time and holds less than a chunk past
    /// its high-water population: a second burst to the same depth after a
    /// full drain reuses the freelist and grows nothing. The audit walks a
    /// slab of several chunks, mid-burst and mid-drain.
    #[test]
    fn slab_stays_within_a_chunk_of_high_water() {
        const N: usize = 1_000;
        let mut q = EventQueue::new();
        for round in 0..2u64 {
            let base = SimTime::from_millis(10 * round);
            for i in 0..N as u64 {
                // One event every 0.7 µs: about 100 ns of wheel buckets
                // apart, a few sharing one.
                q.push(base + SimDuration::from_nanos(700 * i), i);
                if i == N as u64 / 2 {
                    q.check_integrity().unwrap();
                }
            }
            assert_eq!(q.len(), N);
            assert_eq!(q.nodes.len(), N, "round {round}: nodes placed");
            assert!(q.nodes.chunks.len() > 1);
            assert_eq!(q.nodes.capacity(), N.div_ceil(CHUNK_NODES) * CHUNK_NODES);
            assert!(q.nodes.capacity() < N + CHUNK_NODES);
            // The links grow a chunk at a time with the nodes, and a boxed
            // slice holds exactly its length: no slack.
            assert_eq!(q.nodes.links.len(), q.nodes.capacity(), "round {round}");
            q.check_integrity().unwrap();
            for i in 0..N as u64 {
                assert_eq!(q.pop().unwrap().event, i, "round {round}");
                if i == N as u64 / 3 {
                    q.check_integrity().unwrap();
                }
            }
            assert!(q.is_empty());
            q.check_integrity().unwrap();
        }
    }
}
