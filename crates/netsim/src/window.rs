//! The booked transmission windows of every link direction, in one pool.
//!
//! A direction keeps one `(start, depart)` window per packet it accepted
//! that has not left the port yet, in departure order (DESIGN.md §10.2).
//! A ring per direction would grow to the power of two of its deepest
//! burst and keep it, so a run would hold the sum of every direction's
//! worst moment. The windows of all directions share one [`WindowPool`]
//! owned by the fabric instead: a direction holds a 12-byte
//! [`WindowList`] header, a FIFO threaded through the pool's entries, and
//! the pool holds the run's high-water of live windows — the most booked
//! at one instant across the fabric (DESIGN.md §13.5).

use xmp_des::SimTime;

/// The null index: end of a list, empty list, empty freelist.
const NIL: u32 = u32::MAX;

/// Entries per pool chunk: 2^8 = 256, 6 KiB at 24 bytes an entry.
const CHUNK_SHIFT: u32 = 8;
const CHUNK_ENTRIES: usize = 1 << CHUNK_SHIFT;
const CHUNK_MASK: u32 = (CHUNK_ENTRIES as u32) - 1;

/// One booked transmission window and the link to the next entry of the
/// list it is on (a direction's, or the freelist).
#[derive(Clone, Copy)]
pub(crate) struct Window {
    /// When the packet starts serializing.
    pub(crate) start: SimTime,
    /// When it has left the port.
    pub(crate) depart: SimTime,
    next: u32,
}

/// A direction's windows: the head, tail and length of a FIFO whose
/// entries live in the fabric's [`WindowPool`]. Empty is `head == tail ==
/// NIL`, `len == 0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct WindowList {
    head: u32,
    tail: u32,
    len: u32,
}

impl WindowList {
    /// A list with no windows.
    pub(crate) const EMPTY: WindowList = WindowList {
        head: NIL,
        tail: NIL,
        len: 0,
    };

    /// Windows on the list.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list holds no window.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Storage for every direction's windows: fixed chunks of
/// `CHUNK_ENTRIES` entries behind one `u32` index (chunk `i >>
/// CHUNK_SHIFT`, entry `i & CHUNK_MASK`), as the event queue's slab is
/// laid out. A chunk is allocated whole and never resized, so an entry
/// never moves once placed; retired and cleared entries go on an
/// intrusive freelist and are reused before anything new is placed. The
/// room held is the high-water of live windows plus less than a chunk,
/// and once the run has reached that high-water the pool never touches
/// the allocator again.
#[cfg_attr(test, derive(Clone))]
pub(crate) struct WindowPool {
    chunks: Vec<Box<[Window; CHUNK_ENTRIES]>>,
    /// Entries placed so far (on some list or on the freelist); the rest
    /// of the last chunk is vacant.
    placed: u32,
    /// Head of the freelist.
    free: u32,
}

impl WindowPool {
    /// An empty pool; it allocates its first chunk on the first push.
    pub(crate) const fn new() -> Self {
        WindowPool {
            chunks: Vec::new(),
            placed: 0,
            free: NIL,
        }
    }

    /// Entries placed so far, live or free: the high-water of windows
    /// booked at one instant.
    pub(crate) fn placed(&self) -> usize {
        self.placed as usize
    }

    /// The first window of `list`, if any.
    #[inline]
    pub(crate) fn front(&self, list: &WindowList) -> Option<&Window> {
        (list.head != NIL).then(|| &self[list.head])
    }

    /// Book `(start, depart)` at the back of `list`, reusing a freed
    /// entry when there is one and placing a new one (opening a chunk when
    /// the last is full) when there is not.
    #[inline]
    pub(crate) fn push_back(&mut self, list: &mut WindowList, start: SimTime, depart: SimTime) {
        let i = if self.free != NIL {
            let i = self.free;
            self.free = self[i].next;
            i
        } else {
            self.place()
        };
        self[i] = Window {
            start,
            depart,
            next: NIL,
        };
        if list.tail == NIL {
            list.head = i;
        } else {
            self[list.tail].next = i;
        }
        list.tail = i;
        list.len += 1;
    }

    /// Take the front window off `list` if `due` accepts its departure,
    /// free its entry and return the departure; `None` leaves `list` as
    /// it is (it is empty, or its front has not departed).
    #[inline]
    pub(crate) fn pop_due(
        &mut self,
        list: &mut WindowList,
        due: impl Fn(SimTime) -> bool,
    ) -> Option<SimTime> {
        let i = list.head;
        if i == NIL {
            return None;
        }
        let free = self.free;
        let w = &mut self[i];
        let depart = w.depart;
        if !due(depart) {
            return None;
        }
        list.head = w.next;
        w.next = free;
        self.free = i;
        list.len -= 1;
        if list.head == NIL {
            list.tail = NIL;
        }
        Some(depart)
    }

    /// Free every window of `list` at once: its tail is linked to the
    /// freelist and its head becomes the freelist's head, whatever its
    /// length.
    pub(crate) fn clear(&mut self, list: &mut WindowList) {
        if list.tail != NIL {
            let free = self.free;
            self[list.tail].next = free;
            self.free = list.head;
        }
        *list = WindowList::EMPTY;
    }

    /// A new entry after the last placed one.
    fn place(&mut self) -> u32 {
        let i = self.placed;
        assert!(i != NIL, "window pool exceeds u32 indices");
        if i as usize == self.chunks.len() * CHUNK_ENTRIES {
            let vacant = Window {
                start: SimTime::ZERO,
                depart: SimTime::ZERO,
                next: NIL,
            };
            self.chunks.push(Box::new([vacant; CHUNK_ENTRIES]));
        }
        self.placed += 1;
        i
    }

    /// Check the pool against every list that uses it; `name(n)` names the
    /// `n`th list in an error. Every list is acyclic, as long as its `len`
    /// says, ends at its `tail`, and departs in non-decreasing order; no
    /// entry is on two lists, or on a list and the freelist; and live plus
    /// free entries are every placed one.
    pub(crate) fn audit<'a>(
        &self,
        lists: impl IntoIterator<Item = &'a WindowList>,
        name: impl Fn(usize) -> String,
    ) -> Result<(), String> {
        let mut seen = vec![0u64; self.placed().div_ceil(64)];
        let mut claim = |i: u32| -> Result<(), String> {
            if i >= self.placed {
                return Err(format!("entry {i} out of range ({} placed)", self.placed));
            }
            let (word, bit) = (i as usize / 64, 1u64 << (i % 64));
            if seen[word] & bit != 0 {
                return Err(format!(
                    "entry {i} reached twice (a cycle or a shared entry)"
                ));
            }
            seen[word] |= bit;
            Ok(())
        };
        let mut live = 0usize;
        for (n, list) in lists.into_iter().enumerate() {
            let fail = |e: String| format!("window list of {}: {e}", name(n));
            let (mut i, mut last, mut steps) = (list.head, NIL, 0u32);
            let mut prev_depart = SimTime::ZERO;
            while i != NIL {
                claim(i).map_err(fail)?;
                steps += 1;
                if steps > list.len {
                    return Err(fail(format!("longer than its len {}", list.len)));
                }
                let w = &self[i];
                if w.depart < prev_depart {
                    return Err(fail(format!(
                        "depart {:?} after {prev_depart:?} at entry {i}",
                        w.depart
                    )));
                }
                prev_depart = w.depart;
                (last, i) = (i, w.next);
            }
            if steps != list.len {
                return Err(fail(format!("{steps} entries, len {}", list.len)));
            }
            if last != list.tail {
                return Err(fail(format!("ends at {last}, tail {}", list.tail)));
            }
            live += steps as usize;
        }
        let mut free = 0usize;
        let mut i = self.free;
        while i != NIL {
            claim(i).map_err(|e| format!("window freelist: {e}"))?;
            free += 1;
            i = self[i].next;
        }
        if live + free != self.placed() {
            return Err(format!(
                "window pool leak: {live} live + {free} free != {} placed",
                self.placed
            ));
        }
        Ok(())
    }
}

impl std::ops::Index<u32> for WindowPool {
    type Output = Window;
    #[inline]
    fn index(&self, i: u32) -> &Window {
        &self.chunks[(i >> CHUNK_SHIFT) as usize][(i & CHUNK_MASK) as usize]
    }
}

impl std::ops::IndexMut<u32> for WindowPool {
    #[inline]
    fn index_mut(&mut self, i: u32) -> &mut Window {
        &mut self.chunks[(i >> CHUNK_SHIFT) as usize][(i & CHUNK_MASK) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Three lists on one pool, interleaved pushes and a pop: list `n`
    /// departs in the `n`th hundred nanoseconds.
    fn three_lists() -> (WindowPool, [WindowList; 3]) {
        let mut pool = WindowPool::new();
        let mut lists = [WindowList::EMPTY; 3];
        for k in 0..12u64 {
            let n = k % 3;
            pool.push_back(&mut lists[n as usize], t(100 * n + k), t(100 * n + 10 + k));
        }
        assert_eq!(pool.pop_due(&mut lists[1], |t| t.as_nanos() < 111), None);
        assert_eq!(pool.pop_due(&mut lists[1], |_| true), Some(t(111)));
        (pool, lists)
    }

    fn audit(pool: &WindowPool, lists: &[WindowList]) -> Result<(), String> {
        pool.audit(lists, |n| format!("list {n}"))
    }

    #[test]
    fn entries_are_24_bytes_and_headers_12() {
        assert_eq!(std::mem::size_of::<Window>(), 24);
        assert_eq!(std::mem::size_of::<WindowList>(), 12);
    }

    #[test]
    fn lists_are_fifos_that_share_the_freelist() {
        let (mut pool, mut lists) = three_lists();
        audit(&pool, &lists).unwrap();
        assert_eq!(lists.map(|l| l.len()), [4, 3, 4]);
        assert_eq!(pool.front(&lists[1]).unwrap().depart, t(114));
        assert_eq!(pool.placed(), 12);
        // The freed entry is the next one handed out, to any list.
        pool.push_back(&mut lists[0], t(20), t(30));
        assert_eq!(pool.placed(), 12);
        pool.clear(&mut lists[2]);
        assert!(lists[2].is_empty() && pool.front(&lists[2]).is_none());
        audit(&pool, &lists).unwrap();
        for k in 0..4 {
            pool.push_back(&mut lists[1], t(290 + k), t(300 + k));
        }
        assert_eq!(pool.placed(), 12, "a cleared list's entries are reused");
        audit(&pool, &lists).unwrap();
        let mut departs = Vec::new();
        while let Some(depart) = pool.pop_due(&mut lists[1], |_| true) {
            departs.push(depart.as_nanos());
        }
        assert_eq!(departs, [114, 117, 120, 300, 301, 302, 303]);
        assert_eq!(lists[1], WindowList::EMPTY);
        audit(&pool, &lists).unwrap();
    }

    /// Each kind of corruption the audit exists for makes it fail, and
    /// says which list.
    #[test]
    fn audit_rejects_a_wrong_len_a_cross_link_a_cycle_and_a_leak() {
        let (pool, lists) = three_lists();
        let expect_err = |pool: &WindowPool, lists: &[WindowList], what: &str| {
            let e = audit(pool, lists).expect_err(what);
            assert!(e.contains(what), "{e}");
        };

        let mut short = lists;
        short[0].len -= 1;
        expect_err(&pool, &short, "list 0: longer than its len");
        let mut long = lists;
        long[2].len += 1;
        expect_err(&pool, &long, "list 2: 4 entries, len 5");

        // List 0's tail linked into list 2.
        let mut cross = pool.clone();
        let (tail, head) = (lists[0].tail, lists[2].head);
        cross[tail].next = head;
        expect_err(&cross, &lists, "list 0: longer than its len");
        let mut both = lists;
        both[0].len += 4;
        both[0].tail = lists[2].tail;
        expect_err(&cross, &both, "list 2: entry");

        // A list whose tail points back at its head.
        let mut cyclic = pool.clone();
        cyclic[lists[1].tail].next = lists[1].head;
        let mut cyc = lists;
        cyc[1].len += 1;
        expect_err(&cyclic, &cyc, "reached twice");

        // A list entry also on the freelist.
        let mut shared = pool.clone();
        shared.free = lists[2].head;
        expect_err(&shared, &lists, "window freelist: entry");

        // A list forgotten without freeing its entries.
        let mut lost = lists;
        lost[2] = WindowList::EMPTY;
        expect_err(
            &pool,
            &lost,
            "window pool leak: 7 live + 1 free != 12 placed",
        );

        // Departures out of order.
        let mut order = pool.clone();
        order[lists[0].tail].depart = t(0);
        expect_err(&order, &lists, "list 0: depart");
    }
}
