//! A bounded log that keeps the *tail*: when full it evicts the oldest
//! entry and counts the eviction, so a chaos run's final minutes — the
//! part an operator actually reads — are never lost to an early burst.
//!
//! Shared by the telemetry span buffer (`ocs-telemetry`) and the
//! flight-recorder journal ([`crate::journal`]); it lives here, at the
//! bottom of the crate DAG, so both can reach it.
//!
//! Both keep their records one way, a [`RecordRing`]: each record is a
//! fixed-size `Copy` value whose names — an operation, a category, a
//! line's template — are `u16` ids into a [`Names`] table kept beside the
//! ring under the same lock. Writing a record copies ids and numbers in
//! and formats nothing; it is turned into text only when read. The rare
//! record that must carry more (a span recorded whole, a journal line
//! with text of its own) puts that payload in a queue beside the ring,
//! in record order. A full ring's heap is its capacity times the record
//! size, plus the table and the payloads.

use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};

use crate::kernel::IdBuild;

/// Fixed-capacity ring log with an eviction counter.
#[derive(Debug)]
pub struct RingLog<T> {
    cap: usize,
    buf: VecDeque<T>,
    dropped: u64,
}

impl<T> RingLog<T> {
    /// Creates a log holding at most `cap` entries (`cap` ≥ 1).
    pub fn new(cap: usize) -> RingLog<T> {
        RingLog {
            cap: cap.max(1),
            buf: VecDeque::with_capacity(cap.clamp(1, 1024)),
            dropped: 0,
        }
    }

    /// Appends `v`, evicting the oldest entry if the log is full; returns
    /// the evicted entry.
    pub fn push(&mut self, v: T) -> Option<T> {
        let evicted = if self.buf.len() == self.cap {
            self.dropped += 1;
            self.buf.pop_front()
        } else {
            None
        };
        self.buf.push_back(v);
        evicted
    }

    /// Entries currently retained, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Entries evicted to make room since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

impl<T: Clone> RingLog<T> {
    /// Clones the retained entries, oldest first.
    pub fn to_vec(&self) -> Vec<T> {
        self.buf.iter().cloned().collect()
    }
}

/// A static string compared and hashed by its address and length, not
/// its text: a [`Names`] key that costs one multiply to look up. Two
/// equal literals at different addresses get two ids, which read back
/// as the same text.
#[derive(Clone, Copy, Debug)]
pub struct StaticStr(pub &'static str);

impl PartialEq for StaticStr {
    fn eq(&self, other: &StaticStr) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for StaticStr {}

impl Hash for StaticStr {
    fn hash<H: Hasher>(&self, h: &mut H) {
        h.write_u64(self.0.as_ptr() as u64 ^ ((self.0.len() as u64) << 48));
    }
}

/// The names a ring's records refer to, each given a `u16` id at its
/// first use and kept for the ring's life. Names are static, so the
/// table is as large as the set of distinct call sites, not the traffic.
#[derive(Debug)]
pub struct Names<K> {
    list: Vec<K>,
    ids: HashMap<K, u16, IdBuild>,
}

impl<K: Copy + Eq + Hash> Names<K> {
    /// An id no name gets: what a record holds for a name the full table
    /// could not take.
    pub const NONE: u16 = u16::MAX;

    /// An empty table.
    pub fn new() -> Names<K> {
        Names {
            list: Vec::new(),
            ids: HashMap::default(),
        }
    }

    /// `name`'s id, entering it if new; `None` once all 65,535 ids are
    /// taken (the caller keeps such a record some other way). Ids run
    /// from 0 to 65,534: [`Names::NONE`] is never one.
    pub fn id(&mut self, name: K) -> Option<u16> {
        if let Some(&id) = self.ids.get(&name) {
            return Some(id);
        }
        let id = u16::try_from(self.list.len())
            .ok()
            .filter(|&id| id != Names::<K>::NONE)?;
        if self.list.is_empty() {
            // Room for a node's usual handful of names at once.
            self.list.reserve(32);
            self.ids.reserve(32);
        }
        self.list.push(name);
        self.ids.insert(name, id);
        Some(id)
    }

    /// The name `id` stands for.
    pub fn get(&self, id: u16) -> K {
        self.list[id as usize]
    }

}

impl<K: Copy + Eq + Hash> Default for Names<K> {
    fn default() -> Names<K> {
        Names::new()
    }
}

/// A fixed-size record of a [`RecordRing`].
pub trait Record: Copy {
    /// Whether the record's payload waits in the ring's payload queue.
    fn has_payload(&self) -> bool;
}

/// A tail-keeping ring of fixed-size records `R`, the names `K` they
/// refer to, and the payloads `P` of the few records that carry one.
#[derive(Debug)]
pub struct RecordRing<R, K, P> {
    log: RingLog<R>,
    names: Names<K>,
    payloads: VecDeque<P>,
}

impl<R: Record, K: Copy + Eq + Hash, P> RecordRing<R, K, P> {
    /// An empty ring of at most `cap` records.
    pub fn new(cap: usize) -> RecordRing<R, K, P> {
        RecordRing {
            log: RingLog::new(cap),
            names: Names::new(),
            payloads: VecDeque::new(),
        }
    }

    /// The ring's name table: enter a name before writing its id.
    pub fn names(&mut self) -> &mut Names<K> {
        &mut self.names
    }

    /// The name `id` stands for.
    pub fn name(&self, id: u16) -> K {
        self.names.get(id)
    }

    /// Appends `rec` with its payload (`Some` exactly when
    /// `rec.has_payload()`), evicting the oldest record and its payload
    /// if the ring is full.
    pub fn push(&mut self, rec: R, payload: Option<P>) {
        debug_assert_eq!(rec.has_payload(), payload.is_some());
        if let Some(p) = payload {
            self.payloads.push_back(p);
        }
        if self.log.push(rec).is_some_and(|old| old.has_payload()) {
            self.payloads.pop_front();
        }
    }

    /// The retained records with their payloads, oldest first.
    pub fn iter(&self) -> Records<'_, R, P> {
        Records {
            recs: self.log.buf.iter(),
            payloads: self.payloads.iter(),
        }
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Records evicted to make room since creation: the first retained
    /// record is the ring's `dropped()`-th since creation.
    pub fn dropped(&self) -> u64 {
        self.log.dropped()
    }
}

/// [`RecordRing::iter`]: each record with its payload, if it has one.
pub struct Records<'a, R, P> {
    recs: std::collections::vec_deque::Iter<'a, R>,
    payloads: std::collections::vec_deque::Iter<'a, P>,
}

impl<'a, R: Record, P> Iterator for Records<'a, R, P> {
    type Item = (R, Option<&'a P>);

    fn next(&mut self) -> Option<(R, Option<&'a P>)> {
        let rec = *self.recs.next()?;
        let payload = if rec.has_payload() {
            self.payloads.next()
        } else {
            None
        };
        Some((rec, payload))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.recs.size_hint()
    }
}

/// From the newest record back: what reads a ring's tail without
/// walking the rest of it.
impl<R: Record, P> DoubleEndedIterator for Records<'_, R, P> {
    fn next_back(&mut self) -> Option<Self::Item> {
        let rec = *self.recs.next_back()?;
        let payload = if rec.has_payload() {
            self.payloads.next_back()
        } else {
            None
        };
        Some((rec, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_tail_and_counts_drops() {
        let mut r = RingLog::new(3);
        let evicted: Vec<Option<i32>> = (0..5).map(|i| r.push(i)).collect();
        assert_eq!(evicted, [None, None, None, Some(0), Some(1)]);
        assert_eq!(r.to_vec(), vec![2, 3, 4]);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn zero_cap_clamps_to_one() {
        let mut r = RingLog::new(0);
        r.push(1);
        r.push(2);
        assert_eq!(r.to_vec(), vec![2]);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn names_are_entered_once_by_address() {
        static OPEN: &str = "itv.mms.open";
        let mut n = Names::new();
        let a = n.id(StaticStr(OPEN)).unwrap();
        let b = n.id(StaticStr("cm")).unwrap();
        assert_eq!(n.id(StaticStr(OPEN)), Some(a));
        assert_ne!(a, b);
        assert_eq!((n.get(a).0, n.get(b).0), (OPEN, "cm"));
        // A different address with the same text is a different key.
        let copy: &'static str = Box::leak(OPEN.to_string().into_boxed_str());
        assert_eq!(n.id(StaticStr(copy)), Some(2));
        assert_eq!(n.get(2).0, OPEN);
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Rec(u32, bool);

    impl Record for Rec {
        fn has_payload(&self) -> bool {
            self.1
        }
    }

    #[test]
    fn payloads_leave_with_their_records() {
        let mut r: RecordRing<Rec, u32, String> = RecordRing::new(3);
        for i in 0..7 {
            let has = i % 2 == 0;
            r.push(Rec(i, has), has.then(|| format!("p{i}")));
        }
        let read: Vec<(u32, Option<&str>)> = r
            .iter()
            .map(|(rec, p)| (rec.0, p.map(String::as_str)))
            .collect();
        assert_eq!(read, [(4, Some("p4")), (5, None), (6, Some("p6"))]);
        assert_eq!((r.len(), r.dropped(), r.payloads.len()), (3, 4, 2));
        // Skipping a record skips its payload, from either end.
        let tail: Vec<(u32, Option<&str>)> = r
            .iter()
            .skip(1)
            .map(|(rec, p)| (rec.0, p.map(String::as_str)))
            .collect();
        assert_eq!(tail, [(5, None), (6, Some("p6"))]);
        let back: Vec<(u32, Option<&str>)> = r
            .iter()
            .rev()
            .skip(1)
            .map(|(rec, p)| (rec.0, p.map(String::as_str)))
            .collect();
        assert_eq!(back, [(5, None), (4, Some("p4"))]);
    }

    #[test]
    fn a_full_table_hands_out_no_id() {
        let mut n: Names<u32> = Names::new();
        for i in 0..Names::<u32>::NONE as u32 {
            assert_eq!(n.id(i), Some(i as u16));
        }
        assert_eq!(n.id(70_000), None);
        assert_eq!(n.id(7), Some(7));
    }
}
