//! The single-queue LRU dead-value pool (§III-A strawman).
//!
//! "LRU policy satisfies the temporal locality but lacks taking the
//! popularity (frequency) into account" — the paper uses this design
//! to motivate MQ (Figs 5 and 6); we keep it both as a baseline and as
//! an ablation point.

use zssd_types::FxHashMap;

use zssd_types::{Fingerprint, InlineList, Lpn, PopularityDegree, Ppn, WriteClock};

use crate::intrusive::{ListHandle, Slab, SlotId};
use crate::pool::{DeadValuePool, PoolStats};

#[derive(Debug, Clone)]
struct Entry {
    fp: Fingerprint,
    ppns: InlineList<Ppn>,
    pop: PopularityDegree,
}

/// A capacity-bounded dead-value pool with pure LRU replacement.
///
/// # Examples
///
/// ```
/// use zssd_core::{DeadValuePool, LruDeadValuePool};
/// use zssd_types::{Fingerprint, Lpn, PopularityDegree, Ppn, ValueId, WriteClock};
///
/// let mut pool = LruDeadValuePool::new(2);
/// let now = WriteClock::from_count(1);
/// for v in 0..3u64 {
///     pool.insert_dead(Fingerprint::of_value(ValueId::new(v)), Ppn::new(v),
///                      Lpn::new(v), PopularityDegree::ZERO, now);
/// }
/// // Capacity 2: the oldest value (0) was evicted.
/// assert_eq!(pool.take_match(Fingerprint::of_value(ValueId::new(0)), now), None);
/// assert!(pool.take_match(Fingerprint::of_value(ValueId::new(2)), now).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct LruDeadValuePool {
    capacity: usize,
    slab: Slab<Entry>,
    lru: ListHandle,
    by_fp: FxHashMap<Fingerprint, SlotId>,
    by_ppn: FxHashMap<Ppn, SlotId>,
    stats: PoolStats,
}

impl LruDeadValuePool {
    /// Creates an empty pool holding at most `capacity` hash entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU pool capacity must be nonzero");
        LruDeadValuePool {
            capacity,
            slab: Slab::with_capacity(capacity.min(1 << 20)),
            lru: ListHandle::new(),
            by_fp: FxHashMap::default(),
            by_ppn: FxHashMap::default(),
            stats: PoolStats::default(),
        }
    }

    fn touch(&mut self, id: SlotId) {
        self.lru.detach(&mut self.slab, id);
        self.lru.push_tail(&mut self.slab, id);
    }

    fn evict_one(&mut self) {
        if let Some(id) = self.lru.pop_head(&mut self.slab) {
            let entry = self.slab.remove(id);
            self.by_fp.remove(&entry.fp);
            for ppn in &entry.ppns {
                self.by_ppn.remove(ppn);
            }
            self.stats.evictions += 1;
        }
    }

    fn unlink_entry(&mut self, id: SlotId) {
        self.lru.detach(&mut self.slab, id);
        let entry = self.slab.remove(id);
        self.by_fp.remove(&entry.fp);
    }
}

impl DeadValuePool for LruDeadValuePool {
    fn take_match(&mut self, fp: Fingerprint, _now: WriteClock) -> Option<Ppn> {
        let Some(&id) = self.by_fp.get(&fp) else {
            self.stats.misses += 1;
            return None;
        };
        let (ppn, emptied) = {
            let entry = self.slab.get_mut(id);
            entry.pop.increment();
            let ppn = entry.ppns.pop().expect("entries always track >= 1 ppn");
            (ppn, entry.ppns.is_empty())
        };
        self.by_ppn.remove(&ppn);
        if emptied {
            self.unlink_entry(id);
        } else {
            self.touch(id);
        }
        self.stats.hits += 1;
        Some(ppn)
    }

    fn insert_dead(
        &mut self,
        fp: Fingerprint,
        ppn: Ppn,
        _lpn: Lpn,
        pop: PopularityDegree,
        _now: WriteClock,
    ) {
        if self.by_ppn.contains_key(&ppn) {
            return;
        }
        self.stats.insertions += 1;
        if let Some(&id) = self.by_fp.get(&fp) {
            {
                let entry = self.slab.get_mut(id);
                entry.ppns.push(ppn);
                if pop > entry.pop {
                    entry.pop = pop;
                }
            }
            self.by_ppn.insert(ppn, id);
            self.touch(id);
        } else {
            let id = self.slab.insert(Entry {
                fp,
                ppns: InlineList::one(ppn),
                pop,
            });
            self.lru.push_tail(&mut self.slab, id);
            self.by_fp.insert(fp, id);
            self.by_ppn.insert(ppn, id);
            if self.slab.len() > self.capacity {
                self.evict_one();
            }
        }
    }

    fn remove_ppn(&mut self, ppn: Ppn) {
        let Some(id) = self.by_ppn.remove(&ppn) else {
            return;
        };
        self.stats.gc_removals += 1;
        let emptied = {
            let entry = self.slab.get_mut(id);
            let tracked = entry.ppns.swap_remove_item(&ppn);
            assert!(tracked, "ppn index consistent with entry");
            entry.ppns.is_empty()
        };
        if emptied {
            self.unlink_entry(id);
        }
    }

    fn garbage_weight(&self, ppn: Ppn) -> Option<PopularityDegree> {
        self.by_ppn.get(&ppn).map(|&id| self.slab.get(id).pop)
    }

    fn len(&self) -> usize {
        self.slab.len()
    }

    fn tracked_ppns(&self) -> usize {
        self.by_ppn.len()
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.capacity)
    }

    fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zssd_types::ValueId;

    fn fp(v: u64) -> Fingerprint {
        Fingerprint::of_value(ValueId::new(v))
    }

    fn insert(pool: &mut LruDeadValuePool, v: u64, ppn: u64, now: u64) {
        pool.insert_dead(
            fp(v),
            Ppn::new(ppn),
            Lpn::new(ppn),
            PopularityDegree::ZERO,
            WriteClock::from_count(now),
        );
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut p = LruDeadValuePool::new(2);
        insert(&mut p, 1, 1, 1);
        insert(&mut p, 2, 2, 2);
        // Touch value 1 so value 2 becomes LRU.
        insert(&mut p, 1, 10, 3);
        insert(&mut p, 3, 3, 4); // evicts value 2
        assert_eq!(p.take_match(fp(2), WriteClock::from_count(5)), None);
        assert!(p.take_match(fp(1), WriteClock::from_count(6)).is_some());
        assert_eq!(p.stats().evictions, 1);
    }

    #[test]
    fn hit_on_multi_ppn_entry_keeps_entry() {
        let mut p = LruDeadValuePool::new(4);
        insert(&mut p, 1, 1, 1);
        insert(&mut p, 1, 2, 2);
        assert!(p.take_match(fp(1), WriteClock::from_count(3)).is_some());
        assert_eq!(p.len(), 1);
        assert!(p.take_match(fp(1), WriteClock::from_count(4)).is_some());
        assert!(p.is_empty());
    }

    #[test]
    fn unlike_mq_popular_entries_are_not_protected() {
        // The motivating flaw (Fig 6): a popular value at the LRU head
        // is evicted by a burst of cold insertions.
        let mut p = LruDeadValuePool::new(3);
        p.insert_dead(
            fp(1),
            Ppn::new(1),
            Lpn::new(1),
            PopularityDegree::new(200),
            WriteClock::from_count(1),
        );
        for v in 2..=4u64 {
            insert(&mut p, v, v, v);
        }
        assert_eq!(
            p.take_match(fp(1), WriteClock::from_count(9)),
            None,
            "LRU evicted the popular value"
        );
    }

    #[test]
    fn gc_removal_and_weight() {
        let mut p = LruDeadValuePool::new(4);
        p.insert_dead(
            fp(1),
            Ppn::new(1),
            Lpn::new(1),
            PopularityDegree::new(5),
            WriteClock::from_count(1),
        );
        assert_eq!(
            p.garbage_weight(Ppn::new(1)),
            Some(PopularityDegree::new(5))
        );
        p.remove_ppn(Ppn::new(1));
        assert!(p.is_empty());
        assert_eq!(p.garbage_weight(Ppn::new(1)), None);
        p.remove_ppn(Ppn::new(1)); // idempotent
        assert_eq!(p.stats().gc_removals, 1);
    }

    #[test]
    fn capacity_is_reported() {
        let p = LruDeadValuePool::new(7);
        assert_eq!(p.capacity(), Some(7));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = LruDeadValuePool::new(0);
    }
}
