//! The unbounded pool backing the paper's *Ideal* system (§V).
//!
//! "Ideal uses infinite size for dead-value pool. This system is not
//! practical to implement in the real SSDs but is used for the sake of
//! comparison to provide insights on the maximum achievable
//! performance gain by recycling garbage pages."

use zssd_types::FxHashMap;

use zssd_types::{Fingerprint, InlineList, Lpn, PopularityDegree, Ppn, WriteClock};

use crate::pool::{DeadValuePool, PoolStats};

#[derive(Debug, Clone)]
struct Entry {
    ppns: InlineList<Ppn>,
    pop: PopularityDegree,
}

/// An unbounded dead-value pool: every dead page stays tracked until
/// it is reused or erased by GC.
///
/// # Examples
///
/// ```
/// use zssd_core::{DeadValuePool, IdealPool};
/// use zssd_types::{Fingerprint, Lpn, PopularityDegree, Ppn, ValueId, WriteClock};
///
/// let mut pool = IdealPool::new();
/// assert_eq!(pool.capacity(), None); // unbounded
/// let fp = Fingerprint::of_value(ValueId::new(1));
/// pool.insert_dead(fp, Ppn::new(1), Lpn::new(0), PopularityDegree::ZERO, WriteClock::ZERO);
/// assert_eq!(pool.take_match(fp, WriteClock::ZERO), Some(Ppn::new(1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct IdealPool {
    by_fp: FxHashMap<Fingerprint, Entry>,
    by_ppn: FxHashMap<Ppn, Fingerprint>,
    stats: PoolStats,
}

impl IdealPool {
    /// Creates an empty unbounded pool.
    pub fn new() -> Self {
        IdealPool::default()
    }
}

impl DeadValuePool for IdealPool {
    fn take_match(&mut self, fp: Fingerprint, _now: WriteClock) -> Option<Ppn> {
        let Some(entry) = self.by_fp.get_mut(&fp) else {
            self.stats.misses += 1;
            return None;
        };
        entry.pop.increment();
        let ppn = entry.ppns.pop().expect("entries always track >= 1 ppn");
        if entry.ppns.is_empty() {
            self.by_fp.remove(&fp);
        }
        self.by_ppn.remove(&ppn);
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
        let entry = self.by_fp.entry(fp).or_insert_with(|| Entry {
            ppns: InlineList::new(),
            pop,
        });
        entry.ppns.push(ppn);
        if pop > entry.pop {
            entry.pop = pop;
        }
        self.by_ppn.insert(ppn, fp);
    }

    fn remove_ppn(&mut self, ppn: Ppn) {
        let Some(fp) = self.by_ppn.remove(&ppn) else {
            return;
        };
        self.stats.gc_removals += 1;
        let entry = self.by_fp.get_mut(&fp).expect("indexes consistent");
        let tracked = entry.ppns.swap_remove_item(&ppn);
        assert!(tracked, "ppn tracked by its entry");
        if entry.ppns.is_empty() {
            self.by_fp.remove(&fp);
        }
    }

    fn garbage_weight(&self, ppn: Ppn) -> Option<PopularityDegree> {
        let fp = self.by_ppn.get(&ppn)?;
        self.by_fp.get(fp).map(|e| e.pop)
    }

    fn len(&self) -> usize {
        self.by_fp.len()
    }

    fn tracked_ppns(&self) -> usize {
        self.by_ppn.len()
    }

    fn capacity(&self) -> Option<usize> {
        None
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

    #[test]
    fn never_evicts() {
        let mut p = IdealPool::new();
        for v in 0..10_000u64 {
            p.insert_dead(
                fp(v),
                Ppn::new(v),
                Lpn::new(v),
                PopularityDegree::ZERO,
                WriteClock::ZERO,
            );
        }
        assert_eq!(p.len(), 10_000);
        assert_eq!(p.stats().evictions, 0);
        assert!(p.take_match(fp(0), WriteClock::ZERO).is_some());
    }

    #[test]
    fn gc_removal_shrinks_pool() {
        let mut p = IdealPool::new();
        p.insert_dead(
            fp(1),
            Ppn::new(1),
            Lpn::new(1),
            PopularityDegree::new(3),
            WriteClock::ZERO,
        );
        p.insert_dead(
            fp(1),
            Ppn::new(2),
            Lpn::new(1),
            PopularityDegree::new(4),
            WriteClock::ZERO,
        );
        assert_eq!(
            p.garbage_weight(Ppn::new(1)),
            Some(PopularityDegree::new(4))
        );
        p.remove_ppn(Ppn::new(1));
        p.remove_ppn(Ppn::new(2));
        assert!(p.is_empty());
        assert_eq!(p.tracked_ppns(), 0);
    }

    #[test]
    fn miss_is_counted() {
        let mut p = IdealPool::new();
        assert_eq!(p.take_match(fp(5), WriteClock::ZERO), None);
        assert_eq!(p.stats().misses, 1);
    }
}
