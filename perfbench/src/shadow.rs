//! The shadow replay: the pool, dedup and mapping calls of
//! `Ssd::write` re-enacted from public functions alone, each call timed.
//!
//! It follows the drive's order — popularity bump, `take_match`, then
//! the dedup reference on a miss, then a fresh page — and the
//! overwritten content goes to `insert_dead` with the logical page's
//! popularity. Physical pages are synthetic numbers and there is no
//! flash and no GC, so on a run where the drive never collected, the
//! shadow pool must end with exactly the drive's pool counters.

use std::hint::black_box;
use std::time::{Duration, Instant};

use zssd_core::DeadValuePool;
use zssd_dedup::DedupStore;
use zssd_ftl::MappingTable;
use zssd_trace::{initial_value_of, IoOp, TraceRecord};
use zssd_types::{Fingerprint, Lpn, Ppn, WriteClock};

/// Total time and count of one kind of timed call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTimer {
    /// Summed duration of the calls.
    pub total: Duration,
    /// Number of calls.
    pub calls: u64,
}

impl CallTimer {
    /// Times one call.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(f());
        self.total += start.elapsed();
        self.calls += 1;
        out
    }

    /// Mean nanoseconds per call; 0 when there were none.
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total.as_nanos() as f64 / self.calls as f64
        }
    }
}

/// Call timings of one shadow replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowTimes {
    /// Host writes replayed.
    pub writes: u64,
    /// `DeadValuePool::take_match`.
    pub take_match: CallTimer,
    /// `DeadValuePool::insert_dead`.
    pub insert_dead: CallTimer,
    /// `MappingTable` bump, lookup, popularity and update, summed per
    /// write (one "call" per write).
    pub mapping: CallTimer,
    /// `DedupStore::reference`.
    pub reference: CallTimer,
    /// `DedupStore::register`.
    pub register: CallTimer,
    /// `DedupStore::release`.
    pub release: CallTimer,
}

/// Mapping, content and allocation state of the shadow drive.
struct Shadow<'a, P> {
    mapping: MappingTable,
    /// Content currently held by each logical page.
    content: Vec<Fingerprint>,
    pool: &'a mut P,
    dedup: Option<&'a mut DedupStore>,
    next_ppn: u64,
    clock: WriteClock,
    times: ShadowTimes,
    /// Mapping time of the write in progress.
    mapping_time: Duration,
}

/// Replays `records` against `pool` (and `dedup`, when the system
/// deduplicates) over a preconditioned `lpn_space`-page drive, as
/// `Ssd::new` and `Ssd::write` would drive them.
///
/// # Errors
///
/// Returns a description of the first mapping or dedup call that failed.
pub fn replay<P: DeadValuePool>(
    records: &[TraceRecord],
    lpn_space: u64,
    pool: &mut P,
    dedup: Option<&mut DedupStore>,
) -> Result<ShadowTimes, String> {
    let mut shadow = Shadow {
        mapping: MappingTable::new(lpn_space),
        content: Vec::with_capacity(lpn_space as usize),
        pool,
        dedup,
        next_ppn: 0,
        clock: WriteClock::ZERO,
        times: ShadowTimes::default(),
        mapping_time: Duration::ZERO,
    };
    shadow.precondition()?;
    for record in records {
        match record.op {
            IoOp::Write => shadow.write(record.lpn, record.fingerprint())?,
            IoOp::Read => shadow.pool.note_lpn_access(record.lpn, shadow.clock),
            IoOp::Trim => shadow.trim(record.lpn)?,
        }
    }
    Ok(shadow.times)
}

impl<P: DeadValuePool> Shadow<'_, P> {
    /// Every logical page holds its unique initial content, as after
    /// `Ssd::new`'s preconditioning fill. Not timed.
    fn precondition(&mut self) -> Result<(), String> {
        for lpn in (0..self.mapping.logical_pages()).map(Lpn::new) {
            let fp = Fingerprint::of_value(initial_value_of(lpn));
            let ppn = self.fresh_ppn();
            self.mapping.update(lpn, ppn).map_err(|e| e.to_string())?;
            self.content.push(fp);
            if let Some(dedup) = self.dedup.as_mut() {
                dedup.register(fp, ppn).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    fn fresh_ppn(&mut self) -> Ppn {
        self.next_ppn += 1;
        Ppn::new(self.next_ppn - 1)
    }

    fn map<T>(&mut self, f: impl FnOnce(&mut MappingTable) -> T) -> T {
        let start = Instant::now();
        let out = black_box(f(&mut self.mapping));
        self.mapping_time += start.elapsed();
        out
    }

    fn write(&mut self, lpn: Lpn, fp: Fingerprint) -> Result<(), String> {
        let now = self.clock.tick();
        self.times.writes += 1;
        self.mapping_time = Duration::ZERO;
        self.map(|m| m.bump_popularity(lpn))
            .map_err(|e| e.to_string())?;

        let zombie = self.times.take_match.time(|| self.pool.take_match(fp, now));
        if let Some(zombie) = zombie {
            self.kill_current(lpn, now)?;
            self.set(lpn, zombie, fp)?;
            self.register(fp, zombie)?;
        } else if let Some(shared) = self.reference(fp) {
            let old = self.map(|m| m.lookup(lpn)).map_err(|e| e.to_string())?;
            if old == Some(shared) {
                let dedup = self.dedup.as_mut().expect("a reference came from dedup");
                self.times
                    .release
                    .time(|| dedup.release(shared))
                    .map_err(|e| e.to_string())?;
            } else {
                self.kill_current(lpn, now)?;
                self.set(lpn, shared, fp)?;
            }
        } else {
            self.kill_current(lpn, now)?;
            let ppn = self.fresh_ppn();
            self.set(lpn, ppn, fp)?;
            self.register(fp, ppn)?;
        }
        self.times.mapping.total += self.mapping_time;
        self.times.mapping.calls += 1;
        Ok(())
    }

    fn trim(&mut self, lpn: Lpn) -> Result<(), String> {
        let mapped = self.mapping.lookup(lpn).map_err(|e| e.to_string())?;
        if mapped.is_some() {
            self.kill_current(lpn, self.clock)?;
            self.mapping.unmap(lpn).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn set(&mut self, lpn: Lpn, ppn: Ppn, fp: Fingerprint) -> Result<(), String> {
        self.map(|m| m.update(lpn, ppn))
            .map_err(|e| e.to_string())?;
        self.content[lpn.index() as usize] = fp;
        Ok(())
    }

    fn reference(&mut self, fp: Fingerprint) -> Option<Ppn> {
        let dedup = self.dedup.as_mut()?;
        self.times.reference.time(|| dedup.reference(fp))
    }

    fn register(&mut self, fp: Fingerprint, ppn: Ppn) -> Result<(), String> {
        let Some(dedup) = self.dedup.as_mut() else {
            return Ok(());
        };
        self.times
            .register
            .time(|| dedup.register(fp, ppn))
            .map_err(|e| e.to_string())
    }

    /// The content mapped at `lpn` dies: its last reference goes and
    /// the page is offered to the pool with the page's popularity.
    fn kill_current(&mut self, lpn: Lpn, now: WriteClock) -> Result<(), String> {
        let Some(old) = self.map(|m| m.lookup(lpn)).map_err(|e| e.to_string())? else {
            return Ok(());
        };
        let pop = self.map(|m| m.popularity(lpn)).map_err(|e| e.to_string())?;
        let fp = match self.dedup.as_mut() {
            Some(dedup) => {
                let release = self
                    .times
                    .release
                    .time(|| dedup.release(old))
                    .map_err(|e| e.to_string())?;
                if release.remaining > 0 {
                    return Ok(());
                }
                release.fingerprint
            }
            None => self.content[lpn.index() as usize],
        };
        let pool = &mut *self.pool;
        self.times
            .insert_dead
            .time(|| pool.insert_dead(fp, old, lpn, pop, now));
        Ok(())
    }
}
