//! Streaming access cursors: the sequential hot path of every warm loop.
//!
//! [`Workload::access_at`](crate::Workload::access_at) is the *random
//! access* path: stateless, `O(1)`, and exactly what DSW key probes and
//! tests need. But every warm loop in the repository — SMARTS functional
//! warming, CoolSim's watchpoint interval, MRRL's profile and warming
//! windows, checkpoint preparation, and the Explorer/Scout scans — walks
//! strictly *sequential* ranges, where a stateless regeneration redoes a
//! phase binary search, several divide/mod chains, and pattern setup for
//! every single access.
//!
//! [`AccessCursor`] is the streaming counterpart: a batched generator
//! that hoists all per-range work out of the loop and advances
//! stream-local state incrementally. The contract is strict equivalence:
//! a cursor over `range` must produce **byte-identical** [`MemAccess`]
//! records to `access_at(k)` for every `k` in `range`
//! (`tests/properties.rs` pins this for every workload in the suite).
//!
//! Workloads get a cursor for free through [`IndexedCursor`] (the default
//! [`Workload::cursor`](crate::Workload::cursor) implementation simply
//! calls `access_at` per element). Implementors should override
//! [`Workload::cursor`](crate::Workload::cursor) whenever sequential
//! generation can share work between neighbouring indices — see
//! [`PhasedWorkload`](crate::PhasedWorkload) (incremental phase/slot/
//! pattern state) and [`RecordedTrace`](crate::RecordedTrace) (direct
//! slice replay) for the two in-tree examples.

use crate::types::MemAccess;
use crate::Workload;
use std::ops::Range;

/// Batch size used by the cursor-driven helpers ([`AccessIter`]
/// refills and [`WorkloadExt::for_each_access`]). Large enough to
/// amortize the virtual `fill` call, small enough to stay in L1.
///
/// [`AccessIter`]: crate::AccessIter
/// [`WorkloadExt::for_each_access`]: crate::WorkloadExt::for_each_access
pub const CURSOR_BATCH: usize = 1024;

/// A streaming generator over a contiguous range of workload accesses.
///
/// Produced by [`Workload::cursor`](crate::Workload::cursor).
/// Implementations must be deterministic and byte-identical to
/// [`Workload::access_at`](crate::Workload::access_at) over the range —
/// the "same execution across passes" invariant every DeLorean pass
/// relies on.
pub trait AccessCursor {
    /// Global index of the next access the cursor will produce.
    fn position(&self) -> u64;

    /// Exclusive end of the cursor's range.
    fn end(&self) -> u64;

    /// Clear `out` and refill it with up to `max` consecutive accesses,
    /// advancing the cursor. Returns the number produced; `0` means the
    /// cursor is exhausted (or `max == 0`).
    ///
    /// The canonical consumption loop — one reusable buffer, drained
    /// until the cursor is exhausted, byte-identical to indexed
    /// regeneration:
    ///
    /// ```
    /// use delorean_trace::{spec_workload, AccessCursor, Scale, Workload, CURSOR_BATCH};
    ///
    /// let w = spec_workload("mcf", Scale::tiny(), 1).unwrap();
    /// let mut cursor = w.cursor(100..2_600);
    /// let mut batch = Vec::with_capacity(CURSOR_BATCH);
    /// let mut seen = 0u64;
    /// while cursor.fill(&mut batch, CURSOR_BATCH) > 0 {
    ///     for a in &batch {
    ///         assert_eq!(*a, w.access_at(a.index)); // streaming ≡ indexed
    ///         seen += 1;
    ///     }
    /// }
    /// assert_eq!(seen, 2_500);
    /// assert_eq!(cursor.position(), cursor.end());
    /// ```
    fn fill(&mut self, out: &mut Vec<MemAccess>, max: usize) -> usize;

    /// Accesses left before exhaustion.
    fn remaining(&self) -> u64 {
        self.end().saturating_sub(self.position())
    }
}

impl std::fmt::Debug for dyn AccessCursor + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessCursor")
            .field("position", &self.position())
            .field("end", &self.end())
            .finish()
    }
}

/// The indexed fallback cursor: regenerates each access through
/// [`Workload::access_at`]. Correct for every workload; used by the
/// default [`Workload::cursor`](crate::Workload::cursor) implementation
/// and as the baseline of `bench_gates`' streaming-generation gate.
#[derive(Debug)]
pub struct IndexedCursor<'w, W: Workload + ?Sized> {
    workload: &'w W,
    next: u64,
    end: u64,
}

impl<'w, W: Workload + ?Sized> IndexedCursor<'w, W> {
    /// A cursor over `workload` accesses with `index ∈ range`.
    pub fn new(workload: &'w W, range: Range<u64>) -> Self {
        IndexedCursor {
            workload,
            next: range.start,
            end: range.end.max(range.start),
        }
    }
}

impl<W: Workload + ?Sized> AccessCursor for IndexedCursor<'_, W> {
    fn position(&self) -> u64 {
        self.next
    }

    fn end(&self) -> u64 {
        self.end
    }

    fn fill(&mut self, out: &mut Vec<MemAccess>, max: usize) -> usize {
        out.clear();
        let n = (self.end - self.next).min(max as u64);
        out.reserve(n as usize);
        for k in self.next..self.next + n {
            out.push(self.workload.access_at(k));
        }
        self.next += n;
        n as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spec_workload, Scale, WorkloadExt};

    #[test]
    fn indexed_cursor_matches_access_at() {
        let w = spec_workload("namd", Scale::tiny(), 3).unwrap();
        let mut cur = IndexedCursor::new(&w, 500..560);
        assert_eq!(cur.remaining(), 60);
        let mut buf = Vec::new();
        let mut k = 500u64;
        while cur.fill(&mut buf, 7) > 0 {
            for a in &buf {
                assert_eq!(*a, w.access_at(k));
                k += 1;
            }
        }
        assert_eq!(k, 560);
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn empty_and_inverted_ranges_are_exhausted() {
        let w = spec_workload("namd", Scale::tiny(), 3).unwrap();
        let mut buf = Vec::new();
        let mut cur = IndexedCursor::new(&w, 5..5);
        assert_eq!(cur.fill(&mut buf, 16), 0);
        #[allow(clippy::reversed_empty_ranges)]
        let mut cur = IndexedCursor::new(&w, 9..3);
        assert_eq!(cur.fill(&mut buf, 16), 0);
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn default_workload_cursor_is_indexed_fallback() {
        let w = spec_workload("namd", Scale::tiny(), 3).unwrap();
        let dynw: &dyn Workload = &w;
        // Through a trait object the default implementation must still
        // produce the exact access stream.
        let mut cur = crate::Workload::cursor(&dynw, 100..130);
        let mut buf = Vec::new();
        let mut seen = Vec::new();
        while cur.fill(&mut buf, 8) > 0 {
            seen.extend(buf.iter().copied());
        }
        let direct: Vec<_> = w.iter_range(100..130).collect();
        assert_eq!(seen, direct);
    }

    #[test]
    fn for_each_access_visits_the_range_in_order() {
        let w = spec_workload("namd", Scale::tiny(), 3).unwrap();
        let mut indices = Vec::new();
        w.for_each_access(40..80, |a| indices.push(a.index));
        assert_eq!(indices, (40..80).collect::<Vec<_>>());
    }
}
