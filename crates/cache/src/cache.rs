//! The set-associative cache core.

use crate::config::{CacheConfig, ReplacementPolicy};
use crate::stats::CacheStats;
use delorean_trace::{cast, mix64, LineAddr};

/// Sentinel tag for an empty way.
const EMPTY: u64 = u64::MAX;

/// Stable per-policy discriminant folded into state digests — decoupled
/// from the enum's memory layout so digests do not silently change if
/// the enum is reordered.
fn replacement_code(policy: ReplacementPolicy) -> u64 {
    match policy {
        ReplacementPolicy::Lru => 1,
        ReplacementPolicy::Fifo => 2,
        ReplacementPolicy::Random => 3,
        ReplacementPolicy::PLru => 4,
        ReplacementPolicy::Nmru => 5,
        ReplacementPolicy::Srrip => 6,
    }
}

/// Result of a (potentially filling) cache access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AccessResult {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled; `evicted` is the victim, if
    /// the chosen way held a valid line.
    Miss {
        /// Line evicted to make room, if any.
        evicted: Option<LineAddr>,
    },
}

impl AccessResult {
    /// `true` for [`AccessResult::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessResult::Hit)
    }
}

/// A set-associative cache with pluggable replacement.
///
/// LRU and FIFO caches of 2, 4, 8 or 16 ways — every Table 1 geometry
/// — run [`access`](Cache::access), [`lookup`](Cache::lookup) and
/// [`fill`](Cache::fill) through one branchless fixed-width kernel: a
/// single pass over the set's tag and stamp rows computes the hit mask,
/// the first-empty mask and the oldest stamp together, then one selected
/// way is written back and the statistics, `valid_lines` and evictions
/// are updated arithmetically. Every other policy and width takes the
/// policy-generic path. Both make the same decisions and leave the same
/// state, bit for bit.
///
/// ```
/// use delorean_cache::{Cache, CacheConfig};
/// use delorean_trace::LineAddr;
///
/// let mut c = Cache::new(CacheConfig::new(4096, 2));
/// assert!(!c.access(LineAddr(1)).is_hit()); // cold
/// assert!(c.access(LineAddr(1)).is_hit());
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: u64,
    set_mask: u64,
    /// Tag array, `sets × ways`, row-major; `EMPTY` marks invalid ways.
    tags: Vec<u64>,
    /// Per-way metadata: LRU/FIFO stamps (monotone ticks, stored as
    /// offsets from `stamp_base` to halve the array) or SRRIP RRPVs.
    stamps: Vec<u32>,
    /// The tick a stored stamp of 0 stands for.
    stamp_base: u64,
    /// Largest `tick − stamp_base` a stamp may hold before
    /// [`rebase_stamps`](Cache::rebase_stamps) re-anchors them.
    stamp_limit: u64,
    /// Per-set tree-PLRU bits (also reused as MRU pointer for NMRU).
    set_bits: Vec<u32>,
    tick: u64,
    rng: u64,
    valid_lines: u64,
    stats: CacheStats,
    /// Width of the branchless LRU/FIFO kernel this cache runs, or 0 for
    /// the policy-generic path.
    kernel_ways: usize,
}

impl Cache {
    /// Build a cache for a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CacheConfig::validate`].
    pub fn new(cfg: CacheConfig) -> Self {
        // lint:allow(no-unwrap): documented # Panics contract — construction fails fast on invalid geometry
        cfg.validate().expect("invalid cache geometry");
        let sets = cfg.sets();
        let n = cast::idx(sets * u64::from(cfg.ways));
        Cache {
            cfg,
            sets,
            set_mask: sets - 1,
            tags: vec![EMPTY; n],
            stamps: vec![0; n],
            stamp_base: 0,
            stamp_limit: u64::from(u32::MAX),
            set_bits: vec![0; cast::idx(sets)],
            tick: 0,
            rng: 0x5eed_c0de,
            valid_lines: 0,
            stats: CacheStats::default(),
            kernel_ways: Self::kernel_width(&cfg),
        }
    }

    /// The fixed-width kernel a configuration runs: its associativity for
    /// LRU and FIFO at 2, 4, 8 or 16 ways, else 0 (the generic path).
    fn kernel_width(cfg: &CacheConfig) -> usize {
        let policy = matches!(
            cfg.replacement,
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo
        );
        match cfg.ways {
            2 | 4 | 8 | 16 if policy => cfg.ways as usize,
            _ => 0,
        }
    }

    /// The configuration this cache was built from.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Set index of a line. The set count is validated to be a power of
    /// two, so this is a single mask — no division on the hot path.
    #[inline]
    pub fn set_index(&self, line: LineAddr) -> u64 {
        line.0 & self.set_mask
    }

    #[inline]
    fn row(&self, set: u64) -> usize {
        cast::idx(set * u64::from(self.cfg.ways))
    }

    /// The one tag-probe loop every lookup path shares: scan the set's
    /// tags for `tag` and return the matching way.
    ///
    /// Dispatches on the associativity to a fixed-width branchless scan:
    /// all ways are compared into a hit mask with no data-dependent
    /// branch (an early-exit loop over effectively random tags
    /// mispredicts on almost every probe), and the dispatch itself is
    /// perfectly predicted — a given cache's associativity never changes.
    /// Power-of-two widths up to 16 cover every Table 1 geometry.
    #[inline]
    fn find_way(set_tags: &[u64], tag: u64) -> Option<usize> {
        match set_tags.len() {
            1 => (set_tags[0] == tag).then_some(0),
            2 => Self::find_way_fixed::<2>(set_tags, tag),
            4 => Self::find_way_fixed::<4>(set_tags, tag),
            8 => Self::find_way_fixed::<8>(set_tags, tag),
            16 => Self::find_way_fixed::<16>(set_tags, tag),
            _ => set_tags.iter().position(|&t| t == tag),
        }
    }

    /// Branchless fixed-associativity scan: compare every way, collect a
    /// hit mask, pick the lowest set bit (ways hold distinct tags, so at
    /// most one bit is ever set).
    #[inline]
    fn find_way_fixed<const N: usize>(set_tags: &[u64], tag: u64) -> Option<usize> {
        // lint:allow(no-unwrap): the const-N dispatch passes exactly N tags, so the array conversion is infallible
        let ways: &[u64; N] = set_tags.try_into().expect("dispatch guarantees width");
        let mut mask = 0u32;
        for (w, &t) in ways.iter().enumerate() {
            mask |= u32::from(t == tag) << w;
        }
        if mask == 0 {
            None
        } else {
            Some(mask.trailing_zeros() as usize)
        }
    }

    /// The miss-path scan: tag-match way and first invalid way in **one**
    /// pass over the set, so a filling miss does not re-scan the tags it
    /// just failed to match (historically: a match scan, then an EMPTY
    /// scan, then the victim scan).
    #[inline]
    fn scan_set(set_tags: &[u64], tag: u64) -> (Option<usize>, Option<usize>) {
        match set_tags.len() {
            2 => Self::scan_set_fixed::<2>(set_tags, tag),
            4 => Self::scan_set_fixed::<4>(set_tags, tag),
            8 => Self::scan_set_fixed::<8>(set_tags, tag),
            16 => Self::scan_set_fixed::<16>(set_tags, tag),
            _ => (
                set_tags.iter().position(|&t| t == tag),
                set_tags.iter().position(|&t| t == EMPTY),
            ),
        }
    }

    /// Branchless fused match + invalid scan at fixed associativity.
    #[inline]
    fn scan_set_fixed<const N: usize>(
        set_tags: &[u64],
        tag: u64,
    ) -> (Option<usize>, Option<usize>) {
        // lint:allow(no-unwrap): the const-N dispatch passes exactly N tags, so the array conversion is infallible
        let ways: &[u64; N] = set_tags.try_into().expect("dispatch guarantees width");
        let mut hit_mask = 0u32;
        let mut empty_mask = 0u32;
        for (w, &t) in ways.iter().enumerate() {
            hit_mask |= u32::from(t == tag) << w;
            empty_mask |= u32::from(t == EMPTY) << w;
        }
        let pick = |mask: u32| {
            if mask == 0 {
                None
            } else {
                Some(mask.trailing_zeros() as usize)
            }
        };
        (pick(hit_mask), pick(empty_mask))
    }

    /// The tags of the line's set.
    #[inline]
    fn set_tags(&self, line: LineAddr) -> &[u64] {
        let row = self.row(self.set_index(line));
        &self.tags[row..row + self.cfg.ways as usize]
    }

    /// Touch the *host* cache lines holding this line's set metadata
    /// (tags and replacement stamps) without observing them.
    ///
    /// A batched caller that knows the next few accesses can issue these
    /// touches ahead of the simulation loop, overlapping the host-memory
    /// latency of the tag arrays with the current access's work — a
    /// lookahead the one-at-a-time API structurally cannot have.
    #[inline]
    pub fn prefetch_set(&self, line: LineAddr) {
        let row = self.row(self.set_index(line));
        std::hint::black_box(self.tags[row]);
        std::hint::black_box(self.stamps[row]);
    }

    /// Non-mutating lookup.
    #[inline]
    pub fn probe(&self, line: LineAddr) -> bool {
        Self::find_way(self.set_tags(line), line.0).is_some()
    }

    /// Non-mutating combined probe: whether `line` is present, and
    /// whether every way of its set holds a valid line — one scan instead
    /// of a [`Cache::probe`] + [`Cache::set_is_full`] pair (the DSW
    /// analyst consults both for every lukewarm miss).
    #[inline]
    pub fn probe_set(&self, line: LineAddr) -> (bool, bool) {
        let tags = self.set_tags(line);
        let mut present = false;
        let mut used = 0usize;
        for &t in tags {
            present |= t == line.0;
            used += usize::from(t != EMPTY);
        }
        (present, used == tags.len())
    }

    /// Number of valid ways in the line's set, and the associativity.
    pub fn set_occupancy(&self, line: LineAddr) -> (u32, u32) {
        let used = self.set_tags(line).iter().filter(|&&t| t != EMPTY).count() as u32;
        (used, self.cfg.ways)
    }

    /// `true` if every way of the line's set holds a valid line.
    pub fn set_is_full(&self, line: LineAddr) -> bool {
        let (used, ways) = self.set_occupancy(line);
        used == ways
    }

    /// Fraction of the cache holding valid lines.
    pub fn warm_fraction(&self) -> f64 {
        self.valid_lines as f64 / (self.sets * self.cfg.ways as u64) as f64
    }

    /// Access `line`, updating replacement state and filling on a miss.
    #[inline(always)]
    pub fn access(&mut self, line: LineAddr) -> AccessResult {
        self.advance_tick();
        match self.run_kernel::<true, true>(line) {
            Some((true, _)) => AccessResult::Hit,
            Some((false, evicted)) => AccessResult::Miss { evicted },
            None => self.access_generic(line),
        }
    }

    /// Access `line` *without* filling on a miss: hits update replacement
    /// state and statistics, misses only count. Used when the fill is
    /// deferred behind an MSHR.
    #[inline(always)]
    pub fn lookup(&mut self, line: LineAddr) -> bool {
        self.advance_tick();
        match self.run_kernel::<false, true>(line) {
            Some((hit, _)) => hit,
            None => self.lookup_generic(line),
        }
    }

    /// Insert `line` without recording an access (prefetch fill / warming
    /// transplant). Returns the evicted victim, if any. No-op if present.
    #[inline(always)]
    pub fn fill(&mut self, line: LineAddr) -> Option<LineAddr> {
        self.advance_tick();
        match self.run_kernel::<true, false>(line) {
            Some((_, evicted)) => evicted,
            None => self.fill_generic(line),
        }
    }

    /// [`access`](Cache::access) on the policy-generic path. Kept out of
    /// line so the kernel callers stay small enough to inline.
    #[inline(never)]
    fn access_generic(&mut self, line: LineAddr) -> AccessResult {
        let set = self.set_index(line);
        let row = self.row(set);
        let ways = self.cfg.ways as usize;
        let (hit, empty) = Self::scan_set(&self.tags[row..row + ways], line.0);
        if let Some(w) = hit {
            self.stats.hits += 1;
            self.touch(set, row, w);
            return AccessResult::Hit;
        }
        self.stats.misses += 1;
        let evicted = self.fill_into(set, row, empty, line);
        AccessResult::Miss { evicted }
    }

    /// [`lookup`](Cache::lookup) on the policy-generic path.
    #[inline(never)]
    fn lookup_generic(&mut self, line: LineAddr) -> bool {
        let set = self.set_index(line);
        let row = self.row(set);
        let ways = self.cfg.ways as usize;
        if let Some(w) = Self::find_way(&self.tags[row..row + ways], line.0) {
            self.stats.hits += 1;
            self.touch(set, row, w);
            return true;
        }
        self.stats.misses += 1;
        false
    }

    /// [`fill`](Cache::fill) on the policy-generic path.
    #[inline(never)]
    fn fill_generic(&mut self, line: LineAddr) -> Option<LineAddr> {
        let set = self.set_index(line);
        let row = self.row(set);
        let ways = self.cfg.ways as usize;
        let (hit, empty) = Self::scan_set(&self.tags[row..row + ways], line.0);
        if hit.is_some() {
            return None;
        }
        self.fill_into(set, row, empty, line)
    }

    /// Run the fixed-width kernel if this cache has one: `FILLS` fills on
    /// a miss ([`access`](Cache::access), [`fill`](Cache::fill)),
    /// `COUNTS` records the hit or miss ([`access`](Cache::access),
    /// [`lookup`](Cache::lookup)). Returns whether `line` hit and the
    /// line a fill evicted, or `None` for a generic-path cache. The
    /// dispatch is perfectly predicted: a cache's width never changes.
    #[inline(always)]
    fn run_kernel<const FILLS: bool, const COUNTS: bool>(
        &mut self,
        line: LineAddr,
    ) -> Option<(bool, Option<LineAddr>)> {
        Some(match self.kernel_ways {
            2 => self.kernel::<2, FILLS, COUNTS>(line),
            4 => self.kernel::<4, FILLS, COUNTS>(line),
            8 => self.kernel::<8, FILLS, COUNTS>(line),
            16 => self.kernel::<16, FILLS, COUNTS>(line),
            _ => return None,
        })
    }

    /// The branchless LRU/FIFO kernel at `N` ways.
    ///
    /// One pass over the set's tag and stamp rows yields the hit mask,
    /// the first-empty mask and the ways holding the oldest stamp. The
    /// selected way is the hit way, else the first empty way, else the
    /// first oldest way — exactly the generic path's choice, since a
    /// victim is only taken from a full set, whose valid stamps are
    /// distinct. That one way is written back unconditionally (with its
    /// own values where nothing changes), and every counter moves by a
    /// 0/1 amount instead of behind a branch.
    #[inline(always)]
    fn kernel<const N: usize, const FILLS: bool, const COUNTS: bool>(
        &mut self,
        line: LineAddr,
    ) -> (bool, Option<LineAddr>) {
        let row = self.row(self.set_index(line));
        let now = self.stamp_now();
        let lru = matches!(self.cfg.replacement, ReplacementPolicy::Lru);
        let tags: &mut [u64; N] = set_row(&mut self.tags, row);
        let stamps: &mut [u32; N] = set_row(&mut self.stamps, row);
        let mut hit_mask = 0u32;
        let mut empty_mask = 0u32;
        let mut oldest = u32::MAX;
        for w in 0..N {
            hit_mask |= u32::from(tags[w] == line.0) << w;
            empty_mask |= u32::from(tags[w] == EMPTY) << w;
            oldest = oldest.min(stamps[w]);
        }
        let mut oldest_mask = 0u32;
        for (w, &s) in stamps.iter().enumerate() {
            oldest_mask |= u32::from(s == oldest) << w;
        }
        let hit = hit_mask != 0;
        // All ones when the condition holds, else zero.
        let when = |c: bool| u32::from(c).wrapping_neg();
        let fill_mask = empty_mask | (oldest_mask & when(empty_mask == 0));
        let pick = if FILLS {
            hit_mask | (fill_mask & when(!hit))
        } else {
            hit_mask
        };
        // A lookup miss picks no way (32 trailing zeros); the mask keeps
        // the index in range, and nothing is written to it below.
        let w = (pick.trailing_zeros() as usize) & (N - 1);
        let old = tags[w];
        let filled = FILLS && !hit;
        if FILLS {
            tags[w] = line.0; // a hit way already holds `line`
        }
        // LRU refreshes on a counted hit; a fill always stamps.
        let refresh = if hit { lru && COUNTS } else { FILLS };
        stamps[w] = if refresh { now } else { stamps[w] };
        if COUNTS {
            self.stats.hits += u64::from(hit);
            self.stats.misses += u64::from(!hit);
        }
        let evicts = filled && old != EMPTY;
        self.stats.evictions += u64::from(evicts);
        self.valid_lines += u64::from(filled && old == EMPTY);
        (hit, evicts.then_some(LineAddr(old)))
    }

    /// Count one access tick, re-anchoring the stamps first if the new
    /// tick would not fit a stored stamp.
    #[inline]
    fn advance_tick(&mut self) {
        self.tick += 1;
        if self.tick - self.stamp_base > self.stamp_limit {
            self.rebase_stamps();
        }
    }

    /// The current tick as a stored stamp.
    #[inline]
    fn stamp_now(&self) -> u32 {
        cast::u32_exact(self.tick - self.stamp_base)
    }

    /// Re-anchor the stamps so the current tick fits a stored stamp
    /// again (once every ~4 G ticks).
    ///
    /// Only LRU and FIFO compare stamps, and only among the valid ways of
    /// one set (a victim is picked from a full set), so replacing each
    /// set's valid stamps by their ranks keeps every later victim choice,
    /// and the digest's rank order, exactly as it was. SRRIP stamps are
    /// RRPVs, not ticks, and the other policies never read stamps; for
    /// them only the anchor moves.
    #[cold]
    fn rebase_stamps(&mut self) {
        let ways = self.cfg.ways as usize;
        if !matches!(
            self.cfg.replacement,
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo
        ) {
            self.stamp_base = self.tick;
            return;
        }
        let mut valid: Vec<usize> = Vec::with_capacity(ways);
        for row in (0..self.tags.len()).step_by(ways) {
            valid.clear();
            valid.extend((0..ways).filter(|&w| self.tags[row + w] != EMPTY));
            valid.sort_unstable_by_key(|&w| self.stamps[row + w]);
            for (rank, &w) in valid.iter().enumerate() {
                self.stamps[row + w] = cast::u32_exact(rank as u64);
            }
        }
        // Ranks are below `ways`; the current tick becomes `ways`.
        self.stamp_base = self.tick - ways as u64;
    }

    /// Rebase the stamps whenever a stamp would exceed `limit` instead
    /// of once every ~4 G ticks, so tests can reach the rebase path.
    #[cfg(test)]
    fn with_stamp_limit(mut self, limit: u64) -> Self {
        self.stamp_limit = limit;
        self
    }

    /// Route every access through the policy-generic path, so tests can
    /// check the fixed-width kernel against it.
    #[cfg(test)]
    fn with_generic_path(mut self) -> Self {
        self.kernel_ways = 0;
        self
    }

    /// Remove `line` if present; returns whether it was.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let row = self.row(self.set_index(line));
        let ways = self.cfg.ways as usize;
        if let Some(w) = Self::find_way(&self.tags[row..row + ways], line.0) {
            self.tags[row + w] = EMPTY;
            self.valid_lines -= 1;
            return true;
        }
        false
    }

    /// Access statistics since construction or the last reset.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Zero the statistics (state is kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Capture the full microarchitectural state of the cache (tags and
    /// replacement metadata) for checkpointed warming.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            tags: self.tags.clone(),
            stamps: self.stamps.clone(),
            stamp_base: self.stamp_base,
            set_bits: self.set_bits.clone(),
            tick: self.tick,
            valid_lines: self.valid_lines,
        }
    }

    /// Restore a previously captured state. Statistics are not part of the
    /// snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot geometry does not match this cache.
    pub fn restore(&mut self, snapshot: &CacheSnapshot) {
        assert_eq!(
            snapshot.tags.len(),
            self.tags.len(),
            "snapshot geometry mismatch"
        );
        self.tags.clone_from(&snapshot.tags);
        self.stamps.clone_from(&snapshot.stamps);
        self.stamp_base = snapshot.stamp_base;
        self.set_bits.clone_from(&snapshot.set_bits);
        self.tick = snapshot.tick;
        self.valid_lines = snapshot.valid_lines;
    }

    /// Adopt another cache's state, reusing this cache's allocations
    /// (`clone_from` on the arrays instead of a fresh deep copy). The
    /// cheap restore path of the speculative warm lane: the reconciler
    /// repeatedly overwrites a scratch hierarchy with the carried state.
    ///
    /// # Panics
    ///
    /// Panics if the two caches have different geometry.
    pub fn copy_state_from(&mut self, other: &Cache) {
        assert_eq!(self.tags.len(), other.tags.len(), "cache geometry mismatch");
        self.cfg = other.cfg;
        self.tags.clone_from(&other.tags);
        self.stamps.clone_from(&other.stamps);
        self.stamp_base = other.stamp_base;
        self.stamp_limit = other.stamp_limit;
        self.set_bits.clone_from(&other.set_bits);
        self.tick = other.tick;
        self.rng = other.rng;
        self.valid_lines = other.valid_lines;
        self.stats = other.stats;
        self.kernel_ways = other.kernel_ways;
    }

    /// A [`mix64`] fold over the cache's **behaviorally live** state: the
    /// portion of the microarchitectural state that determines every
    /// future hit/miss/eviction, and nothing more. Two caches with equal
    /// digests behave identically on any subsequent access sequence,
    /// even when their raw [`CacheSnapshot`]s differ in dead bytes.
    ///
    /// What is live depends on the replacement policy:
    ///
    /// * **LRU / FIFO** — per set, the valid tags in *stamp-rank order*
    ///   (oldest → newest). Absolute stamp values are dead: every new
    ///   stamp exceeds all existing ones, so only the relative order can
    ///   ever influence a victim scan. Way positions are dead too: hits
    ///   scan all ways, the victim is chosen by minimum stamp (distinct
    ///   among valid ways — each write uses a fresh tick), and an empty
    ///   way's identity never outlives its fill. Rank-canonicalizing is
    ///   what lets a directed warm-up window, replayed from a cold cache,
    ///   reproduce the live state of the full warm chain exactly.
    /// * **SRRIP** — tags and RRPV stamps in way order (the victim scan
    ///   breaks RRPV ties by way index, so positions are live).
    /// * **PLRU** — tags in way order plus the tree bits (the bits
    ///   address ways, so positions are live; stamps and tick are dead).
    /// * **NMRU** — tags in way order, the MRU way pointer, and the RNG
    ///   and tick that seed victim selection.
    /// * **Random** — tags in way order plus RNG and tick.
    ///
    /// Statistics and `valid_lines` (derived from the tags) are never
    /// folded.
    pub fn state_digest(&self, seed: u64) -> u64 {
        let ways = self.cfg.ways as usize;
        let mut d = mix64(seed, self.sets ^ (u64::from(self.cfg.ways) << 32));
        d = mix64(d, replacement_code(self.cfg.replacement));
        // Scratch for the per-set rank sort (LRU/FIFO only); hoisted out
        // of the set loop so the digest allocates at most once.
        let mut by_rank: Vec<(u32, u64)> = Vec::with_capacity(ways);
        for set in 0..self.sets {
            let row = self.row(set);
            match self.cfg.replacement {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                    by_rank.clear();
                    for w in 0..ways {
                        let tag = self.tags[row + w];
                        if tag != EMPTY {
                            by_rank.push((self.stamps[row + w], tag));
                        }
                    }
                    // Valid stamps are distinct within a set (each write
                    // consumes a fresh tick, and a rebase keeps ranks),
                    // so this order is total and the sort is a pure rank
                    // canonicalization.
                    by_rank.sort_unstable();
                    d = mix64(d, by_rank.len() as u64);
                    for &(_, tag) in &by_rank {
                        d = mix64(d, tag);
                    }
                }
                ReplacementPolicy::Srrip => {
                    for w in 0..ways {
                        let tag = self.tags[row + w];
                        d = mix64(d, tag);
                        if tag != EMPTY {
                            d = mix64(d, u64::from(self.stamps[row + w]));
                        }
                    }
                }
                ReplacementPolicy::PLru => {
                    for w in 0..ways {
                        d = mix64(d, self.tags[row + w]);
                    }
                    d = mix64(d, u64::from(self.set_bits[cast::idx(set)]));
                }
                ReplacementPolicy::Nmru => {
                    for w in 0..ways {
                        d = mix64(d, self.tags[row + w]);
                    }
                    d = mix64(d, u64::from(self.set_bits[cast::idx(set)]));
                }
                ReplacementPolicy::Random => {
                    for w in 0..ways {
                        d = mix64(d, self.tags[row + w]);
                    }
                }
            }
        }
        // RNG-driven policies consume (rng, tick) on every victim pick,
        // so both are live state there; everywhere else they are dead.
        if matches!(
            self.cfg.replacement,
            ReplacementPolicy::Random | ReplacementPolicy::Nmru
        ) {
            d = mix64(d, self.rng);
            d = mix64(d, self.tick);
        }
        d
    }

    /// Update replacement metadata after a hit on way `w`.
    #[inline]
    fn touch(&mut self, set: u64, row: usize, w: usize) {
        match self.cfg.replacement {
            ReplacementPolicy::Lru => self.stamps[row + w] = self.stamp_now(),
            ReplacementPolicy::Fifo => {} // insertion order only
            ReplacementPolicy::Random => {}
            ReplacementPolicy::PLru => self.plru_touch(set, w),
            ReplacementPolicy::Nmru => self.set_bits[cast::idx(set)] = cast::u32_exact(w as u64),
            ReplacementPolicy::Srrip => self.stamps[row + w] = 0, // near re-reference
        }
    }

    /// Choose a victim way in a full set.
    #[inline]
    fn victim(&mut self, set: u64, row: usize) -> usize {
        let ways = self.cfg.ways as usize;
        match self.cfg.replacement {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                // Branchless oldest-stamp scan: conditional moves instead
                // of a data-dependent branch per way (ties keep the first
                // minimum, matching the historical scan order).
                let stamps = &self.stamps[row..row + ways];
                let mut best = 0usize;
                let mut best_stamp = stamps[0];
                for (w, &s) in stamps.iter().enumerate().skip(1) {
                    let better = s < best_stamp;
                    best = if better { w } else { best };
                    best_stamp = if better { s } else { best_stamp };
                }
                best
            }
            ReplacementPolicy::Random => {
                self.rng = mix64(self.rng, self.tick);
                cast::idx(self.rng % ways as u64)
            }
            ReplacementPolicy::PLru => self.plru_victim(set),
            ReplacementPolicy::Nmru => {
                let mru = self.set_bits[cast::idx(set)] as usize % ways;
                if ways == 1 {
                    0
                } else {
                    self.rng = mix64(self.rng, self.tick);
                    let pick = cast::idx(self.rng % (ways as u64 - 1));
                    if pick >= mru {
                        pick + 1
                    } else {
                        pick
                    }
                }
            }
            ReplacementPolicy::Srrip => {
                // Find a distant-re-reference line (RRPV 3), aging the
                // whole set until one appears. Terminates: each round
                // raises the max RRPV by one and it is capped at 3.
                loop {
                    if let Some(w) = (0..ways).find(|&w| self.stamps[row + w] >= 3) {
                        return w;
                    }
                    for w in 0..ways {
                        self.stamps[row + w] += 1;
                    }
                }
            }
        }
    }

    /// Fill `line` into `set`: prefer the invalid way found by the fused
    /// miss scan, fall back to the policy victim in a full set.
    fn fill_into(
        &mut self,
        set: u64,
        row: usize,
        empty: Option<usize>,
        line: LineAddr,
    ) -> Option<LineAddr> {
        let w = empty.unwrap_or_else(|| self.victim(set, row));
        let old = self.tags[row + w];
        let evicted = if old == EMPTY {
            self.valid_lines += 1;
            None
        } else {
            self.stats.evictions += 1;
            Some(LineAddr(old))
        };
        self.tags[row + w] = line.0;
        self.stamps[row + w] = self.stamp_now();
        match self.cfg.replacement {
            ReplacementPolicy::PLru => self.plru_touch(set, w),
            ReplacementPolicy::Nmru => self.set_bits[cast::idx(set)] = cast::u32_exact(w as u64),
            // SRRIP inserts with a "long" re-reference prediction: the
            // line must prove itself with a hit before it outlives scans.
            ReplacementPolicy::Srrip => self.stamps[row + w] = 2,
            _ => {}
        }
        evicted
    }

    /// Tree-PLRU: flip the path bits toward `w` so they point *away*.
    fn plru_touch(&mut self, set: u64, w: usize) {
        let ways = self.cfg.ways as usize;
        if ways == 1 {
            return;
        }
        let mut bits = self.set_bits[cast::idx(set)];
        let levels = ways.trailing_zeros();
        let mut node = 0usize; // index within the implicit tree, root = 0
        for level in (0..levels).rev() {
            let bit = (w >> level) & 1;
            // Store the direction NOT taken (points to the PLRU side).
            if bit == 1 {
                bits &= !(1 << node);
            } else {
                bits |= 1 << node;
            }
            node = 2 * node + 1 + bit;
        }
        self.set_bits[cast::idx(set)] = bits;
    }

    /// Tree-PLRU victim: follow the stored bits from the root.
    fn plru_victim(&self, set: u64) -> usize {
        let ways = self.cfg.ways as usize;
        if ways == 1 {
            return 0;
        }
        let bits = self.set_bits[cast::idx(set)];
        let levels = ways.trailing_zeros();
        let mut node = 0usize;
        let mut w = 0usize;
        for _ in 0..levels {
            let dir = ((bits >> node) & 1) as usize;
            w = (w << 1) | dir;
            node = 2 * node + 1 + dir;
        }
        w
    }
}

/// The `N` entries of the set row starting at `row`, as a fixed-width
/// array the kernel's loops fully unroll over.
#[inline(always)]
fn set_row<const N: usize, T>(v: &mut [T], row: usize) -> &mut [T; N] {
    // lint:allow(no-unwrap): the slice is exactly N long, so the array conversion is infallible
    (&mut v[row..row + N]).try_into().expect("kernel width")
}

/// A serializable image of a cache's microarchitectural state (the
/// substance of checkpointed warming: Flex points / Live points store
/// exactly this per detailed region).
///
/// Snapshots compare bit-for-bit (`PartialEq`), which is what the
/// batched-vs-per-access equivalence oracle pins down: two hierarchies
/// that took the same accesses must snapshot identically.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheSnapshot {
    tags: Vec<u64>,
    stamps: Vec<u32>,
    stamp_base: u64,
    set_bits: Vec<u32>,
    tick: u64,
    valid_lines: u64,
}

impl CacheSnapshot {
    /// Number of valid lines captured.
    pub fn valid_lines(&self) -> u64 {
        self.valid_lines
    }

    /// Storage footprint of a Live-points-style serialization: one 8-byte
    /// tag plus one byte of replacement metadata per *valid* line (invalid
    /// ways are not stored).
    pub fn storage_bytes(&self) -> u64 {
        self.valid_lines * 9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: u32, policy: ReplacementPolicy) -> Cache {
        // 4 sets × `ways` lines of 64 B.
        Cache::new(CacheConfig {
            size_bytes: 64 * 4 * ways as u64,
            ways,
            line_bytes: 64,
            replacement: policy,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        assert!(!c.access(LineAddr(0)).is_hit());
        assert!(c.access(LineAddr(0)).is_hit());
        assert!(c.probe(LineAddr(0)));
        assert!(!c.probe(LineAddr(4)));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.access(LineAddr(0));
        c.access(LineAddr(4));
        c.access(LineAddr(0)); // 0 is now MRU
        match c.access(LineAddr(8)) {
            AccessResult::Miss { evicted } => assert_eq!(evicted, Some(LineAddr(4))),
            _ => panic!("expected miss"),
        }
        assert!(c.probe(LineAddr(0)));
        assert!(!c.probe(LineAddr(4)));
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut c = tiny(2, ReplacementPolicy::Fifo);
        c.access(LineAddr(0));
        c.access(LineAddr(4));
        c.access(LineAddr(0)); // touch does not refresh FIFO order
        match c.access(LineAddr(8)) {
            AccessResult::Miss { evicted } => assert_eq!(evicted, Some(LineAddr(0))),
            _ => panic!("expected miss"),
        }
    }

    #[test]
    fn plru_follows_tree_bits() {
        let mut c = tiny(4, ReplacementPolicy::PLru);
        for l in [0u64, 4, 8, 12] {
            c.access(LineAddr(l)); // fill set 0: touch order w0..w3
        }
        // After the full fill sequence the tree points at w0; touching w0
        // flips the root to the right half, whose PLRU leaf is w2 (line 8).
        c.access(LineAddr(0));
        match c.access(LineAddr(16)) {
            AccessResult::Miss { evicted } => assert_eq!(evicted, Some(LineAddr(8))),
            _ => panic!("expected miss"),
        }
    }

    #[test]
    fn plru_never_evicts_most_recently_used() {
        let mut c = tiny(8, ReplacementPolicy::PLru);
        // Pseudo-random accesses within one set (stride = set count = 4).
        let mut last = LineAddr(0);
        for i in 0..500u64 {
            let line = LineAddr(4 * (delorean_trace::mix64(1, i) % 32));
            let r = c.access(line);
            if let AccessResult::Miss { evicted: Some(e) } = r {
                assert_ne!(e, last, "iteration {i}: evicted the MRU line");
            }
            last = line;
        }
    }

    #[test]
    fn nmru_never_evicts_mru() {
        let mut c = tiny(4, ReplacementPolicy::Nmru);
        for l in [0u64, 4, 8, 12] {
            c.access(LineAddr(l));
        }
        for round in 0..50u64 {
            let mru = LineAddr(12 + 16 * round); // last filled / touched
            c.access(mru);
            match c.access(LineAddr(12 + 16 * (round + 1))) {
                AccessResult::Miss { evicted } => {
                    assert_ne!(evicted, Some(mru), "round {round}: MRU evicted")
                }
                _ => panic!("expected miss"),
            }
        }
    }

    #[test]
    fn random_eventually_evicts_everything() {
        let mut c = tiny(4, ReplacementPolicy::Random);
        for l in [0u64, 4, 8, 12] {
            c.access(LineAddr(l));
        }
        let mut evicted = delorean_trace::FlatSet::new();
        for i in 1..200u64 {
            if let AccessResult::Miss { evicted: Some(e) } = c.access(LineAddr(16 * i)) {
                evicted.insert(e.0 % 16);
            }
        }
        assert!(
            evicted.len() >= 3,
            "random eviction too narrow: {evicted:?}"
        );
    }

    #[test]
    fn srrip_resists_streaming_scans() {
        // One hot line re-referenced between scan bursts longer than the
        // associativity: SRRIP keeps it (its hit resets the RRPV to 0
        // while scan lines enter at 2); LRU loses it to every burst.
        let hot = LineAddr(0);
        let scan = |i: u64| LineAddr(4 + 4 * i); // same set, distinct lines
        let run = |policy| {
            let mut c = tiny(4, policy);
            c.access(hot);
            c.access(hot); // prime: under SRRIP the hit marks it near-re-reference
            let mut hot_hits = 0;
            for round in 0..50u64 {
                for b in 0..5 {
                    c.access(scan(round * 5 + b));
                }
                if c.access(hot).is_hit() {
                    hot_hits += 1;
                }
            }
            hot_hits
        };
        let srrip_hits = run(ReplacementPolicy::Srrip);
        let lru_hits = run(ReplacementPolicy::Lru);
        assert_eq!(lru_hits, 0, "LRU must thrash under the scan");
        assert_eq!(srrip_hits, 50, "SRRIP should retain the hot line");
    }

    #[test]
    fn srrip_victim_search_terminates_and_evicts() {
        let mut c = tiny(4, ReplacementPolicy::Srrip);
        for i in 0..100u64 {
            c.access(LineAddr(i * 4)); // all map to set 0
        }
        assert_eq!(c.stats().misses, 100);
        assert!(c.stats().evictions >= 96);
    }

    #[test]
    fn fill_does_not_count_access() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        c.fill(LineAddr(0));
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.probe(LineAddr(0)));
        assert!(c.access(LineAddr(0)).is_hit());
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn probe_set_matches_probe_plus_set_is_full() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        for i in 0..40u64 {
            c.access(LineAddr(delorean_trace::mix64(3, i) % 24));
            for l in 0..24u64 {
                let line = LineAddr(l);
                assert_eq!(
                    c.probe_set(line),
                    (c.probe(line), c.set_is_full(line)),
                    "probe_set diverged on line {l} after {i} accesses"
                );
            }
        }
    }

    #[test]
    fn occupancy_and_warm_fraction() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        assert_eq!(c.set_occupancy(LineAddr(0)), (0, 2));
        c.access(LineAddr(0));
        assert_eq!(c.set_occupancy(LineAddr(0)), (1, 2));
        assert!(!c.set_is_full(LineAddr(0)));
        c.access(LineAddr(4));
        assert!(c.set_is_full(LineAddr(0)));
        assert!((c.warm_fraction() - 2.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn invalidate_removes_lines() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        c.access(LineAddr(0));
        assert!(c.invalidate(LineAddr(0)));
        assert!(!c.invalidate(LineAddr(0)));
        assert!(!c.probe(LineAddr(0)));
        assert_eq!(c.warm_fraction(), 0.0);
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        for l in 0..4u64 {
            c.access(LineAddr(l)); // four different sets
        }
        for l in 0..4u64 {
            assert!(c.probe(LineAddr(l)));
        }
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        for i in 0..50u64 {
            c.access(LineAddr(delorean_trace::mix64(1, i) % 32));
        }
        let snap = c.snapshot();
        assert!(snap.valid_lines() > 0);
        assert_eq!(snap.storage_bytes(), snap.valid_lines() * 9);
        // Mutate, restore, and verify behavioural equivalence.
        let mut probe_before: Vec<bool> = (0..32).map(|l| c.probe(LineAddr(l))).collect();
        for i in 0..100u64 {
            c.access(LineAddr(100 + i));
        }
        c.restore(&snap);
        let probe_after: Vec<bool> = (0..32).map(|l| c.probe(LineAddr(l))).collect();
        assert_eq!(probe_before, probe_after);
        // Replacement order was restored too: next evictions match a
        // freshly-restored twin.
        let mut twin = tiny(2, ReplacementPolicy::Lru);
        twin.restore(&snap);
        for i in 0..50u64 {
            let a = c.access(LineAddr(1000 + i % 8));
            let b = twin.access(LineAddr(1000 + i % 8));
            assert_eq!(a, b, "divergence after restore at step {i}");
        }
        probe_before.clear();
    }

    #[test]
    #[should_panic(expected = "snapshot geometry mismatch")]
    fn snapshot_rejects_wrong_geometry() {
        let c = tiny(2, ReplacementPolicy::Lru);
        let snap = c.snapshot();
        let mut other = tiny(4, ReplacementPolicy::Lru);
        other.restore(&snap);
    }

    #[test]
    fn lru_digest_canonicalizes_dead_bytes() {
        // Two LRU caches driven over the same cyclic line sequence, one
        // from the start and one from a cycle boundary onward, end at
        // the same stream position with the same tags and the same
        // recency *order* — but different absolute stamps and ticks (and
        // potentially different way assignments). The live-state digest
        // must see through the dead bytes; the raw snapshot must not.
        let lines = 6u64; // cycles through sets 0..=1 of the 4-set cache
        let seq = |i: u64| LineAddr(i % lines);
        let mut full = tiny(2, ReplacementPolicy::Lru);
        let mut window = tiny(2, ReplacementPolicy::Lru);
        for i in 0..3 * lines {
            full.access(seq(i));
        }
        for i in lines..3 * lines {
            window.access(seq(i));
        }
        assert_eq!(full.state_digest(7), window.state_digest(7));
        assert_ne!(full.snapshot(), window.snapshot(), "stamps must differ");
        // Equal digests ⇒ identical future behaviour, including victims.
        for i in 0..200u64 {
            let line = LineAddr(delorean_trace::mix64(9, i) % 24);
            assert_eq!(full.access(line), window.access(line), "step {i}");
            assert_eq!(full.state_digest(7), window.state_digest(7), "step {i}");
        }
    }

    #[test]
    fn digest_differs_when_tags_or_order_differ() {
        let mut a = tiny(2, ReplacementPolicy::Lru);
        let mut b = tiny(2, ReplacementPolicy::Lru);
        a.access(LineAddr(0));
        b.access(LineAddr(4)); // same set, different line
        assert_ne!(a.state_digest(7), b.state_digest(7));
        // Same resident lines, different recency order.
        let mut c = tiny(2, ReplacementPolicy::Lru);
        let mut d = tiny(2, ReplacementPolicy::Lru);
        c.access(LineAddr(0));
        c.access(LineAddr(4));
        d.access(LineAddr(4));
        d.access(LineAddr(0));
        assert_ne!(c.state_digest(7), d.state_digest(7));
        // Seed changes the digest.
        assert_ne!(c.state_digest(7), c.state_digest(8));
    }

    #[test]
    fn rng_policies_fold_rng_and_tick() {
        // Random replacement consumes (rng, tick) on every victim pick,
        // so two caches with identical tags but different ticks are NOT
        // behaviourally equal — the digest must distinguish them.
        let mut a = tiny(2, ReplacementPolicy::Random);
        let mut b = tiny(2, ReplacementPolicy::Random);
        a.access(LineAddr(0));
        b.access(LineAddr(8)); // tick advances; line 8 maps to set 0 too
        b.invalidate(LineAddr(8));
        b.access(LineAddr(0));
        assert_ne!(a.state_digest(7), b.state_digest(7));
    }

    #[test]
    fn copy_state_from_matches_clone() {
        let mut src = tiny(4, ReplacementPolicy::PLru);
        for i in 0..300u64 {
            src.access(LineAddr(delorean_trace::mix64(5, i) % 64));
        }
        let mut dst = tiny(4, ReplacementPolicy::PLru);
        dst.access(LineAddr(999)); // dirty the destination first
        dst.copy_state_from(&src);
        assert_eq!(dst.snapshot(), src.snapshot());
        assert_eq!(dst.stats(), src.stats());
        assert_eq!(dst.state_digest(1), src.state_digest(1));
        for i in 0..100u64 {
            let line = LineAddr(delorean_trace::mix64(6, i) % 64);
            assert_eq!(dst.access(line), src.access(line), "step {i}");
        }
    }

    #[test]
    #[should_panic(expected = "cache geometry mismatch")]
    fn copy_state_rejects_wrong_geometry() {
        let src = tiny(2, ReplacementPolicy::Lru);
        let mut dst = tiny(4, ReplacementPolicy::Lru);
        dst.copy_state_from(&src);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        c.access(LineAddr(0));
        c.access(LineAddr(0));
        c.access(LineAddr(1));
        let s = c.stats();
        assert_eq!(s.accesses(), 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn fixed_width_kernel_matches_the_generic_path() {
        // The branchless LRU/FIFO kernel must make the generic path's
        // every decision and leave its exact state, stamps included,
        // across hits, misses, fills, lookups, invalidations and
        // mid-stream stamp rebases.
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
            for ways in [2u32, 4, 8, 16] {
                let limit = u64::from(ways) * 5;
                let mut kernel = tiny(ways, policy).with_stamp_limit(limit);
                let mut generic = tiny(ways, policy)
                    .with_stamp_limit(limit)
                    .with_generic_path();
                assert_eq!(kernel.kernel_ways, ways as usize);
                let ctx = |i: u64| format!("{policy:?} ways={ways} step {i}");
                for i in 0..20_000u64 {
                    let r = delorean_trace::mix64(u64::from(ways) ^ 0x5a, i);
                    // Three lines per way per set: sets fill, overflow
                    // and empty again under invalidations.
                    let line = LineAddr(r % (12 * u64::from(ways)));
                    match (r >> 32) % 8 {
                        0 | 1 => {
                            assert_eq!(kernel.lookup(line), generic.lookup(line), "{}", ctx(i))
                        }
                        2 => assert_eq!(kernel.fill(line), generic.fill(line), "{}", ctx(i)),
                        3 => assert_eq!(
                            kernel.invalidate(line),
                            generic.invalidate(line),
                            "{}",
                            ctx(i)
                        ),
                        _ => assert_eq!(kernel.access(line), generic.access(line), "{}", ctx(i)),
                    }
                    if i % 499 == 0 || i == 19_999 {
                        assert_eq!(kernel.stats(), generic.stats(), "{}", ctx(i));
                        assert_eq!(kernel.valid_lines, generic.valid_lines, "{}", ctx(i));
                        assert_eq!(
                            kernel.state_digest(3),
                            generic.state_digest(3),
                            "{}",
                            ctx(i)
                        );
                        assert_eq!(kernel.snapshot(), generic.snapshot(), "{}", ctx(i));
                    }
                }
                assert!(kernel.stats().evictions > 0, "{policy:?} ways={ways}");
                assert!(
                    kernel.stamp_base > 0,
                    "{policy:?} ways={ways}: never rebased"
                );
            }
        }
    }

    #[test]
    fn only_lru_and_fifo_at_power_of_two_widths_take_the_kernel() {
        for (ways, policy, width) in [
            (2, ReplacementPolicy::Lru, 2),
            (16, ReplacementPolicy::Fifo, 16),
            (1, ReplacementPolicy::Lru, 0),
            (32, ReplacementPolicy::Lru, 0),
            (4, ReplacementPolicy::PLru, 0),
            (8, ReplacementPolicy::Srrip, 0),
        ] {
            assert_eq!(
                tiny(ways, policy).kernel_ways,
                width,
                "{policy:?} ways={ways}"
            );
        }
    }

    #[test]
    fn stamp_rebasing_never_changes_behavior() {
        // A cache that rebases every few dozen ticks must make the same
        // hit, miss and victim decisions, and reach the same live state,
        // as one that never rebases.
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
            ReplacementPolicy::PLru,
            ReplacementPolicy::Nmru,
            ReplacementPolicy::Srrip,
        ] {
            for ways in [2u32, 8] {
                let mut wide = tiny(ways, policy);
                let mut narrow = tiny(ways, policy).with_stamp_limit(u64::from(ways) * 3);
                for i in 0..20_000u64 {
                    let r = delorean_trace::mix64(u64::from(ways), i);
                    let line = LineAddr(r % (16 * u64::from(ways)));
                    match (r >> 32) % 8 {
                        0 => assert_eq!(wide.lookup(line), narrow.lookup(line)),
                        1 => assert_eq!(wide.fill(line), narrow.fill(line)),
                        2 => assert_eq!(wide.invalidate(line), narrow.invalidate(line)),
                        _ => assert_eq!(wide.access(line), narrow.access(line)),
                    }
                    if i % 997 == 0 {
                        assert_eq!(
                            wide.state_digest(7),
                            narrow.state_digest(7),
                            "{policy:?} ways={ways} step {i}"
                        );
                    }
                }
                assert_eq!(wide.stats(), narrow.stats(), "{policy:?} ways={ways}");
                assert_eq!(wide.state_digest(7), narrow.state_digest(7));
                assert!(narrow.stamp_base > 0, "the narrow cache rebased");
            }
        }
    }
}
