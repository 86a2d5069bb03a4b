//! The conflict detection table (Sec. VI-B), stored as an **indexed
//! small-vec window pool**.
//!
//! *"An array is built for all grids, and each entry contains a set
//! recording the passing time."* — one per-cell **sorted tick window**
//! holding `(tick, robot)` reservations in ascending tick order. Space is
//! `O(HW + live reservations)` instead of the spatiotemporal graph's
//! `O(HW · T)`.
//!
//! # Pooled layout
//!
//! The previous layout (preserved as the test-only
//! `reference_cdt::ReferenceConflictDetectionTable`) kept one heap
//! `Vec<(Tick, RobotId)>` per cell: 24 bytes of `Vec` header per cell even
//! when empty — the dominant fixed cost of the Fig. 12 small-scale
//! inversion — and a pointer chase on every `can_move`. This module removes
//! both:
//!
//! * **Packed entries** — a reservation is one `u64`: the tick in the high
//!   48 bits ([`MAX_CDT_TICK`] guard), the robot id in the low 16
//!   ([`MAX_CDT_ROBOTS`] guard, the same fleet bound as the STG's `u16`
//!   layers). Sorting by the packed word sorts by tick, because a cell-tick
//!   holds at most one robot.
//! * **Inline windows** — each cell is a fixed 24-byte slot holding up to
//!   [`INLINE_WINDOW`] sorted entries *in place*: same fixed cost as the old
//!   `Vec` header, but the common probe touches a single cache line and
//!   never dereferences a heap pointer.
//! * **Spill pool** — a cell crossed by more robots spills its window into a
//!   shared arena (`WindowPool`): runs of power-of-two capacity with a
//!   one-word header (size class, 24-bit generation stamp, owning cell).
//!   Freed runs go on per-class free lists and are reused without touching
//!   the allocator; handles carry the generation stamp so a stale reference
//!   is caught in debug builds.
//! * **Amortized GC** — `release_before` (the paper's `update`) cuts each
//!   window's expired prefix in place, compacts spilled runs **back inline**
//!   once they fit, moves oversized runs to a smaller class, and — when most
//!   of the pool is free — compacts the whole arena in place and returns the
//!   memory, keeping the Fig. 12 numbers honest on sparse loads.
//!
//! # Hot-path design
//!
//! * `can_move` — the `t`/`t+1` occupants of `to` come from a *single*
//!   lower-bound probe, since consecutive ticks are adjacent in the sorted
//!   window; for inline windows the lower bound is a branch-free comparison
//!   sum over at most [`INLINE_WINDOW`] words.
//! * `occupant` — one lower bound over a contiguous `u64` run.
//! * `reserve_path` — steps arrive in ascending tick order, so insertion is
//!   usually an append; spills allocate from the free lists first.
//!
//! Invariants: each window is strictly sorted by tick (at most one robot per
//! cell-tick), `reservations` equals the sum of window lengths, and every
//! spilled cell's handle matches its run's generation stamp. Equivalence
//! with the reference layout is property-tested below
//! (`pooled_equals_reference_under_soup`).

use crate::footprint::MemoryFootprint;
use crate::path::Path;
use crate::reservation::{
    ParkingBoard, ReservationContent, ReservationProbe, ReservationSystem, TimedReservation,
};
use tprw_warehouse::{GridPos, RobotId, Tick};

/// Entries a cell stores inline before spilling into the pool.
pub const INLINE_WINDOW: usize = 2;

/// Robot-id bits of a packed entry.
const ROBOT_BITS: u32 = 16;
const ROBOT_MASK: u64 = (1 << ROBOT_BITS) - 1;

/// Largest robot index the packed-entry encoding can hold. Matches the
/// spirit of `MAX_STG_ROBOTS`: fleets beyond it must shard.
pub const MAX_CDT_ROBOTS: usize = ROBOT_MASK as usize;

/// Largest tick the packed-entry encoding can hold (48 bits ≈ 2.8 × 10¹⁴;
/// paper horizons are ~10⁵). Reserving beyond it panics rather than
/// silently truncating.
pub const MAX_CDT_TICK: Tick = (1 << (64 - ROBOT_BITS)) - 1;

#[inline]
fn pack(t: Tick, robot: RobotId) -> u64 {
    (t << ROBOT_BITS) | robot.index() as u64
}

#[inline]
fn tick_of(e: u64) -> Tick {
    e >> ROBOT_BITS
}

#[inline]
fn robot_of(e: u64) -> RobotId {
    RobotId::new((e & ROBOT_MASK) as usize)
}

/// One cell: `len` live entries, inline in `data` while `len <=`
/// [`INLINE_WINDOW`]; otherwise `data[0]` is a [`WindowPool`] handle
/// (`generation << 32 | run start`) and the entries live in the pool.
#[derive(Debug, Clone, Copy)]
struct CellSlot {
    len: u32,
    data: [u64; INLINE_WINDOW],
}

impl CellSlot {
    const EMPTY: Self = Self {
        len: 0,
        data: [0; INLINE_WINDOW],
    };
}

#[inline]
fn handle(start: u32, gen: u32) -> u64 {
    start as u64 | ((gen as u64) << 32)
}

#[inline]
fn handle_parts(h: u64) -> (u32, u32) {
    (h as u32, (h >> 32) as u32)
}

/// Smallest spill-run capacity (entries); classes double from here.
const MIN_RUN: usize = 4;
/// Generation stamps are 24 bits (wrapping).
const GEN_MASK: u64 = (1 << 24) - 1;
/// Header owner value marking a run as free.
const FREE_OWNER: u32 = u32::MAX;
/// Pools below this size never whole-arena compact (bounded residual).
const COMPACT_MIN_WORDS: usize = 256;

/// The shared spill arena: runs of `MIN_RUN << class` packed entries behind
/// a one-word header `(owner cell << 32 | generation << 8 | class)`, with
/// per-class free lists. Freed runs are reused allocation-free; when free
/// runs dominate, [`WindowPool::maybe_compact`] slides live runs to the
/// front, rewrites the owning cells' handles, and returns the tail to the
/// allocator.
#[derive(Debug, Clone, Default)]
struct WindowPool {
    words: Vec<u64>,
    /// Free-run start indices per size class.
    free: Vec<Vec<u32>>,
    /// Total words (headers included) sitting on free lists.
    free_words: usize,
}

impl WindowPool {
    /// Capacity in entries of a class-`c` run.
    #[inline]
    fn cap(class: usize) -> usize {
        MIN_RUN << class
    }

    /// Smallest class whose capacity is at least `need`.
    fn class_for(need: usize) -> usize {
        let mut c = 0;
        while Self::cap(c) < need {
            c += 1;
        }
        c
    }

    #[inline]
    fn header(&self, start: u32) -> u64 {
        self.words[start as usize]
    }

    #[inline]
    fn class_of(&self, start: u32) -> usize {
        (self.header(start) & 0xFF) as usize
    }

    #[inline]
    fn generation_of(&self, start: u32) -> u32 {
        ((self.header(start) >> 8) & GEN_MASK) as u32
    }

    /// The first `len` (live) entries of the run at `start`.
    #[inline]
    fn entries(&self, start: u32, len: usize) -> &[u64] {
        debug_assert!(len <= Self::cap(self.class_of(start)));
        let s = start as usize + 1;
        &self.words[s..s + len]
    }

    /// Mutable view of the first `len` entries of the run at `start`.
    #[inline]
    fn entries_mut(&mut self, start: u32, len: usize) -> &mut [u64] {
        debug_assert!(len <= Self::cap(self.class_of(start)));
        let s = start as usize + 1;
        &mut self.words[s..s + len]
    }

    /// Allocate a class-`class` run owned by cell `owner`; returns
    /// `(start, generation)`. Free-listed runs are reused without touching
    /// the allocator.
    fn alloc(&mut self, class: usize, owner: u32) -> (u32, u32) {
        if self.free.len() <= class {
            self.free.resize_with(class + 1, Vec::new);
        }
        if let Some(start) = self.free[class].pop() {
            self.free_words -= 1 + Self::cap(class);
            let gen = self.generation_of(start);
            self.words[start as usize] =
                class as u64 | ((gen as u64 & GEN_MASK) << 8) | ((owner as u64) << 32);
            return (start, gen);
        }
        let start = self.words.len();
        debug_assert!(start + 1 + Self::cap(class) <= u32::MAX as usize);
        self.words
            .push(class as u64 | ((owner as u64) << 32)) /* generation 0 */;
        self.words.resize(start + 1 + Self::cap(class), 0);
        (start as u32, 0)
    }

    /// Return the run at `start` to its class free list, bumping its
    /// generation stamp so stale handles are detectable.
    fn free(&mut self, start: u32) {
        let class = self.class_of(start);
        let gen = (self.generation_of(start) as u64 + 1) & GEN_MASK;
        self.words[start as usize] = class as u64 | (gen << 8) | ((FREE_OWNER as u64) << 32);
        self.free[class].push(start);
        self.free_words += 1 + Self::cap(class);
    }

    /// Copy `len` entries between runs (ranges may overlap after a
    /// same-arena reallocation).
    fn move_entries(&mut self, from: u32, to: u32, len: usize) {
        let f = from as usize + 1;
        let t = to as usize + 1;
        self.words.copy_within(f..f + len, t);
    }

    /// Whole-arena compaction, amortized behind a free-ratio trigger: when
    /// more than two thirds of a non-trivial pool is free, slide live runs
    /// to the front (rewriting the owning cells' handles), drop the free
    /// lists, and shrink the backing buffer — the only point at which the
    /// pool returns memory to the allocator.
    fn maybe_compact(&mut self, cells: &mut [CellSlot]) {
        if self.words.len() < COMPACT_MIN_WORDS || self.free_words * 3 <= self.words.len() * 2 {
            return;
        }
        let mut pos = 0;
        let mut write = 0;
        while pos < self.words.len() {
            let h = self.words[pos];
            let class = (h & 0xFF) as usize;
            let run = 1 + Self::cap(class);
            let owner = (h >> 32) as u32;
            if owner != FREE_OWNER {
                if write != pos {
                    self.words.copy_within(pos..pos + run, write);
                }
                let gen = ((h >> 8) & GEN_MASK) as u32;
                cells[owner as usize].data[0] = handle(write as u32, gen);
                write += run;
            }
            pos += run;
        }
        self.words.truncate(write);
        self.words.shrink_to(write);
        for list in &mut self.free {
            list.clear();
        }
        self.free_words = 0;
    }

    /// Approximate heap bytes held (capacity-based, like every flat
    /// structure in this crate).
    fn memory_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
            + self.free.capacity() * std::mem::size_of::<Vec<u32>>()
            + self
                .free
                .iter()
                .map(|f| f.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
    }
}

/// Per-cell sorted reservation windows over a pooled small-vec layout.
#[derive(Debug, Clone)]
pub struct ConflictDetectionTable {
    width: u16,
    cells: Vec<CellSlot>,
    /// One bit per cell, set by every insert: a superset of the non-empty
    /// windows, so the GC and release passes walk only these cells.
    occupied: Vec<u64>,
    pool: WindowPool,
    parked: ParkingBoard,
    reservations: usize,
}

impl ConflictDetectionTable {
    /// Create an empty table for a `width`×`height` grid.
    pub fn new(width: u16, height: u16) -> Self {
        let cells = width as usize * height as usize;
        Self {
            width,
            cells: vec![CellSlot::EMPTY; cells],
            occupied: vec![0; cells.div_ceil(64)],
            pool: WindowPool::default(),
            parked: ParkingBoard::new(width, height),
            reservations: 0,
        }
    }

    /// Insert a single timed reservation (used by tests and probes;
    /// planners insert whole paths via [`ReservationSystem::reserve_path`]).
    ///
    /// # Panics
    ///
    /// Panics if `robot` exceeds [`MAX_CDT_ROBOTS`] or `t` exceeds
    /// [`MAX_CDT_TICK`].
    pub fn insert(&mut self, robot: RobotId, pos: GridPos, t: Tick) {
        self.check_limits(robot, t);
        if self.insert_packed(pos.to_index(self.width), pack(t, robot)) {
            self.reservations += 1;
        }
    }

    /// The paper's `update` operation: drop all reservations strictly before
    /// `t`. Alias of [`ReservationSystem::release_before`].
    pub fn update(&mut self, t: Tick) {
        self.release_before(t);
    }

    #[inline]
    fn check_limits(&self, robot: RobotId, t: Tick) {
        assert!(
            robot.index() <= MAX_CDT_ROBOTS,
            "robot index {} exceeds the packed CDT encoding \
             (MAX_CDT_ROBOTS = {MAX_CDT_ROBOTS}); shard the fleet or widen the entries",
            robot.index()
        );
        assert!(
            t <= MAX_CDT_TICK,
            "tick {t} exceeds the packed CDT encoding (MAX_CDT_TICK = {MAX_CDT_TICK})"
        );
    }

    /// The (sorted, packed) window of cell `idx`.
    #[inline]
    fn window(&self, idx: usize) -> &[u64] {
        let s = &self.cells[idx];
        let n = s.len as usize;
        if n <= INLINE_WINDOW {
            &s.data[..n]
        } else {
            let (start, gen) = handle_parts(s.data[0]);
            debug_assert_eq!(self.pool.generation_of(start), gen, "stale window handle");
            self.pool.entries(start, n)
        }
    }

    /// First index of `w` whose tick is ≥ `t`. Inline windows use a
    /// branch-free comparison sum; spilled runs binary-search.
    #[inline]
    fn lower_bound(w: &[u64], t: Tick) -> usize {
        let key = t << ROBOT_BITS;
        if w.len() <= INLINE_WINDOW {
            w.iter().map(|&e| usize::from(e < key)).sum()
        } else {
            w.partition_point(|&e| e < key)
        }
    }

    /// The `t` and `t + 1` occupants of a window from a single lower-bound
    /// probe (consecutive ticks are adjacent in the sorted window).
    #[inline]
    fn probe_pair(w: &[u64], t: Tick) -> (Option<RobotId>, Option<RobotId>) {
        let i = Self::lower_bound(w, t);
        let now = (i < w.len() && tick_of(w[i]) == t).then(|| robot_of(w[i]));
        let j = i + usize::from(now.is_some());
        let next = (j < w.len() && tick_of(w[j]) == t + 1).then(|| robot_of(w[j]));
        (now, next)
    }

    /// The timed occupant of `pos` at `t` (ignoring parked robots).
    #[inline]
    fn timed_occupant(&self, pos: GridPos, t: Tick) -> Option<RobotId> {
        let w = self.window(pos.to_index(self.width));
        let i = Self::lower_bound(w, t);
        (i < w.len() && tick_of(w[i]) == t).then(|| robot_of(w[i]))
    }

    /// Insertion point for packed entry `e` in a sorted `window`: `Some(i)`
    /// to insert at `i`, `None` when the tick is already reserved. Reverse
    /// scan, because path steps arrive in ascending tick order — the common
    /// case is zero iterations (a straight append).
    #[inline]
    fn insertion_point(window: &[u64], e: u64) -> Option<usize> {
        let te = tick_of(e);
        let n = window.len();
        let mut i = n;
        while i > 0 && tick_of(window[i - 1]) >= te {
            i -= 1;
        }
        if i < n && tick_of(window[i]) == te {
            debug_assert_eq!(
                robot_of(window[i]),
                robot_of(e),
                "double reservation at tick {te}"
            );
            return None;
        }
        Some(i)
    }

    /// Insert packed entry `e` into cell `idx`, keeping the window sorted;
    /// returns whether a new entry was added (`false` = duplicate tick).
    fn insert_packed(&mut self, idx: usize, e: u64) -> bool {
        self.occupied[idx / 64] |= 1 << (idx % 64);
        let n = self.cells[idx].len as usize;
        if n < INLINE_WINDOW {
            let s = &mut self.cells[idx];
            let Some(i) = Self::insertion_point(&s.data[..n], e) else {
                return false;
            };
            let mut k = n;
            while k > i {
                s.data[k] = s.data[k - 1];
                k -= 1;
            }
            s.data[i] = e;
            s.len += 1;
            return true;
        }
        if n == INLINE_WINDOW {
            // Full inline window: spill to the smallest run class.
            let inline = self.cells[idx].data;
            let Some(i) = Self::insertion_point(&inline, e) else {
                return false;
            };
            let class = WindowPool::class_for(n + 1);
            let (start, gen) = self.pool.alloc(class, idx as u32);
            let run = self.pool.entries_mut(start, n + 1);
            run[..i].copy_from_slice(&inline[..i]);
            run[i] = e;
            run[i + 1..].copy_from_slice(&inline[i..]);
            let s = &mut self.cells[idx];
            s.data[0] = handle(start, gen);
            s.len = (n + 1) as u32;
            return true;
        }
        // Spilled window.
        let (start, gen) = handle_parts(self.cells[idx].data[0]);
        debug_assert_eq!(self.pool.generation_of(start), gen, "stale window handle");
        let cap = WindowPool::cap(self.pool.class_of(start));
        let Some(i) = Self::insertion_point(self.pool.entries(start, n), e) else {
            return false;
        };
        let start = if n == cap {
            // Grow into the next class: allocate first (the old run stays
            // valid), slide the entries over, then free the old run.
            let (new_start, new_gen) = self.pool.alloc(WindowPool::class_for(n + 1), idx as u32);
            self.pool.move_entries(start, new_start, n);
            self.pool.free(start);
            self.cells[idx].data[0] = handle(new_start, new_gen);
            new_start
        } else {
            start
        };
        let run = self.pool.entries_mut(start, n + 1);
        run.copy_within(i..n, i + 1);
        run[i] = e;
        self.cells[idx].len = (n + 1) as u32;
        true
    }

    #[inline]
    fn is_occupied(&self, idx: usize) -> bool {
        self.occupied[idx / 64] >> (idx % 64) & 1 == 1
    }

    /// Run `f` on every occupied cell in ascending index — the order a walk
    /// over all cells would reach the non-empty ones, so pool allocation,
    /// freeing and compaction happen exactly as they would there. `f`
    /// returns the cell's remaining window length; emptied cells leave the
    /// set.
    fn sweep_occupied(&mut self, mut f: impl FnMut(&mut Self, usize) -> usize) {
        for w in 0..self.occupied.len() {
            let mut bits = self.occupied[w];
            while bits != 0 {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                if f(self, w * 64 + bit as usize) == 0 {
                    self.occupied[w] &= !(1 << bit);
                }
            }
        }
    }

    /// Drop robot `rb`'s entries from cell `idx`; the remaining length.
    fn release_cell_robot(&mut self, idx: usize, rb: u64) -> usize {
        let n = self.cells[idx].len as usize;
        if n <= INLINE_WINDOW {
            let s = &mut self.cells[idx];
            let mut w = 0;
            for k in 0..n {
                let e = s.data[k];
                if (e & ROBOT_MASK) != rb {
                    s.data[w] = e;
                    w += 1;
                }
            }
            s.len = w as u32;
            self.reservations -= n - w;
            return w;
        }
        let (start, _) = handle_parts(self.cells[idx].data[0]);
        let rem = {
            let run = self.pool.entries_mut(start, n);
            let mut w = 0;
            for k in 0..n {
                let e = run[k];
                if (e & ROBOT_MASK) != rb {
                    run[w] = e;
                    w += 1;
                }
            }
            w
        };
        self.reservations -= n - rem;
        if rem <= INLINE_WINDOW {
            self.unspill(idx, start, 0, rem);
        } else {
            self.cells[idx].len = rem as u32;
        }
        rem
    }

    /// Drop cell `idx`'s entries before tick `t`; the remaining length.
    fn release_cell_before(&mut self, idx: usize, t: Tick) -> usize {
        let n = self.cells[idx].len as usize;
        if n <= INLINE_WINDOW {
            let s = &mut self.cells[idx];
            let cut = s.data[..n]
                .iter()
                .map(|&e| usize::from(tick_of(e) < t))
                .sum::<usize>();
            if cut > 0 {
                for k in cut..n {
                    s.data[k - cut] = s.data[k];
                }
                s.len = (n - cut) as u32;
                self.reservations -= cut;
            }
            return n - cut;
        }
        let (start, gen) = handle_parts(self.cells[idx].data[0]);
        debug_assert_eq!(self.pool.generation_of(start), gen, "stale window handle");
        let cut = self
            .pool
            .entries(start, n)
            .partition_point(|&e| tick_of(e) < t);
        let rem = n - cut;
        self.reservations -= cut;
        if rem <= INLINE_WINDOW {
            // The live tail fits inline again: the amortized compaction
            // that keeps long-lived tables from accreting runs.
            self.unspill(idx, start, cut, rem);
            return rem;
        }
        if cut > 0 {
            self.pool.entries_mut(start, n).copy_within(cut.., 0);
            self.cells[idx].len = rem as u32;
        }
        // Oversized runs move down a class once they sit far above their
        // live tail (mirrors the reference layout's `shrink_to` policy:
        // shrink when capacity exceeds twice the 2×len target).
        let cap = WindowPool::cap(self.pool.class_of(start));
        let target = (rem * 2).max(MIN_RUN);
        if cap > target * 2 {
            let (new_start, new_gen) = self.pool.alloc(WindowPool::class_for(target), idx as u32);
            self.pool.move_entries(start, new_start, rem);
            self.pool.free(start);
            self.cells[idx].data[0] = handle(new_start, new_gen);
        }
        rem
    }

    /// Move a spilled window of `len` entries back inline and free its run.
    fn unspill(&mut self, idx: usize, start: u32, keep_from: usize, len: usize) {
        debug_assert!(len <= INLINE_WINDOW);
        let mut tmp = [0u64; INLINE_WINDOW];
        tmp[..len].copy_from_slice(&self.pool.entries(start, keep_from + len)[keep_from..]);
        self.pool.free(start);
        let s = &mut self.cells[idx];
        s.data = tmp;
        s.len = len as u32;
    }

    #[cfg(test)]
    fn window_ticks(&self, pos: GridPos) -> Vec<Tick> {
        self.window(pos.to_index(self.width))
            .iter()
            .map(|&e| tick_of(e))
            .collect()
    }

    #[cfg(test)]
    fn is_spilled(&self, pos: GridPos) -> bool {
        self.cells[pos.to_index(self.width)].len as usize > INLINE_WINDOW
    }

    #[cfg(test)]
    fn pool_len_words(&self) -> usize {
        self.pool.words.len()
    }

    /// Whether the occupied set is exactly the non-empty windows.
    #[cfg(test)]
    fn occupied_is_exact(&self) -> bool {
        (0..self.cells.len()).all(|idx| (self.cells[idx].len > 0) == self.is_occupied(idx))
    }
}

impl ReservationProbe for ConflictDetectionTable {
    fn occupant(&self, pos: GridPos, t: Tick) -> Option<RobotId> {
        self.timed_occupant(pos, t)
            .or_else(|| self.parked.occupant(pos, t))
    }

    /// Specialization of the trait default: the `t`/`t+1` occupants of `to`
    /// come from one probe over the pooled window — a branch-free
    /// comparison sum inside the cell's own cache line for the common
    /// inline case, a single binary search on spilled runs. The swap-side
    /// probe of `from` is evaluated lazily: on an uncontended floor nobody
    /// sits on `to` at `t`, so the common `can_move` touches exactly one
    /// window and one parking word.
    fn can_move(&self, robot: RobotId, from: GridPos, to: GridPos, t: Tick) -> bool {
        let w = self.window(to.to_index(self.width));
        let (to_now_timed, to_next_timed) = Self::probe_pair(w, t);

        let to_next = to_next_timed.or_else(|| self.parked.occupant(to, t + 1));
        if to_next.is_some_and(|x| x != robot) {
            return false; // single-grid conflict
        }
        if from != to {
            // inter-grid (swap) conflict: someone sits on `to` now and will
            // be on `from` next tick. Only a non-empty `to` occupancy can
            // swap, so the `from` window is probed only then.
            let there_now = to_now_timed.or_else(|| self.parked.occupant(to, t));
            if let Some(x) = there_now {
                if x != robot && self.occupant(from, t + 1) == Some(x) {
                    return false;
                }
            }
        }
        true
    }

    fn last_reservation_excluding(&self, pos: GridPos, robot: RobotId) -> Option<Tick> {
        let rb = robot.index() as u64;
        self.window(pos.to_index(self.width))
            .iter()
            .rev()
            .find(|&&e| (e & ROBOT_MASK) != rb)
            .map(|&e| tick_of(e))
    }

    fn parked_at(&self, pos: GridPos) -> Option<(RobotId, Tick)> {
        self.parked.entry(pos)
    }
}

impl ReservationSystem for ConflictDetectionTable {
    fn reserve_path(&mut self, robot: RobotId, path: &Path, park_at_end: bool) {
        self.check_limits(robot, path.end());
        self.parked.unpark(robot);
        for (t, cell) in path.iter_timed() {
            if self.insert_packed(cell.to_index(self.width), pack(t, robot)) {
                self.reservations += 1;
            }
        }
        if park_at_end {
            self.parked.park(robot, path.last(), path.end() + 1);
        }
    }

    fn park(&mut self, robot: RobotId, pos: GridPos, from: Tick) {
        self.parked.park(robot, pos, from);
    }

    fn unpark(&mut self, robot: RobotId) {
        self.parked.unpark(robot);
    }

    fn release_robot(&mut self, robot: RobotId) {
        // Rare exception path (breakdown / blockade invalidation): one
        // retain pass over the occupied windows; spilled runs that fit
        // inline again are compacted back and their runs freed for reuse.
        let rb = robot.index() as u64;
        self.sweep_occupied(|cdt, idx| cdt.release_cell_robot(idx, rb));
    }

    fn release_before(&mut self, t: Tick) {
        debug_assert!(
            (0..self.cells.len()).all(|idx| self.cells[idx].len == 0 || self.is_occupied(idx)),
            "a non-empty window is missing from the occupied set"
        );
        self.sweep_occupied(|cdt, idx| cdt.release_cell_before(idx, t));
        self.pool.maybe_compact(&mut self.cells);
    }

    fn reservation_count(&self) -> usize {
        self.reservations
    }

    fn restore_timed(&mut self, robot: RobotId, pos: GridPos, t: Tick) {
        self.insert(robot, pos, t);
    }

    fn export_content(&self) -> ReservationContent {
        let width = self.width as usize;
        let mut timed = Vec::with_capacity(self.reservations);
        for idx in 0..self.cells.len() {
            let pos = GridPos::new((idx % width) as u16, (idx / width) as u16);
            for &e in self.window(idx) {
                timed.push(TimedReservation {
                    t: tick_of(e),
                    pos,
                    robot: robot_of(e),
                });
            }
        }
        // Canonical (t, cell index, robot) order: the per-cell windows are
        // tick-sorted but interleave across cells.
        timed.sort_by_key(|r| (r.t, r.pos.to_index(self.width), r.robot.index()));
        ReservationContent {
            timed,
            parked: self.parked.entries(),
        }
    }
}

impl MemoryFootprint for ConflictDetectionTable {
    fn memory_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<CellSlot>()
            + self.occupied.capacity() * std::mem::size_of::<u64>()
            + self.pool.memory_bytes()
            + self.parked.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_cdt::ReferenceConflictDetectionTable;
    use crate::stg::SpatioTemporalGraph;
    use proptest::prelude::*;

    fn p(x: u16, y: u16) -> GridPos {
        GridPos::new(x, y)
    }

    fn path(start: Tick, cells: &[(u16, u16)]) -> Path {
        Path {
            start,
            cells: cells.iter().map(|&(x, y)| p(x, y)).collect(),
        }
    }

    #[test]
    fn cell_slot_is_one_vec_header_wide() {
        // The pooled layout's fixed cost must not exceed the reference
        // layout's per-cell `Vec` header it replaces.
        assert_eq!(
            std::mem::size_of::<CellSlot>(),
            std::mem::size_of::<Vec<(Tick, RobotId)>>()
        );
    }

    #[test]
    fn reserve_and_query() {
        let mut c = ConflictDetectionTable::new(8, 8);
        let r = RobotId::new(1);
        c.reserve_path(r, &path(3, &[(0, 0), (1, 0), (2, 0)]), true);
        assert_eq!(c.occupant(p(0, 0), 3), Some(r));
        assert_eq!(c.occupant(p(1, 0), 4), Some(r));
        assert_eq!(c.occupant(p(1, 0), 3), None);
        assert_eq!(c.reservation_count(), 3);
        assert_eq!(c.occupant(p(2, 0), 99), Some(r), "parks after end");
    }

    #[test]
    fn update_deletes_passed_timestamps() {
        let mut c = ConflictDetectionTable::new(8, 8);
        c.reserve_path(
            RobotId::new(0),
            &path(0, &[(0, 0), (1, 0), (2, 0), (3, 0)]),
            true,
        );
        assert_eq!(c.reservation_count(), 4);
        c.update(2);
        assert_eq!(c.reservation_count(), 2);
        assert_eq!(c.occupant(p(0, 0), 0), None);
        assert_eq!(c.occupant(p(2, 0), 2), Some(RobotId::new(0)));
    }

    #[test]
    fn swap_conflict_rejected() {
        let mut c = ConflictDetectionTable::new(8, 8);
        c.reserve_path(RobotId::new(1), &path(0, &[(1, 0), (0, 0)]), true);
        assert!(!c.can_move(RobotId::new(2), p(0, 0), p(1, 0), 0));
        // Moving elsewhere is fine.
        assert!(c.can_move(RobotId::new(2), p(0, 0), p(0, 1), 0));
    }

    #[test]
    fn out_of_order_inserts_stay_sorted() {
        let mut c = ConflictDetectionTable::new(4, 4);
        c.insert(RobotId::new(1), p(2, 2), 9);
        c.insert(RobotId::new(2), p(2, 2), 3);
        c.insert(RobotId::new(3), p(2, 2), 6);
        assert_eq!(c.occupant(p(2, 2), 3), Some(RobotId::new(2)));
        assert_eq!(c.occupant(p(2, 2), 6), Some(RobotId::new(3)));
        assert_eq!(c.occupant(p(2, 2), 9), Some(RobotId::new(1)));
        assert_eq!(c.occupant(p(2, 2), 5), None);
        assert_eq!(c.reservation_count(), 3);
        // Windows stay strictly sorted for the lower-bound probes — this
        // one spilled (3 > INLINE_WINDOW).
        assert!(c.is_spilled(p(2, 2)));
        let ticks = c.window_ticks(p(2, 2));
        assert!(ticks.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn spill_and_unspill_roundtrip() {
        let mut c = ConflictDetectionTable::new(4, 4);
        for t in 0..10 {
            c.insert(RobotId::new(0), p(1, 1), t);
        }
        assert!(c.is_spilled(p(1, 1)));
        assert_eq!(c.window_ticks(p(1, 1)), (0..10).collect::<Vec<_>>());
        // GC down to two live entries: the window must fold back inline and
        // free its run.
        c.release_before(8);
        assert!(!c.is_spilled(p(1, 1)));
        assert_eq!(c.window_ticks(p(1, 1)), vec![8, 9]);
        assert_eq!(c.reservation_count(), 2);
        // The freed run is reused by the next spill without growing the
        // pool (free-list reuse, not allocator traffic).
        let words = c.pool_len_words();
        for t in 0..6 {
            c.insert(RobotId::new(0), p(2, 2), t);
        }
        assert!(c.is_spilled(p(2, 2)));
        assert_eq!(c.pool_len_words(), words, "spill must reuse the free run");
    }

    #[test]
    fn memory_much_smaller_than_stg_on_sparse_load() {
        // One short path on a big grid: the CDT should be far below the
        // dense-layered spatiotemporal graph (the Sec. VI-B claim).
        let (w, h) = (120u16, 100u16);
        let mut cdt = ConflictDetectionTable::new(w, h);
        let mut stg = SpatioTemporalGraph::new(w, h);
        let long: Vec<(u16, u16)> = (0..100).map(|x| (x, 0)).collect();
        cdt.reserve_path(RobotId::new(0), &path(0, &long), true);
        stg.reserve_path(RobotId::new(0), &path(0, &long), true);
        // The STG materializes 100 layers of 12k cells; CDT stores 100
        // inline entries + fixed per-cell slots.
        assert!(
            stg.memory_bytes() > 4 * cdt.memory_bytes(),
            "stg={} cdt={}",
            stg.memory_bytes(),
            cdt.memory_bytes()
        );
    }

    #[test]
    fn pooled_layout_beats_reference_on_touched_cells() {
        // Cells each holding a single live reservation: the reference
        // layout allocates a `Vec` buffer per touched cell, the pooled
        // layout keeps the entry inline — strictly less heap.
        let (w, h) = (64u16, 64u16);
        let mut pooled = ConflictDetectionTable::new(w, h);
        let mut reference = ReferenceConflictDetectionTable::new(w, h);
        for y in 0..h {
            for x in 0..w {
                pooled.insert(RobotId::new(0), p(x, y), (y as Tick) * 64 + x as Tick);
                reference.insert(RobotId::new(0), p(x, y), (y as Tick) * 64 + x as Tick);
            }
        }
        assert!(
            pooled.memory_bytes() < reference.memory_bytes(),
            "pooled={} reference={}",
            pooled.memory_bytes(),
            reference.memory_bytes()
        );
    }

    #[test]
    fn insert_single_reservation() {
        let mut c = ConflictDetectionTable::new(4, 4);
        c.insert(RobotId::new(5), p(2, 2), 7);
        assert_eq!(c.occupant(p(2, 2), 7), Some(RobotId::new(5)));
        assert_eq!(c.reservation_count(), 1);
        // Idempotent re-insert, inline and spilled.
        c.insert(RobotId::new(5), p(2, 2), 7);
        assert_eq!(c.reservation_count(), 1);
        for t in 0..5 {
            c.insert(RobotId::new(5), p(3, 3), t);
        }
        c.insert(RobotId::new(5), p(3, 3), 2);
        assert_eq!(c.reservation_count(), 6);
    }

    #[test]
    fn release_robot_frees_only_its_cells() {
        let mut c = ConflictDetectionTable::new(8, 8);
        c.reserve_path(RobotId::new(1), &path(0, &[(0, 0), (1, 0), (2, 0)]), true);
        c.reserve_path(RobotId::new(2), &path(2, &[(1, 0), (1, 1)]), true);
        assert_eq!(c.reservation_count(), 5);
        c.release_robot(RobotId::new(1));
        assert_eq!(c.reservation_count(), 2, "robot 2's steps survive");
        assert_eq!(c.occupant(p(1, 0), 1), None);
        assert_eq!(c.occupant(p(1, 0), 2), Some(RobotId::new(2)));
        assert_eq!(c.parked_at(p(2, 0)), Some((RobotId::new(1), 3)));
        // Windows stay strictly sorted after the retain pass.
        let ticks = c.window_ticks(p(1, 0));
        assert!(ticks.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn release_robot_unspills_shrunk_windows() {
        let mut c = ConflictDetectionTable::new(4, 4);
        for t in 0..8 {
            c.insert(RobotId::new(t as usize % 2), p(1, 1), t);
        }
        assert!(c.is_spilled(p(1, 1)));
        c.release_robot(RobotId::new(0));
        assert_eq!(c.reservation_count(), 4);
        assert!(c.is_spilled(p(1, 1)), "4 entries still spill");
        c.release_robot(RobotId::new(1));
        assert_eq!(c.reservation_count(), 0);
        assert!(!c.is_spilled(p(1, 1)), "emptied window folds back inline");
    }

    #[test]
    fn gc_compacts_pool_when_mostly_free() {
        // Spill enough cells that the pool crosses COMPACT_MIN_WORDS, then
        // GC everything: the arena must compact in place and return the
        // memory (capacity-based accounting must drop).
        let mut c = ConflictDetectionTable::new(16, 16);
        for i in 0..64u16 {
            for t in 0..8 {
                c.insert(RobotId::new(0), p(i % 16, i / 16), t);
            }
        }
        let bytes_full = c.memory_bytes();
        assert!(c.pool_len_words() >= COMPACT_MIN_WORDS);
        c.release_before(100);
        assert_eq!(c.reservation_count(), 0);
        assert!(
            c.memory_bytes() < bytes_full,
            "emptied pool must compact ({} vs {bytes_full})",
            c.memory_bytes()
        );
        assert_eq!(c.pool_len_words(), 0, "no live runs remain");
    }

    #[test]
    fn partial_gc_keeps_spilled_capacity() {
        // Mirrors the reference layout's policy: a window near its high
        // water keeps its run (steady-state reuse); only far-oversized runs
        // move down a class.
        let mut c = ConflictDetectionTable::new(4, 4);
        for t in 0..64 {
            c.insert(RobotId::new(0), p(1, 1), t);
        }
        let words_full = c.pool_len_words();
        c.release_before(8);
        assert_eq!(c.reservation_count(), 56);
        assert_eq!(
            c.pool_len_words(),
            words_full,
            "near-high-water runs keep their class"
        );
        // Cutting to 8 live entries leaves a 64-capacity run 4× oversized:
        // it must move to a smaller class (freeing the big run for reuse).
        c.release_before(56);
        assert_eq!(c.reservation_count(), 8);
        assert!(c.is_spilled(p(1, 1)));
        let ticks = c.window_ticks(p(1, 1));
        assert_eq!(ticks, (56..64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "exceeds the packed CDT encoding")]
    fn robot_beyond_guard_panics() {
        let mut c = ConflictDetectionTable::new(4, 4);
        c.insert(RobotId::new(MAX_CDT_ROBOTS + 1), p(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the packed CDT encoding")]
    fn tick_beyond_guard_panics() {
        let mut c = ConflictDetectionTable::new(4, 4);
        c.insert(RobotId::new(0), p(0, 0), MAX_CDT_TICK + 1);
    }

    #[test]
    fn guard_boundaries_roundtrip() {
        let mut c = ConflictDetectionTable::new(4, 4);
        c.insert(RobotId::new(MAX_CDT_ROBOTS), p(0, 0), MAX_CDT_TICK);
        assert_eq!(
            c.occupant(p(0, 0), MAX_CDT_TICK),
            Some(RobotId::new(MAX_CDT_ROBOTS))
        );
        assert_eq!(
            c.last_reservation_excluding(p(0, 0), RobotId::new(0)),
            Some(MAX_CDT_TICK)
        );
    }

    /// Drive the same operation soup into a pooled and a reference table of
    /// `w`×`h` cells. A side map of live timed reservations skips ops that
    /// would double-reserve a cell-tick for two robots (a planner invariant
    /// both layouts `debug_assert`), so every generated soup is valid for
    /// both.
    fn apply_soup(
        ops: &[(u8, usize, u16, u16, u64)],
        (w, h): (u16, u16),
    ) -> (ConflictDetectionTable, ReferenceConflictDetectionTable) {
        let mut pooled = ConflictDetectionTable::new(w, h);
        let mut reference = ReferenceConflictDetectionTable::new(w, h);
        let mut live: std::collections::HashMap<(GridPos, Tick), RobotId> =
            std::collections::HashMap::new();
        for &(kind, robot, x, y, t) in ops {
            let robot = RobotId::new(robot);
            let pos = p(x % w, y % h);
            match kind % 5 {
                0 => {
                    if *live.entry((pos, t)).or_insert(robot) == robot {
                        pooled.insert(robot, pos, t);
                        reference.insert(robot, pos, t);
                    }
                }
                1 => {
                    // Short eastward path, skipped wholesale if any step
                    // would collide with another robot's reservation.
                    let cells: Vec<GridPos> = (0..4u16).map(|d| p((x + d) % w, y % h)).collect();
                    let path = Path { start: t, cells };
                    let clash = path
                        .iter_timed()
                        .any(|(pt, pc)| live.get(&(pc, pt)).is_some_and(|&r| r != robot));
                    if !clash {
                        for (pt, pc) in path.iter_timed() {
                            live.insert((pc, pt), robot);
                        }
                        pooled.reserve_path(robot, &path, false);
                        reference.reserve_path(robot, &path, false);
                    }
                }
                2 => {
                    live.retain(|&(_, lt), _| lt >= t);
                    pooled.release_before(t);
                    reference.release_before(t);
                }
                3 => {
                    live.retain(|_, &mut r| r != robot);
                    pooled.release_robot(robot);
                    reference.release_robot(robot);
                }
                _ => {
                    if pooled.parked_at(pos).is_none() && reference.parked_at(pos).is_none() {
                        pooled.park(robot, pos, t);
                        reference.park(robot, pos, t);
                    } else {
                        pooled.unpark(robot);
                        reference.unpark(robot);
                    }
                }
            }
        }
        (pooled, reference)
    }

    proptest! {
        /// CDT and STG must agree on every occupancy query for any set of
        /// reserved paths — they are interchangeable reservation systems.
        #[test]
        fn cdt_equals_stg(
            starts in proptest::collection::vec((0u64..20, 0u16..10, 0u16..10), 1..6),
        ) {
            let mut cdt = ConflictDetectionTable::new(10, 10);
            let mut stg = SpatioTemporalGraph::new(10, 10);
            for (i, &(start, x, _y)) in starts.iter().enumerate() {
                // Straight eastward path on a per-robot row so no two robots
                // ever reserve the same cell (reservations must be disjoint).
                let row = i as u16;
                let cells: Vec<GridPos> =
                    (0..5u16).map(|d| p((x + d).min(9), row)).collect();
                let path = Path { start, cells };
                let robot = RobotId::new(i);
                cdt.reserve_path(robot, &path, true);
                stg.reserve_path(robot, &path, true);
            }
            for t in 0..40u64 {
                for x in 0..10u16 {
                    for y in 0..10u16 {
                        prop_assert_eq!(
                            cdt.occupant(p(x, y), t),
                            stg.occupant(p(x, y), t),
                            "disagree at ({}, {})@{}", x, y, t
                        );
                    }
                }
            }
        }

        /// The specialized `can_move` must match the trait-default
        /// three-probe logic exactly (STG still uses the default).
        #[test]
        fn specialized_can_move_matches_default(
            starts in proptest::collection::vec((0u64..10, 0u16..8, 0u16..8), 1..6),
            qx in 0u16..8, qy in 0u16..7, qt in 0u64..20,
        ) {
            let mut cdt = ConflictDetectionTable::new(8, 8);
            let mut stg = SpatioTemporalGraph::new(8, 8);
            for (i, &(start, x, _)) in starts.iter().enumerate() {
                let row = i as u16;
                let cells: Vec<GridPos> =
                    (0..4u16).map(|d| p((x + d).min(7), row)).collect();
                let path = Path { start, cells };
                cdt.reserve_path(RobotId::new(i), &path, true);
                stg.reserve_path(RobotId::new(i), &path, true);
            }
            let probe = RobotId::new(99);
            let from = p(qx, qy);
            for to in [p(qx, qy), p(qx, qy + 1)] {
                prop_assert_eq!(
                    cdt.can_move(probe, from, to, qt),
                    stg.can_move(probe, from, to, qt),
                    "disagree for {} -> {} @ {}", from, to, qt
                );
            }
        }

        /// Checkpoint restore: exporting a table's logical content and
        /// importing it into a fresh table — of the same or the other
        /// backend — preserves every occupancy query and re-exports
        /// identical canonical content.
        #[test]
        fn exported_content_roundtrips(
            ops in proptest::collection::vec(
                (0u8..5, 0usize..8, 0u16..8, 0u16..8, 0u64..40), 1..40),
        ) {
            use crate::reservation::ReservationContent;
            let (pooled, _) = apply_soup(&ops, (8, 8));
            let content: ReservationContent = pooled.export_content();
            let mut restored = ConflictDetectionTable::new(8, 8);
            restored.import_content(&content);
            prop_assert_eq!(restored.reservation_count(), pooled.reservation_count());
            prop_assert_eq!(&restored.export_content(), &content);
            let mut stg = SpatioTemporalGraph::new(8, 8);
            stg.import_content(&content);
            prop_assert_eq!(&stg.export_content(), &content);
            for x in 0..8u16 {
                for y in 0..8u16 {
                    for t in 0..44u64 {
                        let want = pooled.occupant(p(x, y), t);
                        prop_assert_eq!(restored.occupant(p(x, y), t), want);
                        prop_assert_eq!(stg.occupant(p(x, y), t), want);
                    }
                }
            }
        }

        /// The pooled table must answer every occupancy, `can_move`,
        /// `last_reservation_excluding` and count query exactly like the
        /// reference layout after an arbitrary soup of inserts, path
        /// reservations, GC passes, robot releases and (un)parking — the
        /// acceptance bar of the pool rewrite.
        #[test]
        fn pooled_equals_reference_under_soup(
            ops in proptest::collection::vec(
                (0u8..5, 0usize..8, 0u16..8, 0u16..8, 0u64..40), 1..40),
            qt in 0u64..48,
        ) {
            let (pooled, reference) = apply_soup(&ops, (8, 8));
            prop_assert_eq!(pooled.reservation_count(), reference.reservation_count());
            let probe = RobotId::new(99);
            for x in 0..8u16 {
                for y in 0..8u16 {
                    let pos = p(x, y);
                    for t in qt..qt + 4 {
                        prop_assert_eq!(
                            pooled.occupant(pos, t),
                            reference.occupant(pos, t),
                            "occupant disagrees at {}@{}", pos, t
                        );
                        if y + 1 < 8 {
                            let to = p(x, y + 1);
                            prop_assert_eq!(
                                pooled.can_move(probe, pos, to, t),
                                reference.can_move(probe, pos, to, t),
                                "can_move disagrees for {}->{}@{}", pos, to, t
                            );
                        }
                        prop_assert_eq!(
                            pooled.can_move(probe, pos, pos, t),
                            reference.can_move(probe, pos, pos, t),
                            "wait can_move disagrees at {}@{}", pos, t
                        );
                    }
                    for r in 0..4 {
                        prop_assert_eq!(
                            pooled.last_reservation_excluding(pos, RobotId::new(r)),
                            reference.last_reservation_excluding(pos, RobotId::new(r)),
                            "last_reservation_excluding disagrees at {}", pos
                        );
                    }
                }
            }
        }

        /// GC on a mostly empty 64×64 table walks only the occupied cells
        /// and must leave exactly what the reference layout's walk over
        /// every cell leaves, with the occupied set shrunk to the cells
        /// still holding a window.
        #[test]
        fn sparse_gc_equals_reference(
            ops in proptest::collection::vec(
                (0u8..5, 0usize..8, 0u16..64, 0u16..64, 0u64..40), 1..40),
            gc in 0u64..48,
        ) {
            let (mut pooled, mut reference) = apply_soup(&ops, (64, 64));
            pooled.release_before(gc);
            reference.release_before(gc);
            prop_assert_eq!(pooled.export_content(), reference.export_content());
            prop_assert_eq!(pooled.reservation_count(), reference.reservation_count());
            prop_assert!(pooled.occupied_is_exact());
        }
    }
}
