//! The conflict detection table (Sec. VI-B).
//!
//! *"An array is built for all grids, and each entry contains a set
//! recording the passing time."* Each cell holds one **sorted tick window**
//! of `(tick, robot)` reservations, so space is `O(HW + live reservations)`
//! instead of the spatiotemporal graph's `O(HW · T)`.
//!
//! * **Packed entries.** A reservation is one `u64`: the tick in the high 48
//!   bits ([`MAX_CDT_TICK`]) and the robot id in the low 16 (ids stay below
//!   [`MAX_FLEET`]). A cell-tick holds at most one robot, so sorting the
//!   words sorts by tick.
//! * **Inline windows.** Each cell is a 16-byte slot of [`INLINE_WINDOW`]
//!   words that are the window itself, kept sorted: an unused word holds
//!   `EMPTY` (`u64::MAX`), which sorts after every entry. No entry's tick
//!   is a sentinel's tick, so the window's length is read off the words.
//!   The common probe touches one cache line and no heap pointer.
//! * **Spill arena.** A longer window moves into a block of one arena, a
//!   `Vec<u64>` with no per-block header. The spilled cell's two words
//!   hold the block's offset and the window's length, then `SPILLED` plus
//!   the block's size class. A block of class `k` is `3·2^k` words. A free
//!   block links to the next free block of its class through its own first
//!   word, so a steady churn does not allocate. A window that outgrows its
//!   block moves to a block of the next class, and the arena grows by a
//!   quarter of its length when no free block fits, never by doubling.
//!   Only the owning cell names a live block, and it frees the block when
//!   the window shrinks back inline.
//! * **Pruning.** [`ConflictDetectionTable::housekeeping`] records each
//!   finished tick. A window that would spill or outgrow its block first
//!   drops its entries before that tick: the ones the next collection
//!   drops, which no probe at a live tick reads.
//! * **Occupied set.** One bit per cell, set on insert, so `release_before`
//!   (the paper's `update`) and `release_robot` visit only occupied cells.
//!
//! `can_move` reads the `t` and `t + 1` occupants of `to` from one lower
//! bound, because consecutive ticks sit side by side in the window. The
//! test-only `reference_cdt::ReferenceConflictDetectionTable`, one `Vec`
//! per cell, must answer every query the same way
//! (`pooled_equals_reference_under_soup`).

use crate::footprint::MemoryFootprint;
use crate::path::Path;
use crate::reservation::{ParkingBoard, ReservationProbe, ReservationSystem, MAX_PARK_TICK};
use tprw_warehouse::{GridPos, RobotId, Tick, MAX_FLEET};

/// Entries a cell stores inline before its window spills.
pub const INLINE_WINDOW: usize = 2;

/// Ticks between collections of every occupied window.
const GC_PERIOD: Tick = 64;

/// Robot-id bits of a packed entry.
const ROBOT_BITS: u32 = 16;
const ROBOT_MASK: u64 = (1 << ROBOT_BITS) - 1;
const _: () = assert!(MAX_FLEET <= ROBOT_MASK as usize + 1);

/// Largest tick the packed-entry encoding can hold (48 bits ≈ 2.8 × 10¹⁴;
/// paper horizons are ~10⁵). The top 48-bit tick is left to the slot
/// sentinels `EMPTY` and `SPILLED`. Reserving beyond it panics rather than
/// silently truncating.
pub const MAX_CDT_TICK: Tick = (1 << (64 - ROBOT_BITS)) - 2;

/// The longest window a cell holds: a spilled cell keeps the length in 32
/// bits. A window holds one entry per tick, and a resume refuses every leg
/// that ends or could park past [`MAX_PARK_TICK`] (`u32::MAX`), so every
/// window a resumed run holds fits. The block offset is 32 bits of 3-word
/// units: the arena holds up to 3·(2³² − 1) words (96 GiB), so it can hold
/// a block for any window this long.
const MAX_WINDOW: usize = u32::MAX as usize;
const _: () = assert!(MAX_PARK_TICK as usize <= MAX_WINDOW);

/// An unused inline word. It sorts after every entry.
const EMPTY: u64 = u64::MAX;

/// The second word of a spilled cell, plus the block's size class.
const SPILLED: u64 = EMPTY << ROBOT_BITS;
const _: () = assert!(tick_of(SPILLED) > MAX_CDT_TICK);

/// Words in one arena unit, the class-0 block: the window that spills.
const UNIT: usize = INLINE_WINDOW + 1;

/// Block size classes. The largest block holds [`MAX_WINDOW`] entries.
const CLASSES: usize = 32;
const _: () = assert!(UNIT << (CLASSES - 1) >= MAX_WINDOW);

/// The end of a free list. Block offsets, in units, stay below it.
const NO_BLOCK: u32 = u32::MAX;

#[inline]
fn pack(t: Tick, robot: RobotId) -> u64 {
    (t << ROBOT_BITS) | robot.index() as u64
}

#[inline]
const fn tick_of(e: u64) -> Tick {
    e >> ROBOT_BITS
}

#[inline]
fn robot_of(e: u64) -> RobotId {
    RobotId::new((e & ROBOT_MASK) as usize)
}

/// Words in a block of size class `class`.
#[inline]
const fn block_words(class: usize) -> usize {
    UNIT << class
}

/// One cell: up to [`INLINE_WINDOW`] sorted entries followed by `EMPTY`
/// words, or `[offset | len << 32, SPILLED | class]` for a longer window
/// held in an arena block.
#[derive(Debug, Clone, Copy)]
struct CellSlot {
    data: [u64; INLINE_WINDOW],
}

impl CellSlot {
    const EMPTY: Self = Self {
        data: [EMPTY; INLINE_WINDOW],
    };

    /// A window of `len` entries in the class-`class` block at word `off`.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`MAX_WINDOW`] rather than corrupting the
    /// offset.
    #[inline]
    fn spilled(off: usize, len: usize, class: usize) -> Self {
        assert!(
            len <= MAX_WINDOW,
            "a CDT window exceeds {MAX_WINDOW} entries"
        );
        debug_assert!(off.is_multiple_of(UNIT) && class < CLASSES);
        Self {
            data: [
                (off / UNIT) as u64 | (len as u64) << 32,
                SPILLED | class as u64,
            ],
        }
    }

    #[inline]
    fn is_spilled(&self) -> bool {
        (SPILLED..EMPTY).contains(&self.data[1])
    }

    /// The block's word offset, the window's length and the block's class
    /// (the slot must be spilled).
    #[inline]
    fn block(&self) -> (usize, usize, usize) {
        let [w, c] = self.data;
        (
            (w as u32) as usize * UNIT,
            (w >> 32) as usize,
            (c - SPILLED) as usize,
        )
    }

    /// Entries held inline (the slot must not be spilled).
    #[inline]
    fn inline_len(&self) -> usize {
        usize::from(self.data[0] != EMPTY) + usize::from(self.data[1] != EMPTY)
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.data[0] == EMPTY
    }
}

/// Per-cell sorted reservation windows: inline slots, spilling into one
/// arena.
#[derive(Debug, Clone)]
pub struct ConflictDetectionTable {
    width: u16,
    cells: Vec<CellSlot>,
    /// One bit per cell, set by every insert: a superset of the non-empty
    /// windows, so the GC and release passes walk only these cells.
    occupied: Vec<u64>,
    /// The blocks of the windows longer than [`INLINE_WINDOW`], each owned
    /// by one cell, and the free blocks.
    arena: Vec<u64>,
    /// The first free block of each class, in units, or `NO_BLOCK`.
    free: [u32; CLASSES],
    /// The last tick [`Self::housekeeping`] finished.
    finished: Tick,
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
            arena: Vec::new(),
            free: [NO_BLOCK; CLASSES],
            finished: 0,
            parked: ParkingBoard::new(width, height),
            reservations: 0,
        }
    }

    /// Insert a single timed reservation (used by tests; planners insert
    /// whole paths via [`ReservationSystem::reserve_path`]).
    ///
    /// # Panics
    ///
    /// Panics if `robot` is not below [`MAX_FLEET`] or `t` exceeds
    /// [`MAX_CDT_TICK`].
    pub fn insert(&mut self, robot: RobotId, pos: GridPos, t: Tick) {
        self.check_limits(robot, t);
        if self.insert_packed(pos.to_index(self.width), pack(t, robot)) {
            self.reservations += 1;
        }
    }

    /// End-of-tick upkeep once tick `t` has finished: records `t`, so a
    /// window that must grow first drops its entries before `t`, and at
    /// every multiple of `GC_PERIOD` (64) collects every occupied window
    /// ([`ReservationSystem::release_before`]). The cadence depends on `t`
    /// alone, so a resumed run collects on the uncut run's ticks.
    pub fn housekeeping(&mut self, t: Tick) {
        self.finished = t;
        if t.is_multiple_of(GC_PERIOD) {
            self.release_before(t);
        }
    }

    #[inline]
    fn check_limits(&self, robot: RobotId, t: Tick) {
        assert!(
            robot.index() < MAX_FLEET,
            "robot index {} exceeds the packed CDT encoding \
             (MAX_FLEET = {MAX_FLEET}); shard the fleet or widen the entries",
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
        if s.is_spilled() {
            let (off, len, _) = s.block();
            &self.arena[off..off + len]
        } else {
            &s.data[..s.inline_len()]
        }
    }

    /// First index of `w` whose tick is ≥ `t`. Inline windows use a
    /// branch-free comparison sum; spilled windows binary-search.
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
        let Some(mut i) = Self::insertion_point(self.window(idx), e) else {
            return false;
        };
        if self.is_full(idx) {
            // The window would spill or outgrow its block: first drop its
            // entries before the finished tick, a sorted prefix that the
            // next collection drops anyway.
            let finished = self.finished;
            let passed = Self::lower_bound(self.window(idx), finished);
            if passed > 0 {
                self.retain_cell(idx, |x| tick_of(x) >= finished);
                i = i.saturating_sub(passed);
            }
        }
        let s = self.cells[idx];
        if !s.is_spilled() {
            let n = s.inline_len();
            if n < INLINE_WINDOW {
                let d = &mut self.cells[idx].data;
                d.copy_within(i..n, i + 1);
                d[i] = e;
                return true;
            }
            let off = self.alloc(0);
            self.arena[off..off + n].copy_from_slice(&s.data);
            self.cells[idx] = CellSlot::spilled(off, n, 0);
        }
        let (mut off, len, mut class) = self.cells[idx].block();
        if len == block_words(class) {
            let grown = self.alloc(class + 1);
            self.arena.copy_within(off..off + len, grown);
            self.free_block(off, class);
            (off, class) = (grown, class + 1);
        }
        self.arena.copy_within(off + i..off + len, off + i + 1);
        self.arena[off + i] = e;
        self.cells[idx] = CellSlot::spilled(off, len + 1, class);
        true
    }

    /// Whether the next entry of cell `idx` spills its inline window or
    /// outgrows its block.
    #[inline]
    fn is_full(&self, idx: usize) -> bool {
        let s = &self.cells[idx];
        if s.is_spilled() {
            let (_, len, class) = s.block();
            len == block_words(class)
        } else {
            s.inline_len() == INLINE_WINDOW
        }
    }

    /// The word offset of a free block of `class`: the head of its free
    /// list, else a new block at the arena's end. The arena grows by a
    /// quarter of its length, or by the block if that is more.
    fn alloc(&mut self, class: usize) -> usize {
        let head = self.free[class];
        if head != NO_BLOCK {
            let off = head as usize * UNIT;
            self.free[class] = self.arena[off] as u32;
            return off;
        }
        let (off, words) = (self.arena.len(), block_words(class));
        assert!(
            (off + words) / UNIT < NO_BLOCK as usize,
            "the CDT's spill arena is full at {off} words"
        );
        if self.arena.capacity() - off < words {
            self.arena.reserve_exact(words.max(off / 4));
        }
        self.arena.resize(off + words, EMPTY);
        off
    }

    /// Put the class-`class` block at word `off` on its free list, linked
    /// through its first word.
    fn free_block(&mut self, off: usize, class: usize) {
        self.arena[off] = u64::from(self.free[class]);
        self.free[class] = (off / UNIT) as u32;
    }

    #[inline]
    fn is_occupied(&self, idx: usize) -> bool {
        self.occupied[idx / 64] >> (idx % 64) & 1 == 1
    }

    /// Run `f` on every occupied cell in ascending index. `f` returns the
    /// cell's remaining window length; emptied cells leave the set.
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

    /// Keep the entries of cell `idx` for which `keep` holds; a spilled
    /// window that fits inline again moves back and frees its block. Freed
    /// inline words go back to `EMPTY`. Returns the remaining length.
    fn retain_cell(&mut self, idx: usize, keep: impl Fn(u64) -> bool) -> usize {
        let s = self.cells[idx];
        let (n, rem) = if s.is_spilled() {
            let (off, n, class) = s.block();
            let w = &mut self.arena[off..off + n];
            let mut rem = 0;
            for j in 0..n {
                if keep(w[j]) {
                    w[rem] = w[j];
                    rem += 1;
                }
            }
            if rem <= INLINE_WINDOW {
                let mut data = [EMPTY; INLINE_WINDOW];
                data[..rem].copy_from_slice(&w[..rem]);
                self.cells[idx].data = data;
                self.free_block(off, class);
            } else {
                self.cells[idx] = CellSlot::spilled(off, rem, class);
            }
            (n, rem)
        } else {
            // `keep` holds for `EMPTY`, whose tick and robot no entry
            // has, so the padding stays and only entries drop out.
            debug_assert!(keep(EMPTY));
            let [a, b] = s.data;
            let (ka, kb) = (keep(a), keep(b));
            let b = if kb { b } else { EMPTY };
            self.cells[idx].data = if ka { [a, b] } else { [b, EMPTY] };
            let rem = self.cells[idx].inline_len();
            (rem + usize::from(!ka) + usize::from(!kb), rem)
        };
        self.reservations -= n - rem;
        rem
    }
}

impl ReservationProbe for ConflictDetectionTable {
    fn occupant(&self, pos: GridPos, t: Tick) -> Option<RobotId> {
        self.timed_occupant(pos, t)
            .or_else(|| self.parked.occupant(pos, t))
    }

    /// Specialization of the trait default: the `t`/`t+1` occupants of `to`
    /// come from one probe over its window — a branch-free comparison sum
    /// inside the cell's own cache line for the common inline case, a
    /// single binary search on spills. The swap-side probe of `from` is
    /// evaluated lazily: on an uncontended floor nobody sits on `to` at `t`,
    /// so the common `can_move` touches exactly one window and one parking
    /// word.
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
        // retain pass over the occupied windows.
        let rb = robot.index() as u64;
        self.sweep_occupied(|cdt, idx| cdt.retain_cell(idx, |e| (e & ROBOT_MASK) != rb));
    }

    fn release_before(&mut self, t: Tick) {
        debug_assert!(
            (0..self.cells.len()).all(|idx| self.cells[idx].is_empty() || self.is_occupied(idx)),
            "a non-empty window is missing from the occupied set"
        );
        self.sweep_occupied(|cdt, idx| cdt.retain_cell(idx, |e| tick_of(e) >= t));
    }

    fn reservation_count(&self) -> usize {
        self.reservations
    }
}

impl MemoryFootprint for ConflictDetectionTable {
    fn memory_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<CellSlot>()
            + self.occupied.capacity() * std::mem::size_of::<u64>()
            + self.arena.capacity() * std::mem::size_of::<u64>()
            + self.parked.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_cdt::{
        self, default_can_move, same_answers, ReferenceConflictDetectionTable,
    };
    use crate::stg::SpatioTemporalGraph;
    use proptest::prelude::*;

    /// Test-only views of a table's internals.
    impl ConflictDetectionTable {
        fn window_ticks(&self, pos: GridPos) -> Vec<Tick> {
            self.window(pos.to_index(self.width))
                .iter()
                .map(|&e| tick_of(e))
                .collect()
        }

        fn is_spilled(&self, pos: GridPos) -> bool {
            self.cells[pos.to_index(self.width)].is_spilled()
        }

        /// Whether the occupied set is exactly the non-empty windows.
        fn occupied_is_exact(&self) -> bool {
            (0..self.cells.len()).all(|idx| self.cells[idx].is_empty() != self.is_occupied(idx))
        }

        /// Whether the arena is partitioned: every arena word lies in exactly
        /// one block, either a spilled cell's or one on its class's free list.
        /// Also, every inline slot is a sorted window padded with `EMPTY`, and
        /// every spilled window is sorted, longer than [`INLINE_WINDOW`] and no
        /// longer than its block.
        fn arena_is_partitioned(&self) -> bool {
            let mut owners = vec![0u8; self.arena.len()];
            let mut claim = |off: usize, class: usize| {
                let words = owners.get_mut(off..off + block_words(class));
                words.is_some_and(|ws| {
                    ws.iter_mut().all(|o| {
                        *o += 1;
                        *o == 1
                    })
                })
            };
            for s in &self.cells {
                if !s.is_spilled() {
                    if s.data[0] >= s.data[1] && s.data[1] != EMPTY {
                        return false;
                    }
                    continue;
                }
                let (off, len, class) = s.block();
                let fits = INLINE_WINDOW < len && len <= block_words(class);
                if !fits
                    || !claim(off, class)
                    || !self.arena[off..off + len].is_sorted_by(|a, b| a < b)
                {
                    return false;
                }
            }
            for (class, &head) in self.free.iter().enumerate() {
                let mut next = head;
                while next != NO_BLOCK {
                    let off = next as usize * UNIT;
                    if !claim(off, class) {
                        return false;
                    }
                    next = self.arena[off] as u32;
                }
            }
            owners.iter().all(|&o| o == 1)
        }
    }

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
    fn cell_slot_is_two_words_wide() {
        // The fixed cost per cell is the inline window itself: its length
        // is read off the sentinel words, not stored beside them.
        assert_eq!(std::mem::size_of::<CellSlot>(), 16);
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
        c.release_before(2);
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
        // Ten entries grew through the 3-, 6- and 12-word classes, and the
        // outgrown blocks went on their free lists.
        assert_eq!(c.arena.len(), 3 + 6 + 12);
        assert!(c.arena_is_partitioned());
        // GC down to two live entries: the window must fold back inline and
        // free its block.
        c.release_before(8);
        assert!(!c.is_spilled(p(1, 1)));
        assert_eq!(c.window_ticks(p(1, 1)), vec![8, 9]);
        assert_eq!(c.reservation_count(), 2);
        assert!(c.arena_is_partitioned());
        // The freed blocks serve the next spill instead of new ones
        // (free-list reuse, not allocator traffic).
        for t in 0..6 {
            c.insert(RobotId::new(0), p(2, 2), t);
        }
        assert!(c.is_spilled(p(2, 2)));
        assert_eq!(c.arena.len(), 21, "spills must reuse the free blocks");
        assert!(c.arena_is_partitioned());
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
    #[should_panic(expected = "exceeds the packed CDT encoding")]
    fn robot_beyond_guard_panics() {
        let mut c = ConflictDetectionTable::new(4, 4);
        c.insert(RobotId::new(MAX_FLEET), p(0, 0), 0);
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
        c.insert(RobotId::new(MAX_FLEET - 1), p(0, 0), MAX_CDT_TICK);
        assert_eq!(
            c.occupant(p(0, 0), MAX_CDT_TICK),
            Some(RobotId::new(MAX_FLEET - 1))
        );
        assert_eq!(
            c.last_reservation_excluding(p(0, 0), RobotId::new(0)),
            Some(MAX_CDT_TICK)
        );

        // A spilled window at the top ticks, its last entry one below the
        // `SPILLED` word: the sentinels must not read as entries.
        let top = RobotId::new(MAX_FLEET - 1);
        for t in MAX_CDT_TICK - 2..=MAX_CDT_TICK {
            c.insert(top, p(1, 1), t);
        }
        assert!(c.is_spilled(p(1, 1)));
        for t in MAX_CDT_TICK - 2..=MAX_CDT_TICK {
            assert_eq!(c.occupant(p(1, 1), t), Some(top));
        }
        assert_eq!(c.occupant(p(1, 1), MAX_CDT_TICK - 3), None);
        let other = RobotId::new(0);
        assert!(!c.can_move(other, p(1, 0), p(1, 1), MAX_CDT_TICK - 1));
        assert!(c.can_move(top, p(1, 0), p(1, 1), MAX_CDT_TICK - 1));
        assert!(c.can_move(other, p(1, 0), p(1, 1), MAX_CDT_TICK - 4));
        assert_eq!(
            c.last_reservation_excluding(p(1, 1), other),
            Some(MAX_CDT_TICK)
        );
        assert_eq!(c.last_reservation_excluding(p(1, 1), top), None);

        // Shrunk back inline by the GC, the window keeps its top entries.
        c.release_before(MAX_CDT_TICK - 1);
        assert!(!c.is_spilled(p(1, 1)));
        assert_eq!(
            c.window_ticks(p(1, 1)),
            vec![MAX_CDT_TICK - 1, MAX_CDT_TICK]
        );
        assert_eq!(c.occupant(p(1, 1), MAX_CDT_TICK), Some(top));
        assert!(c.arena_is_partitioned());
        assert!(c.occupied_is_exact());
    }

    /// The spill words hold the longest window at the last offset, and a
    /// window as long as the longest leg a resume accepts on the largest
    /// grid (`(W−1) + (H−1)` plus the default slack of 256, at `u16::MAX`
    /// per side) spills, answers and folds back inline.
    #[test]
    fn longest_windows_roundtrip() {
        let last = (NO_BLOCK as usize - 1) * UNIT;
        let s = CellSlot::spilled(last, MAX_WINDOW, CLASSES - 1);
        assert!(s.is_spilled() && !s.is_empty());
        assert_eq!(s.block(), (last, MAX_WINDOW, CLASSES - 1));
        assert!(block_words(CLASSES - 1) >= MAX_WINDOW);

        let span = 2 * (u16::MAX as Tick - 1) + 256;
        let mut c = ConflictDetectionTable::new(4, 4);
        let r = RobotId::new(3);
        let wait = Path {
            start: 0,
            cells: vec![p(1, 1); span as usize + 1],
        };
        c.reserve_path(r, &wait, true);
        assert!(c.is_spilled(p(1, 1)));
        assert_eq!(c.reservation_count() as Tick, span + 1);
        for t in [0, 1, span / 2, span - 1, span] {
            assert_eq!(c.occupant(p(1, 1), t), Some(r));
        }
        assert!(!c.can_move(RobotId::new(0), p(1, 0), p(1, 1), span - 1));
        assert_eq!(
            c.last_reservation_excluding(p(1, 1), RobotId::new(0)),
            Some(span)
        );
        assert!(c.arena_is_partitioned());
        c.release_before(span - 1);
        assert!(!c.is_spilled(p(1, 1)));
        assert_eq!(c.window_ticks(p(1, 1)), vec![span - 1, span]);
        assert!(c.arena_is_partitioned());
    }

    /// A window that must spill first drops its entries before the
    /// finished tick, and keeps the ones at it.
    #[test]
    fn passed_entries_drop_before_a_window_spills() {
        let mut c = ConflictDetectionTable::new(4, 4);
        let (a, b) = (RobotId::new(1), RobotId::new(2));
        c.insert(a, p(2, 2), 3);
        c.insert(b, p(2, 2), 10);
        c.housekeeping(10);
        c.insert(a, p(2, 2), 12);
        assert!(!c.is_spilled(p(2, 2)), "tick 3 made room inline");
        assert_eq!(c.window_ticks(p(2, 2)), vec![10, 12]);
        assert_eq!(c.reservation_count(), 2);
        // Nothing passed: the window spills with every entry.
        c.insert(b, p(2, 2), 11);
        assert!(c.is_spilled(p(2, 2)));
        assert_eq!(c.window_ticks(p(2, 2)), vec![10, 11, 12]);
        assert!(c.arena_is_partitioned());
    }

    /// A spilled window that must outgrow its block first drops its
    /// passed entries, and moves back inline if that leaves two or fewer.
    /// A tick that is not a multiple of 64 collects nothing else.
    #[test]
    fn passed_entries_drop_before_a_block_grows() {
        let mut c = ConflictDetectionTable::new(4, 4);
        let r = RobotId::new(0);
        for t in [1, 2, 5] {
            c.insert(r, p(1, 1), t);
        }
        c.insert(r, p(3, 3), 1);
        c.housekeeping(5);
        assert_eq!(c.reservation_count(), 4, "no collection at tick 5");
        c.insert(r, p(1, 1), 6);
        assert!(!c.is_spilled(p(1, 1)));
        assert_eq!(c.window_ticks(p(1, 1)), vec![5, 6]);
        assert_eq!(c.window_ticks(p(3, 3)), vec![1]);
        assert_eq!(c.reservation_count(), 3);
        // Six entries fill a 6-word block. An entry before the finished
        // tick still goes in, ahead of the kept ones.
        for t in [7, 8, 9, 10] {
            c.insert(r, p(1, 1), t);
        }
        c.housekeeping(8);
        c.insert(r, p(1, 1), 4);
        assert_eq!(c.window_ticks(p(1, 1)), vec![4, 8, 9, 10]);
        assert!(c.is_spilled(p(1, 1)));
        assert!(c.arena_is_partitioned());
        c.housekeeping(64);
        assert_eq!(
            c.reservation_count(),
            0,
            "tick 64 collects everything before it"
        );
        assert!(c.arena_is_partitioned() && c.occupied_is_exact());
    }

    /// Drive the same operation soup (`reference_cdt::apply_soup`) into a
    /// pooled and a reference table of `w`×`h` cells. An advance runs the
    /// pooled table's housekeeping, so its windows prune as they grow.
    fn apply_soup(
        ops: &[(u8, usize, u16, u16, u64)],
        (w, h): (u16, u16),
    ) -> (ConflictDetectionTable, ReferenceConflictDetectionTable) {
        let mut pooled = ConflictDetectionTable::new(w, h);
        let reference =
            reference_cdt::apply_soup(ops, &mut pooled, (w, h), |c, t| c.housekeeping(t));
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

        /// The specialized `can_move` must match the three-probe
        /// reference exactly, and so must the trait default the STG uses.
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
                let want = default_can_move(&cdt, probe, from, to, qt);
                prop_assert_eq!(
                    cdt.can_move(probe, from, to, qt),
                    want,
                    "disagree for {} -> {} @ {}", from, to, qt
                );
                prop_assert_eq!(stg.can_move(probe, from, to, qt), want);
            }
        }

        /// The same soup driven into the pooled table, the spatiotemporal
        /// graph and the reference leaves all three answering every probe
        /// alike (`same_answers`) at every tick of the soup's span.
        #[test]
        fn backends_answer_alike_after_one_soup(
            ops in proptest::collection::vec(
                (0u8..6, 0usize..8, 0u16..8, 0u16..8, 0u64..40), 1..40),
        ) {
            let (pooled, reference) = apply_soup(&ops, (8, 8));
            let mut stg = SpatioTemporalGraph::new(8, 8);
            reference_cdt::apply_soup(&ops, &mut stg, (8, 8), |_, _| {});
            same_answers(&pooled, &reference, (8, 8), 0..44, 9)?;
            same_answers(&stg, &reference, (8, 8), 0..44, 9)?;
        }

        /// The pooled table must answer every occupancy, `can_move`,
        /// `last_reservation_excluding` and count query exactly like the
        /// reference layout after an arbitrary soup of inserts, path
        /// reservations, GC passes, robot releases and (un)parking, with
        /// every spill owned by one cell or free.
        #[test]
        fn pooled_equals_reference_under_soup(
            ops in proptest::collection::vec(
                (0u8..6, 0usize..8, 0u16..8, 0u16..8, 0u64..40), 1..40),
            qt in 0u64..48,
        ) {
            let (pooled, reference) = apply_soup(&ops, (8, 8));
            prop_assert_eq!(pooled.reservation_count(), reference.reservation_count());
            prop_assert!(pooled.arena_is_partitioned());
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
                (0u8..6, 0usize..8, 0u16..64, 0u16..64, 0u64..40), 1..40),
            gc in 0u64..48,
        ) {
            let (mut pooled, mut reference) = apply_soup(&ops, (64, 64));
            pooled.release_before(gc);
            reference.release_before(gc);
            same_answers(&pooled, &reference, (64, 64), 0..44, 9)?;
            prop_assert!(pooled.occupied_is_exact());
            prop_assert!(pooled.arena_is_partitioned());
        }
    }
}
