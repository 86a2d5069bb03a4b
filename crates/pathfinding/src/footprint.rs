//! Logical memory accounting.
//!
//! The paper's Fig. 12 compares the *memory consumption* of planners, whose
//! dominant component is the reservation structure (spatiotemporal graph vs
//! conflict detection table). JVM MiB numbers are not portable, so we account
//! the live size of exactly those structures: every reservation/index type
//! reports its current heap usage in bytes through [`MemoryFootprint`]. The
//! `repro` binary additionally reports allocator-level numbers via a
//! counting global allocator.
//!
//! Accounting is **capacity-based** for the flat structures: the CDT's
//! 16-byte cell slots and spill arena, the STG's `u16` sentinel layers and
//! the [`crate::reservation::ParkingBoard`]'s 2-byte cells and per-robot
//! spots all report `capacity × element size`, which is what the allocator
//! actually holds (the arena keeps its freed blocks across `release_before`
//! so steady-state GC does not free memory — the number reflects that). The
//! one hash map that remains, the search's deep-delay map, adds
//! [`HASH_ENTRY_OVERHEAD`] per entry for control bytes and load-factor
//! slack.

/// Types that can report their (approximate) live heap size.
pub trait MemoryFootprint {
    /// Approximate number of heap bytes currently held.
    fn memory_bytes(&self) -> usize;
}

/// Approximate per-entry overhead of a `HashMap` slot (SwissTable control
/// byte + load-factor slack ≈ 1/0.875 occupancy), rounded up to a word.
pub const HASH_ENTRY_OVERHEAD: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(usize);
    impl MemoryFootprint for Fixed {
        fn memory_bytes(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn trait_object_usable() {
        let boxed: Box<dyn MemoryFootprint> = Box::new(Fixed(123));
        assert_eq!(boxed.memory_bytes(), 123);
    }
}
