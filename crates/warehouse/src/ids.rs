//! Strongly-typed identifiers for warehouse entities.
//!
//! Using `u32` newtypes (rather than `usize`) keeps hot structs small — see
//! the "Smaller Integers" guidance of the Rust performance book — while
//! still supporting million-item instances.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(pub u32);

        impl $name {
            /// Build from a dense index.
            #[inline]
            pub fn new(index: usize) -> Self {
                debug_assert!(index <= u32::MAX as usize);
                Self(index as u32)
            }

            /// Dense index for direct vector addressing.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self(v)
            }
        }
    };
}

id_type!(
    /// Identifier of a rack (Definition 1).
    RackId,
    "rack#"
);
id_type!(
    /// Identifier of a picker (Definition 2).
    PickerId,
    "picker#"
);
id_type!(
    /// Identifier of a robot (Definition 3).
    RobotId,
    "robot#"
);

/// Largest fleet a scenario may hold. Robot ids stay below it, so each fits
/// the conflict detection table's 16-bit entry field and the spatiotemporal
/// graph's `u16` layers beside their empty sentinel `u16::MAX`.
pub const MAX_FLEET: usize = 65_535;

id_type!(
    /// Identifier of an item (a task in the paper's terminology).
    ItemId,
    "item#"
);
id_type!(
    /// Identifier of a live-ingested order (one `SubmitOrder` command).
    /// Orders land as [`ItemId`]s once accepted; the order id is the stable
    /// handle producers use for cancellation and acknowledgements.
    OrderId,
    "order#"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let r = RackId::new(42);
        assert_eq!(r.index(), 42);
        assert_eq!(r, RackId::from(42u32));
    }

    #[test]
    fn display_prefixes() {
        assert_eq!(RackId::new(1).to_string(), "rack#1");
        assert_eq!(PickerId::new(2).to_string(), "picker#2");
        assert_eq!(RobotId::new(3).to_string(), "robot#3");
        assert_eq!(ItemId::new(4).to_string(), "item#4");
        assert_eq!(OrderId::new(5).to_string(), "order#5");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(RackId::new(1) < RackId::new(2));
    }

    #[test]
    fn ids_are_small() {
        assert_eq!(std::mem::size_of::<RackId>(), 4);
        assert_eq!(std::mem::size_of::<Option<RackId>>(), 8);
    }
}
