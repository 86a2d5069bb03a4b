//! Error type for instance construction.

use std::fmt;

/// Errors raised while building warehouse layouts or scenario instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarehouseError {
    /// The requested grid is too small to host the layout.
    GridTooSmall {
        /// Requested width.
        width: u16,
        /// Requested height.
        height: u16,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// The layout cannot host the requested number of racks.
    TooManyRacks {
        /// Racks requested.
        requested: usize,
        /// Storage cells available.
        available: usize,
    },
    /// The layout cannot host the requested number of robots, or the fleet
    /// is larger than [`crate::MAX_FLEET`].
    TooManyRobots {
        /// Robots requested.
        requested: usize,
        /// Robots the layout can host: its aisle cells, at most
        /// [`crate::MAX_FLEET`].
        available: usize,
    },
    /// The layout cannot host the requested number of pickers.
    TooManyPickers {
        /// Pickers requested.
        requested: usize,
        /// Station cells available.
        available: usize,
    },
    /// A scenario parameter is outside its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Human-readable constraint.
        constraint: &'static str,
    },
}

impl fmt::Display for WarehouseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarehouseError::GridTooSmall {
                width,
                height,
                reason,
            } => write!(f, "grid {width}x{height} too small: {reason}"),
            WarehouseError::TooManyRacks {
                requested,
                available,
            } => write!(
                f,
                "requested {requested} racks but layout has {available} storage cells"
            ),
            WarehouseError::TooManyRobots {
                requested,
                available,
            } => write!(
                f,
                "requested {requested} robots but at most {available} fit"
            ),
            WarehouseError::TooManyPickers {
                requested,
                available,
            } => write!(
                f,
                "requested {requested} pickers but layout has {available} station cells"
            ),
            WarehouseError::InvalidParameter { name, constraint } => {
                write!(f, "invalid parameter {name}: {constraint}")
            }
        }
    }
}

impl std::error::Error for WarehouseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_dimensions() {
        let e = WarehouseError::GridTooSmall {
            width: 3,
            height: 4,
            reason: "no room for stations",
        };
        let s = e.to_string();
        assert!(s.contains("3x4"));
        assert!(s.contains("no room"));
    }

    #[test]
    fn display_mentions_counts() {
        let e = WarehouseError::TooManyRacks {
            requested: 10,
            available: 4,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("4"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(WarehouseError::InvalidParameter {
            name: "scale",
            constraint: "must be > 0",
        });
        assert!(e.to_string().contains("scale"));
    }
}
