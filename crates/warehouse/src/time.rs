//! Discrete time. One tick corresponds to one second of warehouse time and
//! one robot step (robots move at unit velocity, Sec. II of the paper).

/// A discrete timestamp (seconds since the first item emerged).
pub type Tick = u64;

/// A span of ticks.
pub type Duration = u64;
