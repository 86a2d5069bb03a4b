//! The queuing term of the end-to-end makespan model (Eqs. 1–3).
//!
//! The makespan `M = max_r f_r` where the rack finish estimate `f_r`
//! decomposes into the five fulfilment-cycle delays (ILP's assignment cost
//! is `f_r − t_k`, taking the return trip as long as the delivery):
//!
//! ```text
//! f_r = t_k                              (selection time)
//!     + d(l_a, l_r)                      (pickup)
//!     + d(l_r, l_p)                      (delivery)
//!     + max{ f_p − (pickup + delivery), 0 }   (queuing)
//!     + Σ_{i ∈ τ_r} i                    (processing)
//!     + d(l_p, l_r)                      (return)
//! ```
//!
//! **Note on Eq. (2).** The paper prints the queuing term as
//! `max{d(la,lr) + d(lr,lp) − fp, 0}`, i.e. travel minus picker finish time.
//! Semantically the rack queues while the picker is still busy *after* the
//! rack arrives, which is `max{fp − travel, 0}` — the interpretation
//! implemented here (and the one consistent with the FIFO queue of
//! Definition 2 and the reward of Eq. (4)).

use tprw_warehouse::Duration;

/// Queuing delay: how long the rack waits at the picker before processing
/// starts, given the picker's finish time `f_p` (Eq. 3) and the rack's
/// travel delay (pickup + delivery).
#[inline]
pub fn queuing_delay(picker_finish: Duration, travel: Duration) -> Duration {
    picker_finish.saturating_sub(travel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queuing_zero_when_picker_idle() {
        assert_eq!(queuing_delay(0, 25), 0);
        assert_eq!(queuing_delay(10, 25), 0, "picker frees up before arrival");
    }

    #[test]
    fn queuing_positive_when_picker_busy() {
        assert_eq!(queuing_delay(100, 25), 75);
    }
}
