//! Metric definitions and collection (Sec. VII-A).
//!
//! Effectiveness: makespan `M` (Eq. 1), Picker's Processing Rate `PPR`
//! (Eq. 6), Robot's Working Rate `RWR` (Eq. 7). Efficiency: Selection Time
//! Consumption (STC), Planning Time Consumption (PTC), Memory Consumption
//! (MC). Time series are sampled at item-progress checkpoints (the x-axes of
//! Figs. 10–12) and the Fig. 13 bottleneck decomposition is accumulated in
//! fixed-width tick buckets.
//!
//! **RWR note.** Eq. (7) counts a robot as *working* while its rack is
//! being picked — the paper reads a high RWR as "less delivering time and
//! more picking time", and its reported magnitudes (0.05–0.16 with hundreds
//! of robots) match picking-time fractions, not any-busy fractions. We
//! therefore count the `Processing` phase in the RWR numerator and expose
//! the any-busy fraction separately as `robot_busy_rate`. Both numerators
//! are sums of the Fig. 13 buckets, which count every busy robot once per
//! tick (`docs/adr/ADR-032-counts-stored-once.md`).

use serde::{Deserialize, Serialize};
use tprw_warehouse::{Duration, Tick};

/// One sampled point of the Figs. 10–12 series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Items processed when the snapshot was taken.
    pub items_processed: usize,
    /// Simulation tick of the snapshot.
    pub t: Tick,
    /// Picker's Processing Rate so far (Eq. 6, with `M` = current tick).
    pub ppr: f64,
    /// Robot's Working Rate so far (Eq. 7; picking-time fraction).
    pub rwr: f64,
    /// Cumulative selection time (seconds).
    pub stc_s: f64,
    /// Cumulative planning time (seconds).
    pub ptc_s: f64,
    /// Live planner memory (bytes).
    pub memory_bytes: usize,
}

/// One bucket of the Fig. 13 bottleneck decomposition: total robot-ticks
/// spent per fulfilment stage during the bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BottleneckSample {
    /// Bucket start tick.
    pub t: Tick,
    /// Robot-ticks in transport (pickup + delivery + return).
    pub transport: u64,
    /// Robot-ticks queuing at pickers.
    pub queuing: u64,
    /// Robot-ticks in processing.
    pub processing: u64,
}

impl BottleneckSample {
    /// The dominating stage of this bucket.
    pub fn dominant(&self) -> &'static str {
        if self.transport >= self.queuing && self.transport >= self.processing {
            "transport"
        } else if self.queuing >= self.processing {
            "queuing"
        } else {
            "processing"
        }
    }
}

/// The running metric accumulators: both sampled series. All of it is
/// canonical (checkpoint-persisted) state; the fleet sizes and the bucket
/// width are functions of the instance and engine config, so callers pass
/// them in.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Checkpoints sampled so far.
    pub checkpoints: Vec<Checkpoint>,
    /// Bottleneck buckets accumulated so far.
    pub bottleneck: Vec<BottleneckSample>,
}

/// The fraction of the `n · horizon` entity-ticks that `busy` covers: PPR
/// (Eq. 6) over pickers, RWR (Eq. 7) and the busy rate over robots.
pub fn rate(busy: Duration, n: usize, horizon: Tick) -> f64 {
    if horizon == 0 || n == 0 {
        return 0.0;
    }
    busy as f64 / (n as f64 * horizon as f64)
}

impl MetricsSnapshot {
    /// Record one tick of the bottleneck decomposition into its
    /// `bucket_width`-tick bucket.
    pub fn record_bottleneck(
        &mut self,
        t: Tick,
        bucket_width: Tick,
        transport: u64,
        queuing: u64,
        processing: u64,
    ) {
        let bucket_start = (t / bucket_width) * bucket_width;
        match self.bottleneck.last_mut() {
            Some(last) if last.t == bucket_start => {
                last.transport += transport;
                last.queuing += queuing;
                last.processing += processing;
            }
            _ => self.bottleneck.push(BottleneckSample {
                t: bucket_start,
                transport,
                queuing,
                processing,
            }),
        }
    }

    /// RWR (Eq. 7): mean picking-time fraction of a fleet of `n_robots`,
    /// from the robot-ticks the buckets count as processing.
    pub fn rwr(&self, n_robots: usize, horizon: Tick) -> f64 {
        let processing = self.bottleneck.iter().map(|b| b.processing).sum();
        rate(processing, n_robots, horizon)
    }

    /// Any-busy robot fraction (not the paper's RWR; diagnostics): every
    /// busy robot-tick lies in exactly one bucket stage.
    pub fn robot_busy_rate(&self, n_robots: usize, horizon: Tick) -> f64 {
        let busy = (self.bottleneck.iter()).map(|b| b.transport + b.queuing + b.processing);
        rate(busy.sum(), n_robots, horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppr_fraction() {
        // 4 pickers, horizon 100 → denominator 400.
        assert!((rate(200, 4, 100) - 0.5).abs() < 1e-9);
        assert_eq!(rate(0, 4, 0), 0.0, "zero horizon guarded");
    }

    #[test]
    fn rwr_uses_processing_ticks() {
        let mut m = MetricsSnapshot::default();
        m.record_bottleneck(0, 100, 80, 50, 30);
        m.record_bottleneck(150, 100, 30, 0, 10);
        assert!((m.rwr(2, 100) - 0.2).abs() < 1e-9);
        assert!((m.robot_busy_rate(2, 100) - 1.0).abs() < 1e-9);
        assert_eq!(m.rwr(0, 100), 0.0, "empty fleet guarded");
    }

    #[test]
    fn bottleneck_buckets_accumulate() {
        let mut m = MetricsSnapshot::default();
        for t in 0..25u64 {
            m.record_bottleneck(t, 10, 1, 0, 2);
        }
        assert_eq!(m.bottleneck.len(), 3, "25 ticks / width 10");
        assert_eq!(m.bottleneck[0].t, 0);
        assert_eq!(m.bottleneck[0].transport, 10);
        assert_eq!(m.bottleneck[0].processing, 20);
        assert_eq!(m.bottleneck[2].transport, 5);
    }

    #[test]
    fn dominant_stage() {
        let s = BottleneckSample {
            t: 0,
            transport: 5,
            queuing: 9,
            processing: 3,
        };
        assert_eq!(s.dominant(), "queuing");
        let s2 = BottleneckSample {
            t: 0,
            transport: 10,
            queuing: 9,
            processing: 3,
        };
        assert_eq!(s2.dominant(), "transport");
        let s3 = BottleneckSample {
            t: 0,
            transport: 1,
            queuing: 2,
            processing: 30,
        };
        assert_eq!(s3.dominant(), "processing");
    }

    #[test]
    fn serde_roundtrip_checkpoint() {
        let c = Checkpoint {
            items_processed: 10,
            t: 99,
            ppr: 0.5,
            rwr: 0.1,
            stc_s: 0.01,
            ptc_s: 0.2,
            memory_bytes: 1024,
        };
        let json = serde_json::to_string(&c).unwrap();
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
