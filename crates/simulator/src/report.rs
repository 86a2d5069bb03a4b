//! Simulation results and text rendering.

use crate::metrics::{BottleneckSample, Checkpoint};
use eatp_core::planner::PlannerStats;
use serde::{Deserialize, Serialize};
use tprw_warehouse::Tick;

/// Outcome of one full simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Scenario name.
    pub scenario: String,
    /// Planner name (`"NTP"`, …, `"EATP"`).
    pub planner: String,
    /// End-to-end makespan `M` (Eq. 1): tick at which the last rack
    /// returned.
    pub makespan: Tick,
    /// Whether all items were fulfilled within the tick budget.
    pub completed: bool,
    /// Items processed.
    pub items_processed: usize,
    /// Total fulfilment cycles (rack trips).
    pub rack_trips: usize,
    /// Mean items batched per rack trip (the Sec. III-B batching signal).
    pub batch_factor: f64,
    /// Final Picker's Processing Rate (Eq. 6).
    pub ppr: f64,
    /// Final Robot's Working Rate (Eq. 7).
    pub rwr: f64,
    /// Any-busy robot fraction (diagnostics; not the paper's RWR).
    pub robot_busy_rate: f64,
    /// Total selection time (seconds) — STC.
    pub stc_s: f64,
    /// Total planning time (seconds) — PTC.
    pub ptc_s: f64,
    /// Peak observed planner memory (bytes) — MC.
    pub peak_memory_bytes: usize,
    /// Peak memory of the reusable A* search arena (bytes). Reported
    /// separately from MC: the arena is identical machinery for every
    /// planner, so folding it into MC would wash out the STG-vs-CDT
    /// comparison of Fig. 12.
    pub peak_scratch_bytes: usize,
    /// Progress series (Figs. 10–12).
    pub checkpoints: Vec<Checkpoint>,
    /// Bottleneck decomposition (Fig. 13).
    pub bottleneck: Vec<BottleneckSample>,
    /// Conflicts observed by the independent validator (must be 0).
    pub executed_conflicts: usize,
    /// Disruption events applied during the run (deferred blockades and
    /// rack removals count when they land; 0 for static scenarios).
    pub events_applied: usize,
    /// Disruption events that had to defer at least once (a blockade whose
    /// cell was occupied, a removal whose rack was in flight).
    pub events_deferred: usize,
    /// Disruption-safety violations: a robot occupying a blockaded cell, or
    /// a plan naming a broken robot / a closed station's rack (must be 0).
    pub disruption_violations: usize,
    /// Always 0: the planner counter it copies has had no writer since the
    /// selection layer behind it was deleted
    /// (`docs/adr/ADR-011-one-selection-policy.md`). Kept because
    /// benchmark reports read it.
    pub anticipation_hits: u64,
    /// Orders submitted: live-ingested acceptances plus the pregenerated
    /// item list, which the engine models as an order book submitted at
    /// tick 0 (so a live run and its pregenerated equivalent agree).
    pub orders_submitted: u64,
    /// Live orders withdrawn from the backlog before their items emerged.
    pub orders_cancelled: u64,
    /// Commands rejected (duplicates, unknown orders, post-shutdown
    /// submissions, invalid disruption injections).
    pub orders_rejected: u64,
    /// Orders whose items finished processing.
    pub orders_completed: u64,
    /// Peak backlog depth: not-yet-emerged pregenerated items plus live
    /// backlog entries, sampled every tick.
    pub peak_backlog: u64,
    /// Total order age accrued at landing: `Σ (landing tick − submission
    /// tick)`; pregenerated items are submitted at tick 0.
    pub total_order_age: u64,
    /// Final cumulative planner statistics.
    #[serde(skip)]
    pub planner_stats: PlannerStats,
}

/// The deterministic projection of a [`SimulationReport`]: every field that
/// must be bit-identical across regimes that may not change behaviour
/// (tick strategies, live vs pregenerated orders, snapshot/resume) and
/// across PRs that claim none. Wall-clock timings and
/// memory accounting — which legitimately differ — are excluded. Shared by
/// the committed `results/fingerprints_*` files and the equivalence tests
/// so the checks cannot drift apart.
#[derive(Debug, Clone, PartialEq)]
pub struct DeterministicFingerprint {
    /// Makespan `M`.
    pub makespan: Tick,
    /// Whether the run finished within the tick budget.
    pub completed: bool,
    /// Items processed.
    pub items_processed: usize,
    /// Fulfilment cycles.
    pub rack_trips: usize,
    /// `batch_factor` bits (exact f64 comparison).
    pub batch_factor_bits: u64,
    /// `ppr` bits.
    pub ppr_bits: u64,
    /// `rwr` bits.
    pub rwr_bits: u64,
    /// `robot_busy_rate` bits.
    pub robot_busy_rate_bits: u64,
    /// Validator-observed conflicts.
    pub executed_conflicts: usize,
    /// Disruption events applied.
    pub events_applied: usize,
    /// Disruption events that deferred at least once.
    pub events_deferred: usize,
    /// Disruption-safety violations.
    pub disruption_violations: usize,
    /// Checkpoint series: `(items, t, ppr bits, rwr bits)`.
    pub checkpoints: Vec<(usize, Tick, u64, u64)>,
    /// Bottleneck series: `(t, transport, queuing, processing)`.
    pub bottleneck: Vec<(Tick, u64, u64, u64)>,
    /// Planner counters: expansions, planned, failed, the path-cache slot,
    /// q-states, and a last slot. The path-cache and last slots are always
    /// 0 (kept so the committed fingerprint lines stay unedited).
    pub planner_counters: (u64, u64, u64, u64, usize, u64),
    /// Always 0, like the next two: the degraded-tick count of the deleted
    /// fault-injection layer (`docs/adr/ADR-024-no-fault-injection.md`).
    /// The three slots stay so the committed fingerprint lines, and the
    /// benchmark's hash of them, stay unedited.
    pub degraded_ticks: u64,
    /// Always 0: the deleted greedy fallback's assignment count.
    pub fallback_assignments: u64,
    /// Always 0: the deleted planner-error count.
    pub planner_errors: u64,
    /// Order-lifecycle counters, appended after `planner_errors` so every
    /// pre-ingestion fingerprint prefix stays stable: submitted,
    /// cancelled, rejected, completed, peak backlog depth, total order
    /// age. The live≡pregenerated equivalence tests compare these too —
    /// the engine's unified order-book accounting makes them identical.
    pub order_counters: (u64, u64, u64, u64, u64, u64),
}

impl SimulationReport {
    /// Project onto the fields the batched and serial execution paths must
    /// reproduce bit-identically (see [`DeterministicFingerprint`]).
    pub fn deterministic_fingerprint(&self) -> DeterministicFingerprint {
        DeterministicFingerprint {
            makespan: self.makespan,
            completed: self.completed,
            items_processed: self.items_processed,
            rack_trips: self.rack_trips,
            batch_factor_bits: self.batch_factor.to_bits(),
            ppr_bits: self.ppr.to_bits(),
            rwr_bits: self.rwr.to_bits(),
            robot_busy_rate_bits: self.robot_busy_rate.to_bits(),
            executed_conflicts: self.executed_conflicts,
            events_applied: self.events_applied,
            events_deferred: self.events_deferred,
            disruption_violations: self.disruption_violations,
            checkpoints: self
                .checkpoints
                .iter()
                .map(|c| (c.items_processed, c.t, c.ppr.to_bits(), c.rwr.to_bits()))
                .collect(),
            bottleneck: self
                .bottleneck
                .iter()
                .map(|b| (b.t, b.transport, b.queuing, b.processing))
                .collect(),
            planner_counters: (
                self.planner_stats.expansions,
                self.planner_stats.paths_planned,
                self.planner_stats.paths_failed,
                self.planner_stats.cache_spliced,
                self.planner_stats.q_states,
                self.planner_stats.anticipation_hits,
            ),
            degraded_ticks: 0,
            fallback_assignments: 0,
            planner_errors: 0,
            order_counters: (
                self.orders_submitted,
                self.orders_cancelled,
                self.orders_rejected,
                self.orders_completed,
                self.peak_backlog,
                self.total_order_age,
            ),
        }
    }

    /// One-line summary (Table III style).
    pub fn summary_row(&self) -> String {
        format!(
            "{:<10} {:<12} M={:<8} PPR={:.3} RWR={:.3} STC={:.3}s PTC={:.3}s MC={}KiB trips={} batch={:.2}{}",
            self.planner,
            self.scenario,
            self.makespan,
            self.ppr,
            self.rwr,
            self.stc_s,
            self.ptc_s,
            self.peak_memory_bytes / 1024,
            self.rack_trips,
            self.batch_factor,
            if self.completed { "" } else { "  [INCOMPLETE]" },
        )
    }

    /// Render the checkpoint series as an aligned text table.
    pub fn series_table(&self) -> String {
        let mut out =
            String::from("  #items      t       PPR     RWR     STC(s)   PTC(s)   MC(KiB)\n");
        for c in &self.checkpoints {
            out.push_str(&format!(
                "  {:<10} {:<7} {:.3}   {:.3}   {:<8.3} {:<8.3} {}\n",
                c.items_processed,
                c.t,
                c.ppr,
                c.rwr,
                c.stc_s,
                c.ptc_s,
                c.memory_bytes / 1024,
            ));
        }
        out
    }

    /// Render the bottleneck series (Fig. 13) as an aligned text table.
    pub fn bottleneck_table(&self) -> String {
        let mut out = String::from("  t        transport  queuing   processing  dominant\n");
        for b in &self.bottleneck {
            out.push_str(&format!(
                "  {:<8} {:<10} {:<9} {:<11} {}\n",
                b.t,
                b.transport,
                b.queuing,
                b.processing,
                b.dominant(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimulationReport {
        SimulationReport {
            scenario: "Syn-A".into(),
            planner: "EATP".into(),
            makespan: 1234,
            completed: true,
            items_processed: 100,
            rack_trips: 40,
            batch_factor: 2.5,
            ppr: 0.8,
            rwr: 0.12,
            robot_busy_rate: 0.7,
            stc_s: 0.5,
            ptc_s: 1.5,
            peak_memory_bytes: 2048 * 1024,
            peak_scratch_bytes: 256 * 1024,
            checkpoints: vec![Checkpoint {
                items_processed: 50,
                t: 600,
                ppr: 0.75,
                rwr: 0.11,
                stc_s: 0.2,
                ptc_s: 0.7,
                memory_bytes: 1024 * 1024,
            }],
            bottleneck: vec![BottleneckSample {
                t: 0,
                transport: 100,
                queuing: 20,
                processing: 30,
            }],
            executed_conflicts: 0,
            events_applied: 0,
            events_deferred: 0,
            disruption_violations: 0,
            anticipation_hits: 0,
            orders_submitted: 100,
            orders_cancelled: 0,
            orders_rejected: 0,
            orders_completed: 100,
            peak_backlog: 40,
            total_order_age: 900,
            planner_stats: PlannerStats::default(),
        }
    }

    #[test]
    fn summary_contains_key_figures() {
        let s = report().summary_row();
        assert!(s.contains("EATP"));
        assert!(s.contains("M=1234"));
        assert!(s.contains("PPR=0.800"));
        assert!(!s.contains("INCOMPLETE"));
    }

    #[test]
    fn incomplete_flagged() {
        let mut r = report();
        r.completed = false;
        assert!(r.summary_row().contains("INCOMPLETE"));
    }

    #[test]
    fn tables_render_rows() {
        let r = report();
        assert_eq!(r.series_table().lines().count(), 2);
        assert!(r.series_table().contains("PPR"));
        assert_eq!(r.bottleneck_table().lines().count(), 2);
        assert!(r.bottleneck_table().contains("transport"));
    }

    #[test]
    fn serde_roundtrip() {
        let r = report();
        let json = serde_json::to_string(&r).unwrap();
        let back: SimulationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.makespan, 1234);
        assert_eq!(back.checkpoints.len(), 1);
    }
}
