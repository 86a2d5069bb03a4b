//! Metric definitions, and how a run's episodes become the numbers printed.
//!
//! End-to-end metrics are measured with tracing off and pool the run's
//! episodes: percentiles over every order, means per episode for times,
//! medians over episodes for simulated statistics. Per-layer metrics
//! come from a separate traced run and are means per episode, so shares can
//! be read off them.

use serde_json::Value;

use crate::episode::{peak_rss_mb, Episode};
use crate::probes::ProbeResults;
use crate::stats::{median, percentile, samples_beyond, MIN_SAMPLES_BEYOND};
use crate::trace::{Tracer, TICK};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: something a user of the planner-plus-simulator sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Must equal `BENCHMARK.json`'s `end_to_end` (a unit test compares them).
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("run_s", "s", Better::Lower, 0.25),
    e2e("ticks_per_s", "ticks/s", Better::Higher, 0.25),
    e2e("cpu_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.2),
    e2e("makespan_ticks", "ticks", Better::Lower, 0.1),
    e2e("order_p50_ticks", "ticks", Better::Lower, 0.05),
    e2e("order_p99_ticks", "ticks", Better::Lower, 0.05),
    e2e("ppr", "ratio", Better::Higher, 0.1),
    e2e("rwr", "ratio", Better::Higher, 0.12),
    e2e("mc_peak_bytes", "bytes", Better::Lower, 0.05),
];

/// Per-layer metric names and units, layer = crate name. Must equal
/// `BENCHMARK.json`'s `per_layer`.
pub const PER_LAYER: [(&str, &str, Better); 46] = [
    ("warehouse.build_s", "s", Better::Lower),
    ("warehouse.orders", "count", Better::Higher),
    ("warehouse.events_scheduled", "count", Better::Higher),
    ("core.init_s", "s", Better::Lower),
    ("core.plan_s", "s", Better::Lower),
    ("core.plan_calls", "count", Better::Lower),
    ("core.assignments", "count", Better::Higher),
    ("core.query_legs_s", "s", Better::Lower),
    ("core.commit_legs_s", "s", Better::Lower),
    ("core.leg_requests", "count", Better::Lower),
    ("core.legs_blocked_frac", "ratio", Better::Lower),
    ("core.stc_s", "s", Better::Lower),
    ("core.self_s", "s", Better::Lower),
    ("core.q_states", "count", Better::Lower),
    ("core.anticipation_hits", "count", Better::Higher),
    ("core.housekeeping_s", "s", Better::Lower),
    ("core.on_event_s", "s", Better::Lower),
    ("core.events", "count", Better::Lower),
    ("pathfinding.ptc_s", "s", Better::Lower),
    ("pathfinding.queries", "count", Better::Lower),
    ("pathfinding.failed_frac", "ratio", Better::Lower),
    ("pathfinding.expansions", "count", Better::Lower),
    ("pathfinding.expansions_per_query", "count", Better::Lower),
    ("pathfinding.ns_per_expansion", "ns", Better::Lower),
    ("pathfinding.splice_frac", "ratio", Better::Higher),
    ("pathfinding.scratch_peak_bytes", "bytes", Better::Lower),
    (
        "pathfinding.probe.astar_cdt_ns_per_expansion",
        "ns",
        Better::Lower,
    ),
    (
        "pathfinding.probe.astar_stg_ns_per_expansion",
        "ns",
        Better::Lower,
    ),
    ("pathfinding.probe.can_move_cdt_ns", "ns", Better::Lower),
    ("pathfinding.probe.can_move_stg_ns", "ns", Better::Lower),
    (
        "pathfinding.probe.reserve_cdt_ns_per_cell",
        "ns",
        Better::Lower,
    ),
    (
        "pathfinding.probe.reserve_stg_ns_per_cell",
        "ns",
        Better::Lower,
    ),
    ("simulator.engine_self_s", "s", Better::Lower),
    ("simulator.ticks", "count", Better::Lower),
    ("simulator.tick_p50_us", "us", Better::Lower),
    ("simulator.tick_p99_us", "us", Better::Lower),
    ("simulator.queue_wait_s", "s", Better::Lower),
    ("simulator.commands_applied", "count", Better::Higher),
    ("simulator.peak_backlog", "count", Better::Lower),
    ("simulator.ack_lag_max_ticks", "ticks", Better::Lower),
    ("simulator.snapshot_s", "s", Better::Lower),
    ("simulator.snapshot_bytes", "bytes", Better::Lower),
    ("simulator.orders_failed_frac", "ratio", Better::Lower),
    ("trace.attributed_frac", "ratio", Better::Higher),
    ("trace.ticks_per_s", "ticks/s", Better::Higher),
    ("trace.overhead_frac", "ratio", Better::Lower),
];

pub type Metrics = Vec<(&'static str, f64)>;

fn sorted_pool<'a>(parts: impl Iterator<Item = &'a Vec<u64>>) -> Vec<u64> {
    let mut pool: Vec<u64> = parts.flatten().copied().collect();
    pool.sort_unstable();
    pool
}

/// What keeps a run's p99s from being honest: too few samples beyond them.
pub fn p99_problems(episodes: &[Episode]) -> Vec<String> {
    let count = |f: fn(&Episode) -> usize| episodes.iter().map(f).sum::<usize>();
    let pools = [
        ("ticks", count(|e| e.tick_ns.len())),
        ("orders", count(|e| e.latency_ticks.len())),
    ];
    pools
        .iter()
        .filter(|(_, n)| samples_beyond(*n, 99.0) < MIN_SAMPLES_BEYOND)
        .map(|(what, n)| {
            format!("p99 over {n} {what} has fewer than {MIN_SAMPLES_BEYOND} samples beyond it")
        })
        .collect()
}

/// The end-to-end metrics of a run, in [`END_TO_END`] order.
pub fn end_to_end(episodes: &[Episode], setups: &[f64]) -> Metrics {
    let ticks: usize = episodes.iter().map(|e| e.tick_ns.len()).sum();
    let latencies = sorted_pool(episodes.iter().map(|e| &e.latency_ticks));
    let n = episodes.len() as f64;
    let run_s: f64 = episodes.iter().map(|e| e.run_s).sum();
    let cpu_s: f64 = episodes.iter().map(|e| e.cpu_s).sum();
    let med = |f: fn(&Episode) -> f64| median(&episodes.iter().map(f).collect::<Vec<_>>());
    vec![
        ("setup_s", median(setups)),
        ("run_s", run_s / n),
        ("ticks_per_s", ticks as f64 / run_s),
        ("cpu_s", cpu_s / n),
        ("peak_rss_mb", peak_rss_mb()),
        ("makespan_ticks", med(|e| e.report.makespan as f64)),
        ("order_p50_ticks", percentile(&latencies, 50.0) as f64),
        ("order_p99_ticks", percentile(&latencies, 99.0) as f64),
        ("ppr", med(|e| e.report.ppr)),
        ("rwr", med(|e| e.report.rwr)),
        ("mc_peak_bytes", med(|e| e.report.peak_memory_bytes as f64)),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order. Times and
/// counts are means per episode; ratios are taken over the whole run.
/// `overhead` is the median traced ÷ bare time − 1 of the floors run both ways.
pub fn per_layer(
    episodes: &[Episode],
    tracer: &Tracer,
    probes: &ProbeResults,
    overhead: f64,
) -> Metrics {
    let n = episodes.len() as f64;
    let sum = |f: &dyn Fn(&Episode) -> f64| episodes.iter().map(f).sum::<f64>();
    let mean = |f: &dyn Fn(&Episode) -> f64| sum(f) / n;
    let span_s = |name: &str| tracer.total(name).total_ns as f64 / 1e9 / n;
    let calls = |name: &str| tracer.total(name).count as f64 / n;
    let counter = |name: &str| tracer.counter(name) as f64;

    let stats = |f: &dyn Fn(&eatp_core::planner::PlannerStats) -> f64| {
        sum(&|e: &Episode| f(&e.report.planner_stats))
    };
    let planned = stats(&|s| s.paths_planned as f64);
    let failed = stats(&|s| s.paths_failed as f64);
    let expansions = stats(&|s| s.expansions as f64);
    let ptc_ns = stats(&|s| s.planning_ns as f64);
    let stc_ns = stats(&|s| s.selection_ns as f64);

    let tick = tracer.total(TICK);
    let planner_in_tick_ns: u64 = [
        "core.plan",
        "core.plan_leg",
        "core.query_legs",
        "core.commit_legs",
        "core.on_dock",
        "core.on_event",
        "core.housekeeping",
    ]
    .iter()
    .map(|name| tracer.total(name).total_ns)
    .sum();
    let in_spans_ns = tick.total_ns
        + tracer.total("simulator.queue_wait").total_ns
        + tracer.total("simulator.snapshot").total_ns;
    let orders = sum(&|e: &Episode| e.orders.submitted as f64);
    let run_s = sum(&|e: &Episode| e.run_s);
    let ticks = sorted_pool(episodes.iter().map(|e| &e.tick_ns));

    vec![
        ("warehouse.build_s", mean(&|e| e.setup.build_s)),
        ("warehouse.orders", orders / n),
        (
            "warehouse.events_scheduled",
            mean(&|e| e.events_scheduled as f64),
        ),
        ("core.init_s", span_s("core.init")),
        ("core.plan_s", span_s("core.plan")),
        ("core.plan_calls", calls("core.plan")),
        ("core.assignments", counter("core.assignments") / n),
        ("core.query_legs_s", span_s("core.query_legs")),
        ("core.commit_legs_s", span_s("core.commit_legs")),
        ("core.leg_requests", counter("core.leg_requests") / n),
        (
            "core.legs_blocked_frac",
            ratio(counter("core.legs_blocked"), counter("core.leg_requests")),
        ),
        ("core.stc_s", stc_ns / 1e9 / n),
        (
            "core.self_s",
            (planner_in_tick_ns as f64 - ptc_ns).max(0.0) / 1e9 / n,
        ),
        (
            "core.q_states",
            mean(&|e| e.report.planner_stats.q_states as f64),
        ),
        (
            "core.anticipation_hits",
            mean(&|e| e.report.anticipation_hits as f64),
        ),
        ("core.housekeeping_s", span_s("core.housekeeping")),
        ("core.on_event_s", span_s("core.on_event")),
        ("core.events", calls("core.on_event")),
        ("pathfinding.ptc_s", ptc_ns / 1e9 / n),
        ("pathfinding.queries", (planned + failed) / n),
        ("pathfinding.failed_frac", ratio(failed, planned + failed)),
        ("pathfinding.expansions", expansions / n),
        (
            "pathfinding.expansions_per_query",
            ratio(expansions, planned + failed),
        ),
        ("pathfinding.ns_per_expansion", ratio(ptc_ns, expansions)),
        (
            "pathfinding.splice_frac",
            ratio(stats(&|s| s.cache_spliced as f64), planned),
        ),
        (
            "pathfinding.scratch_peak_bytes",
            mean(&|e| e.report.peak_scratch_bytes as f64),
        ),
        (
            "pathfinding.probe.astar_cdt_ns_per_expansion",
            probes.astar_cdt_ns_per_expansion,
        ),
        (
            "pathfinding.probe.astar_stg_ns_per_expansion",
            probes.astar_stg_ns_per_expansion,
        ),
        ("pathfinding.probe.can_move_cdt_ns", probes.can_move_cdt_ns),
        ("pathfinding.probe.can_move_stg_ns", probes.can_move_stg_ns),
        (
            "pathfinding.probe.reserve_cdt_ns_per_cell",
            probes.reserve_cdt_ns_per_cell,
        ),
        (
            "pathfinding.probe.reserve_stg_ns_per_cell",
            probes.reserve_stg_ns_per_cell,
        ),
        ("simulator.engine_self_s", tick.self_ns as f64 / 1e9 / n),
        ("simulator.ticks", tick.count as f64 / n),
        (
            "simulator.tick_p50_us",
            percentile(&ticks, 50.0) as f64 / 1e3,
        ),
        (
            "simulator.tick_p99_us",
            percentile(&ticks, 99.0) as f64 / 1e3,
        ),
        ("simulator.queue_wait_s", mean(&|e| e.queue_wait_s)),
        (
            "simulator.commands_applied",
            mean(&|e| e.commands_applied as f64),
        ),
        (
            "simulator.peak_backlog",
            mean(&|e| e.report.peak_backlog as f64),
        ),
        (
            "simulator.ack_lag_max_ticks",
            episodes.iter().map(|e| e.ack_lag_max).max().unwrap_or(0) as f64,
        ),
        ("simulator.snapshot_s", mean(&|e| e.snapshot_s)),
        (
            "simulator.snapshot_bytes",
            mean(&|e| e.snapshot_bytes as f64),
        ),
        (
            "simulator.orders_failed_frac",
            ratio(sum(&|e: &Episode| e.orders.failed as f64), orders),
        ),
        // What is left is the harness's own work between ticks.
        (
            "trace.attributed_frac",
            ratio(in_spans_ns as f64 / 1e9, run_s),
        ),
        ("trace.ticks_per_s", ratio(tick.count as f64, run_s)),
        ("trace.overhead_frac", overhead),
    ]
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .expect("metric is defined")
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `{name: {"value": v, "unit": u}}` as the contract's result line wants it.
pub fn metrics_json(metrics: &Metrics) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(name, value)| {
                let fields = vec![
                    ("value", Value::F64(*value)),
                    ("unit", Value::Str(unit_of(name).to_string())),
                ];
                (name.to_string(), obj(fields))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn direction(b: Better) -> Value {
        Value::Str(
            if b == Better::Lower {
                "lower"
            } else {
                "higher"
            }
            .to_string(),
        )
    }

    /// What `BENCHMARK.json` must hold, given the tables above.
    fn manifest() -> Value {
        let text = |s: &str| Value::Str(s.to_string());
        let workloads = WORKLOADS
            .iter()
            .map(|w| obj(vec![("name", text(w.name)), ("why", text(w.why))]))
            .collect();
        let end_to_end = END_TO_END
            .iter()
            .map(|m| {
                obj(vec![
                    ("name", text(m.name)),
                    ("unit", text(m.unit)),
                    ("better", direction(m.better)),
                    ("bound", Value::F64(m.bound)),
                ])
            })
            .collect();
        let per_layer = PER_LAYER
            .iter()
            .map(|(name, unit, better)| {
                obj(vec![
                    ("name", text(name)),
                    ("unit", text(unit)),
                    ("better", direction(*better)),
                ])
            })
            .collect();
        let command = [
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ];
        obj(vec![
            ("command", Value::Array(command.map(text).to_vec())),
            ("paths", Value::Array(vec![text("benchmark")])),
            ("run_seconds", Value::U64(crate::RUN_SECONDS as u64)),
            ("workloads", Value::Array(workloads)),
            ("end_to_end", Value::Array(end_to_end)),
            ("per_layer", Value::Array(per_layer)),
        ])
    }

    #[test]
    fn benchmark_json_lists_exactly_what_a_run_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repo root");
        let on_disk: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(on_disk, manifest());
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract_s_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let legal = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for name in &names {
            assert!(name.len() <= 64 && name.chars().all(legal), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
