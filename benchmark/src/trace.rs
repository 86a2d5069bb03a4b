//! The outside-in layer trace: spans recorded from the harness's own files
//! around the calls into each layer, kept in memory and written at exit.
//!
//! A span is `(name, start, end, parent)`; the spans of one tick share the
//! tick id of their root. A layer's self time is its span's duration minus
//! the part its child spans cover. The planner is observed through
//! [`TimedPlanner`], which wraps the `Planner` trait object the engine
//! drives; the engine's own time is what is left of a tick span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use eatp_core::planner::{
    AssignmentPlan, InjectedFault, LegRequest, Planner, PlannerError, PlannerEvent, PlannerStats,
    TentativeLeg,
};
use eatp_core::world::WorldView;
use serde_json::Value;
use tprw_pathfinding::Path;
use tprw_warehouse::{GridPos, Instance, RobotId, Tick};

use crate::report::obj;

/// The root span of one `tick_with_commands` call.
pub const TICK: &str = "simulator.tick";

/// Span trees of this many slowest ticks are kept for the trace file.
const SLOWEST_TICKS: usize = 200;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span within the same tree; `None` for the root.
    pub parent: Option<u32>,
}

/// Aggregate of every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
struct SlowTick {
    episode: u32,
    tick: Tick,
    spans: Vec<Span>,
}

impl SlowTick {
    fn duration_ns(&self) -> u64 {
        self.spans[0].end_ns - self.spans[0].start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    /// Spans of the tree being recorded (root first).
    spans: Vec<Span>,
    /// Stack of open spans (indices into `spans`).
    open: Vec<u32>,
    /// Per-span time covered by children, reused from tree to tree.
    child_ns: Vec<u64>,
    /// Identifier shared by the spans of the current tree.
    episode: u32,
    tick: Tick,
    totals: BTreeMap<&'static str, SpanTotal>,
    counters: BTreeMap<&'static str, u64>,
    slowest: Vec<SlowTick>,
    /// Duration of the fastest retained tick once `slowest` is full.
    slowest_floor_ns: u64,
}

pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    pub fn shared() -> SharedTracer {
        Rc::new(RefCell::new(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            child_ns: Vec::new(),
            episode: 0,
            tick: 0,
            totals: BTreeMap::new(),
            counters: BTreeMap::new(),
            slowest: Vec::new(),
            slowest_floor_ns: 0,
        }))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Names the tree the next root span starts.
    pub fn set_id(&mut self, episode: u32, tick: Tick) {
        self.episode = episode;
        self.tick = tick;
    }

    pub fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().copied();
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
    }

    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let at = self.open.pop().expect("exit without enter");
        self.spans[at as usize].end_ns = end_ns;
        if self.open.is_empty() {
            self.close_tree();
        }
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_default() += n;
    }

    /// Folds the finished tree into the per-name totals and keeps it if its
    /// root is one of the slowest ticks so far.
    fn close_tree(&mut self) {
        self.child_ns.clear();
        self.child_ns.resize(self.spans.len(), 0);
        for span in &self.spans {
            if let Some(p) = span.parent {
                self.child_ns[p as usize] += span.end_ns - span.start_ns;
            }
        }
        for (span, children) in self.spans.iter().zip(&self.child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = self.totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(*children);
        }
        let root = self.spans[0];
        let duration = root.end_ns - root.start_ns;
        if root.name == TICK
            && (self.slowest.len() < SLOWEST_TICKS || duration > self.slowest_floor_ns)
        {
            self.slowest.push(SlowTick {
                episode: self.episode,
                tick: self.tick,
                spans: std::mem::take(&mut self.spans),
            });
            if self.slowest.len() > SLOWEST_TICKS {
                let fastest = (0..self.slowest.len())
                    .min_by_key(|i| self.slowest[*i].duration_ns())
                    .expect("non-empty");
                self.slowest.swap_remove(fastest);
                self.slowest_floor_ns = self
                    .slowest
                    .iter()
                    .map(SlowTick::duration_ns)
                    .min()
                    .expect("non-empty");
            }
        }
        self.spans.clear();
    }

    pub fn total(&self, name: &str) -> SpanTotal {
        self.totals.get(name).copied().unwrap_or_default()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The trace file: self time and count per span name, the counters, and
    /// the full span tree of the slowest ticks.
    pub fn to_json(&self) -> Value {
        let totals = self.totals.iter().map(|(name, t)| {
            let fields = vec![
                ("count", Value::U64(t.count)),
                ("total_ns", Value::U64(t.total_ns)),
                ("self_ns", Value::U64(t.self_ns)),
            ];
            (*name, obj(fields))
        });
        let counters = self
            .counters
            .iter()
            .map(|(name, n)| (*name, Value::U64(*n)));
        let mut slowest: Vec<&SlowTick> = self.slowest.iter().collect();
        slowest.sort_by_key(|t| std::cmp::Reverse(t.duration_ns()));
        let slowest = slowest.into_iter().map(|t| {
            let spans = t.spans.iter().map(|s| {
                obj(vec![
                    ("name", Value::Str(s.name.to_string())),
                    ("start_ns", Value::U64(s.start_ns)),
                    ("end_ns", Value::U64(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::U64(u64::from(p))),
                    ),
                ])
            });
            obj(vec![
                ("episode", Value::U64(u64::from(t.episode))),
                ("tick", Value::U64(t.tick)),
                ("spans", Value::Array(spans.collect())),
            ])
        });
        obj(vec![
            ("span_totals", obj(totals.collect())),
            ("counters", obj(counters.collect())),
            ("slowest_ticks", Value::Array(slowest.collect())),
        ])
    }
}

/// Runs `f` inside a span when tracing is on.
pub fn span<R>(tracer: Option<&SharedTracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    if let Some(t) = tracer {
        t.borrow_mut().enter(name);
    }
    let out = f();
    if let Some(t) = tracer {
        t.borrow_mut().exit();
    }
    out
}

/// A planner seen from outside: every call the engine makes is a span, and
/// the batch sizes and outcomes are counted where the work happens. Only the
/// non-deprecated `Planner` methods are implemented; events are forwarded
/// through `on_event`.
pub struct TimedPlanner {
    inner: Box<dyn Planner>,
    tracer: SharedTracer,
}

impl TimedPlanner {
    pub fn new(inner: Box<dyn Planner>, tracer: SharedTracer) -> Self {
        TimedPlanner { inner, tracer }
    }

    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut dyn Planner) -> R) -> R {
        self.tracer.borrow_mut().enter(name);
        let out = f(self.inner.as_mut());
        self.tracer.borrow_mut().exit();
        out
    }
}

impl Planner for TimedPlanner {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, instance: &Instance) {
        self.timed("core.init", |p| p.init(instance));
    }

    fn plan(&mut self, world: &WorldView<'_>) -> Result<Vec<AssignmentPlan>, PlannerError> {
        let out = self.timed("core.plan", |p| p.plan(world));
        if let Ok(plans) = &out {
            self.tracer
                .borrow_mut()
                .count("core.assignments", plans.len() as u64);
        }
        out
    }

    fn plan_leg(
        &mut self,
        robot: RobotId,
        from: GridPos,
        to: GridPos,
        start: Tick,
        park: bool,
    ) -> Option<Path> {
        let out = self.timed("core.plan_leg", |p| {
            p.plan_leg(robot, from, to, start, park)
        });
        let mut tracer = self.tracer.borrow_mut();
        tracer.count("core.leg_requests", 1);
        tracer.count("core.legs_blocked", u64::from(out.is_none()));
        out
    }

    fn query_legs(
        &mut self,
        requests: &[LegRequest],
        start: Tick,
        tentative: &mut Vec<TentativeLeg>,
    ) {
        self.timed("core.query_legs", |p| {
            p.query_legs(requests, start, tentative)
        });
    }

    fn commit_legs(
        &mut self,
        requests: &[LegRequest],
        start: Tick,
        tentative: &mut Vec<TentativeLeg>,
        results: &mut Vec<Option<Path>>,
    ) -> Result<(), PlannerError> {
        let out = self.timed("core.commit_legs", |p| {
            p.commit_legs(requests, start, tentative, results)
        });
        let mut tracer = self.tracer.borrow_mut();
        tracer.count("core.leg_requests", requests.len() as u64);
        let blocked = match out {
            Ok(()) => results.iter().filter(|r| r.is_none()).count(),
            Err(_) => requests.len(),
        };
        tracer.count("core.legs_blocked", blocked as u64);
        out
    }

    fn set_parallel_workers(&mut self, workers: usize) {
        self.inner.set_parallel_workers(workers);
    }

    fn on_dock(&mut self, robot: RobotId) {
        self.timed("core.on_dock", |p| p.on_dock(robot));
    }

    fn on_event(&mut self, event: PlannerEvent<'_>) {
        self.timed("core.on_event", |p| p.on_event(event));
    }

    fn inject_fault(&mut self, fault: &InjectedFault) -> bool {
        self.inner.inject_fault(fault)
    }

    fn housekeeping(&mut self, t: Tick) {
        self.timed("core.housekeeping", |p| p.housekeeping(t));
    }

    fn stats(&self) -> PlannerStats {
        self.inner.stats()
    }

    fn export_snapshot(&self) -> serde_json::Value {
        self.inner.export_snapshot()
    }

    fn import_snapshot(&mut self, state: &serde_json::Value) -> Result<(), serde_json::Error> {
        self.inner.import_snapshot(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let tracer = Tracer::shared();
        {
            let mut t = tracer.borrow_mut();
            t.set_id(0, 7);
            t.enter(TICK);
            t.enter("core.plan");
            t.exit();
            t.enter("core.housekeeping");
            t.exit();
            t.exit();
        }
        let t = tracer.borrow();
        let tick = t.total(TICK);
        let children = t.total("core.plan").total_ns + t.total("core.housekeeping").total_ns;
        assert_eq!(tick.count, 1);
        assert_eq!(tick.self_ns, tick.total_ns - children);
        assert_eq!(t.total("core.plan").self_ns, t.total("core.plan").total_ns);
        assert_eq!(t.slowest.len(), 1);
        assert_eq!(t.slowest[0].tick, 7);
        assert_eq!(t.slowest[0].spans[1].parent, Some(0));
    }

    #[test]
    fn only_the_slowest_ticks_keep_their_trees() {
        let tracer = Tracer::shared();
        let mut t = tracer.borrow_mut();
        for tick in 0..(SLOWEST_TICKS as u64 + 50) {
            t.set_id(0, tick);
            t.enter(TICK);
            t.exit();
        }
        assert_eq!(t.slowest.len(), SLOWEST_TICKS);
        assert_eq!(t.total(TICK).count, SLOWEST_TICKS as u64 + 50);
    }
}
