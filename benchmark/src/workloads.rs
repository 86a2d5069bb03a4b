//! The four workloads and the seeded order stream each episode is fed.
//!
//! A run is a sequence of *episodes*: full simulations of one floor, a third
//! of the paper's order count on the paper's floor and fleet. Episodes come
//! in rounds of [`ROUND`]: the first of a round runs on a floor derived from
//! `--seed`, the others on the workload's fixed anchor floors. On these
//! congested floors the work of an episode varies by ±30% with the floor
//! (failed searches cascade), and a run fits some eight episodes; were all of
//! them seeded, the seed alone would move every timing metric by more than
//! its bound. How many rounds a run executes follows from `--seconds` alone.

use tprw_simulator::{Command, OrderSpec, SequencedCommand, TickBatch};
use tprw_warehouse::{
    ArrivalProfile, DisruptionConfig, Instance, LayoutConfig, OrderId, ScenarioSpec, Tick,
    WorkloadConfig,
};

use crate::stats::{mix, SplitMix};

/// Seed streams derived per episode (salts for [`mix`]).
const STREAM_SCENARIO: u64 = 1;
const STREAM_LEADS: u64 = 2;

/// Episodes per round: one seeded, the rest anchors.
pub const ROUND: u32 = 4;
/// What the anchor floors derive from in place of `--seed`.
const ANCHOR_SEED: u64 = 0x00A7_C402;

/// The dynamic part of `surge-live-eatp`: how the order stream is delivered.
#[derive(Debug, Clone, Copy)]
pub struct ServiceMix {
    /// Orders are submitted a seeded `0..=max_lead` ticks before they are due.
    pub max_lead: Tick,
    /// One order in `cancel_one_in` with a lead ≥ 2 is cancelled while it is
    /// still backlogged.
    pub cancel_one_in: u64,
    /// A `RequestSnapshot` lands every this many ticks.
    pub snapshot_every: Tick,
}

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub planner: &'static str,
    /// Orders per episode.
    pub orders: usize,
    pub spec: fn(usize, u64) -> ScenarioSpec,
    /// `Some` streams commands from a producer thread through a bounded
    /// `ServiceQueue`; `None` hands each tick its batch inline.
    pub service: Option<ServiceMix>,
}

fn paper_floor(name: &str, workload: WorkloadConfig, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: name.into(),
        layout: LayoutConfig {
            width: 200,
            height: 200,
            border_walls: true,
            ..LayoutConfig::default()
        },
        n_racks: 2000,
        n_robots: 500,
        n_pickers: 24,
        workload,
        disruptions: None,
        seed,
    }
}

fn paper_steady(orders: usize, seed: u64) -> ScenarioSpec {
    paper_floor("paper-steady", WorkloadConfig::poisson(orders, 4.0), seed)
}

fn surge_live(orders: usize, seed: u64) -> ScenarioSpec {
    let mut spec = paper_floor(
        "surge-live",
        WorkloadConfig {
            n_items: orders,
            profile: ArrivalProfile::Surge {
                base_rate: 2.0,
                multipliers: vec![0.5, 3.0],
                phase_len: 100,
            },
            processing_min: 8,
            processing_max: 16,
            rack_skew: 0.8,
            skew_cap: 8.0,
        },
        seed,
    );
    spec.disruptions = Some(DisruptionConfig {
        breakdowns: 62,
        breakdown_ticks: (100, 300),
        blockades: 30,
        blockade_ticks: (150, 400),
        closures: 4,
        closure_ticks: (150, 300),
        removals: 20,
        removal_ticks: (100, 250),
        window: (50, 1000),
    });
    spec
}

fn quiet_fleet(orders: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "quiet-fleet".into(),
        layout: LayoutConfig::sized(200, 200),
        n_racks: 400,
        n_robots: 500,
        n_pickers: 12,
        workload: WorkloadConfig::poisson(orders, 0.002),
        disruptions: None,
        seed,
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper-steady-eatp",
        why: "the paper's headline floor (walled 200x200, 500 robots) under EATP: CDT, path-cache splicing and KNN A* do ~98% of the work",
        planner: "EATP",
        orders: 400,
        spec: paper_steady,
        service: None,
    },
    Workload {
        name: "paper-steady-atp",
        why: "the identical floors and order streams under ATP: STG reservations, no cache, no KNN, so a pathfinding change that helps one reservation layer and costs the other shows",
        planner: "ATP",
        orders: 400,
        spec: paper_steady,
        service: None,
    },
    Workload {
        name: "surge-live-eatp",
        why: "time-varying arrivals with 116 disruptions, streamed by a producer thread with leads, cancels and snapshots: command drain, backlog, event replay, invalidation and replans the steady floors bypass",
        planner: "EATP",
        orders: 500,
        spec: surge_live,
        service: Some(ServiceMix {
            max_lead: 60,
            cancel_one_in: 50,
            snapshot_every: 400,
        }),
    },
    Workload {
        name: "quiet-fleet-eatp",
        why: "a trickle of orders on an open floor: fixed per-tick engine cost is ~85% of the time and pathfinding ~9%, so a pathfinding change must show no change here and an engine change must show",
        planner: "EATP",
        orders: 400,
        spec: quiet_fleet,
        service: None,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seed every input of episode `index` of a run on `seed` derives from.
pub fn episode_seed(seed: u64, index: u32) -> u64 {
    if index.is_multiple_of(ROUND) {
        mix(seed, u64::from(index / ROUND))
    } else {
        mix(ANCHOR_SEED, u64::from(index))
    }
}

/// The `ScenarioSpec` seed of an episode. Workloads that share a `spec`
/// function share their floors and order streams.
pub fn scenario_seed(episode_seed: u64) -> u64 {
    mix(episode_seed, STREAM_SCENARIO)
}

/// What the harness planned for one order (index = order id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedOrder {
    /// The tick the order is due to arrive; latency counts from here.
    pub due: Tick,
    /// The tick its `SubmitOrder` is delivered (`≤ due`).
    pub submit: Tick,
    /// The tick its `CancelOrder` is delivered, if it is to be cancelled.
    pub cancel: Option<Tick>,
}

/// What a sequence number stood for, so `Ack::Rejected` can be attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sent {
    Submit(usize),
    Cancel(usize),
    Snapshot,
    Shutdown,
}

/// The command stream of one episode, in increasing tick order.
pub struct Script {
    pub batches: Vec<TickBatch>,
    pub orders: Vec<PlannedOrder>,
    /// Index = sequence number.
    pub sent: Vec<Sent>,
}

/// Snapshot requests are scripted up to this tick; a run that finishes
/// earlier never sees the tail.
const SNAPSHOT_HORIZON: Tick = 6_000;

impl Script {
    /// Turns the instance's pregenerated items into live commands: order id =
    /// item index, identical rack / processing / arrival. `Shutdown` follows
    /// the last order command.
    pub fn build(instance: &Instance, service: Option<ServiceMix>, episode_seed: u64) -> Self {
        let mut rng = SplitMix(mix(episode_seed, STREAM_LEADS));
        let orders: Vec<PlannedOrder> = instance
            .items
            .iter()
            .map(|item| {
                let due = item.arrival;
                let (lead, cancel_one_in) = match service {
                    Some(svc) => (rng.below(svc.max_lead + 1).min(due), svc.cancel_one_in),
                    None => (0, 0),
                };
                let submit = due - lead;
                // Cancelled strictly before it is due, so it is still backlogged.
                let cancel = (lead >= 2 && rng.below(cancel_one_in) == 0)
                    .then(|| submit + 1 + rng.below(lead - 1));
                PlannedOrder {
                    due,
                    submit,
                    cancel,
                }
            })
            .collect();

        let mut timeline: Vec<(Tick, Sent)> = Vec::new();
        for (i, o) in orders.iter().enumerate() {
            timeline.push((o.submit, Sent::Submit(i)));
            if let Some(t) = o.cancel {
                timeline.push((t, Sent::Cancel(i)));
            }
        }
        let last = timeline.iter().map(|(t, _)| *t).max().unwrap_or(0);
        timeline.push((last, Sent::Shutdown));
        if let Some(svc) = service {
            let every = svc.snapshot_every;
            timeline.extend((1..=SNAPSHOT_HORIZON / every).map(|k| (k * every, Sent::Snapshot)));
        }
        // Stable: within a tick, orders by id, then the shutdown, then a snapshot.
        timeline.sort_by_key(|(t, _)| *t);

        let mut batches: Vec<TickBatch> = Vec::new();
        let mut sent = Vec::with_capacity(timeline.len());
        for (seq, (tick, what)) in timeline.into_iter().enumerate() {
            let command = match what {
                Sent::Submit(i) => {
                    let item = &instance.items[i];
                    Command::SubmitOrder {
                        spec: OrderSpec {
                            order: OrderId::new(i),
                            rack: item.rack,
                            processing: item.processing,
                            arrival: item.arrival,
                        },
                    }
                }
                Sent::Cancel(i) => Command::CancelOrder {
                    order: OrderId::new(i),
                },
                Sent::Snapshot => Command::RequestSnapshot,
                Sent::Shutdown => Command::Shutdown,
            };
            let command = SequencedCommand {
                seq: seq as u64,
                command,
            };
            match batches.last_mut() {
                Some(batch) if batch.tick == tick => batch.commands.push(command),
                _ => batches.push(TickBatch {
                    tick,
                    commands: vec![command],
                }),
            }
            sent.push(what);
        }
        Script {
            batches,
            orders,
            sent,
        }
    }
}

/// A private floor small enough for debug-build tests.
#[cfg(test)]
pub fn tiny_floor(orders: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "tiny".into(),
        layout: LayoutConfig::sized(32, 20),
        n_racks: 12,
        n_robots: 6,
        n_pickers: 3,
        workload: WorkloadConfig::poisson(orders, 0.5),
        disruptions: None,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(orders: usize, seed: u64) -> Instance {
        tiny_floor(orders, seed).build().unwrap()
    }

    #[test]
    fn episode_seeds_are_seeded_once_a_round_and_anchored_otherwise() {
        assert_eq!(episode_seed(91, 0), episode_seed(91, 0));
        assert_ne!(episode_seed(91, 0), episode_seed(92, 0));
        assert_ne!(episode_seed(91, 0), episode_seed(91, ROUND));
        assert_ne!(episode_seed(91, ROUND), episode_seed(92, ROUND));
        for index in (0..3 * ROUND).filter(|i| i % ROUND != 0) {
            assert_eq!(episode_seed(91, index), episode_seed(92, index), "anchor");
        }
        let all: std::collections::BTreeSet<u64> =
            (0..3 * ROUND).map(|i| episode_seed(91, i)).collect();
        assert_eq!(all.len(), 3 * ROUND as usize, "no floor runs twice");
        // The two steady workloads share floors: same spec function, same seed.
        let eatp = by_name("paper-steady-eatp").unwrap();
        let atp = by_name("paper-steady-atp").unwrap();
        let seed = scenario_seed(episode_seed(91, 2));
        assert_eq!((eatp.spec)(40, seed), (atp.spec)(40, seed));
    }

    #[test]
    fn inline_script_submits_each_order_when_due_then_shuts_down() {
        let inst = tiny(30, 5);
        let script = Script::build(&inst, None, 91);
        assert_eq!(script.orders.len(), 30);
        assert!(script
            .orders
            .iter()
            .all(|o| o.submit == o.due && o.cancel.is_none()));
        assert_eq!(script.sent.len(), 31);
        assert_eq!(*script.sent.last().unwrap(), Sent::Shutdown);
        let ticks: Vec<Tick> = script.batches.iter().map(|b| b.tick).collect();
        assert!(ticks.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        let seqs: Vec<u64> = script
            .batches
            .iter()
            .flat_map(|b| b.commands.iter().map(|c| c.seq))
            .collect();
        assert_eq!(seqs, (0..31).collect::<Vec<u64>>());
    }

    #[test]
    fn service_script_leads_cancels_and_snapshots_are_seeded() {
        let inst = tiny(400, 6);
        let svc = ServiceMix {
            max_lead: 60,
            cancel_one_in: 10,
            snapshot_every: 400,
        };
        let a = Script::build(&inst, Some(svc), 91);
        let b = Script::build(&inst, Some(svc), 91);
        assert_eq!(a.orders, b.orders);
        assert_ne!(a.orders, Script::build(&inst, Some(svc), 92).orders);
        assert!(a
            .orders
            .iter()
            .all(|o| o.submit <= o.due && o.due - o.submit <= 60));
        let cancels: Vec<&PlannedOrder> = a.orders.iter().filter(|o| o.cancel.is_some()).collect();
        assert!(!cancels.is_empty());
        for o in cancels {
            let t = o.cancel.unwrap();
            assert!(o.submit < t && t < o.due, "cancelled while backlogged");
        }
        assert_eq!(
            a.sent.iter().filter(|s| **s == Sent::Snapshot).count() as u64,
            SNAPSHOT_HORIZON / 400
        );
        // Shutdown follows every order command.
        let shutdown = a.sent.iter().position(|s| *s == Sent::Shutdown).unwrap();
        assert!(a.sent[shutdown..]
            .iter()
            .all(|s| matches!(s, Sent::Shutdown | Sent::Snapshot)));
    }
}
