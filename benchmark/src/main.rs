//! The repo's benchmark. Three ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload; the last line of stdout is the result object `BENCHMARK.json`
//!   describes (end-to-end metrics untraced, per-layer metrics traced);
//! * `run [--seed N] [--seconds S]` — every workload, three untraced runs
//!   interleaved plus one traced run each, one child process at a time;
//!   prints every metric and writes `benchmark/out/latest.json`;
//! * `compare A.json B.json` — two `latest.json` files against the bounds.
//!
//! See `benchmark/README.md` for what is measured and why.

mod episode;
mod probes;
mod report;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde_json::Value;

use episode::{run_episode, setup_only, Episode};
use report::{metrics_json, obj, unit_of, Metrics};
use trace::Tracer;
use workloads::{Workload, ROUND};

/// `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: f64 = 20.0;
/// What one round of episodes took on the host the benchmark was recorded on.
/// `--seconds` buys whole rounds at this price and nothing else: how much work
/// a run does must not depend on how fast the code under test is, or a faster
/// commit would be measured on more floors than its parent.
const ROUND_SECONDS: f64 = 10.0;
/// The default `--seed`; 92 is the held-out seed.
const DEFAULT_SEED: u64 = 91;
/// A run reports the median of at least this many set-ups.
const MIN_SETUPS: usize = 9;
/// Everything the benchmark writes goes here, relative to the checkout root.
pub const OUT_DIR: &str = "benchmark/out";

pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value}: not a number");
        match flag.as_str() {
            "--workload" => o.workload = Some(value.clone()),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => o.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => o.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !o.seconds.is_finite() || o.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(o)
}

/// What one run of one workload produced.
struct RunResult {
    metrics: Metrics,
    violations: Vec<String>,
    episodes: Vec<Episode>,
}

/// Rounds of episodes a run of `seconds` executes.
fn rounds(seconds: f64) -> u32 {
    ((seconds / ROUND_SECONDS).round() as u32).max(1)
}

/// Runs the episodes of `w` that `--seconds` buys. A traced run executes
/// every floor twice, traced and bare, so it covers half the rounds in the
/// same time.
fn run_workload(w: &Workload, o: &Options) -> RunResult {
    let tracer = o.trace.then(Tracer::shared);
    let rounds = match tracer {
        None => rounds(o.seconds),
        Some(_) => (rounds(o.seconds) / 2).max(1),
    };
    let mut episodes: Vec<Episode> = Vec::new();
    // Traced ÷ bare time − 1 of each floor a traced run executes both ways.
    let mut overheads: Vec<f64> = Vec::new();
    let mut twin_differs = Vec::new();
    for index in 0..ROUND * rounds {
        let run = |tracer| run_episode(w, o.seed, index, tracer);
        let ep = if tracer.is_some() {
            // Back to back and alternating which goes first: the median pair
            // gives the tracing overhead free of host drift and of a burst
            // that hits one episode, and every pair shows that the wrapper
            // changes no simulated output.
            let (ep, bare) = if index.is_multiple_of(2) {
                let ep = run(tracer.as_ref());
                (ep, run(None))
            } else {
                let bare = run(None);
                (run(tracer.as_ref()), bare)
            };
            overheads.push(ep.run_s / bare.run_s - 1.0);
            if ep.fingerprint != bare.fingerprint {
                twin_differs.push(format!("episode {index}: traced and bare runs differ"));
            }
            ep
        } else {
            run(None)
        };
        episodes.push(ep);
    }
    let violations: Vec<String> = episodes
        .iter()
        .flat_map(|e| {
            e.violations
                .iter()
                .map(move |v| format!("episode {}: {v}", e.index))
        })
        .chain(twin_differs)
        .chain(report::p99_problems(&episodes))
        .collect();

    let metrics = match &tracer {
        None => {
            let mut setups: Vec<f64> = episodes.iter().map(|e| e.setup.total()).collect();
            while setups.len() < MIN_SETUPS {
                setups.push(setup_only(w, o.seed, setups.len() as u32).total());
            }
            report::end_to_end(&episodes, &setups)
        }
        Some(tracer) => {
            let probes = probes::run(w, o.seed);
            let tracer = tracer.borrow();
            write_json(
                &Path::new(OUT_DIR).join(format!("trace-{}.json", w.name)),
                &tracer.to_json(),
            );
            report::per_layer(&episodes, &tracer, &probes, stats::median(&overheads))
        }
    };
    RunResult {
        metrics,
        violations,
        episodes,
    }
}

pub fn write_json(path: &Path, value: &Value) {
    let dir = path.parent().expect("output files live in a directory");
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let text = serde_json::to_string_pretty(value).expect("value trees always print");
    std::fs::write(path, text + "\n").unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// Where a single run leaves its full result for the suite to pick up.
pub fn run_file(workload: &str, trace: bool) -> PathBuf {
    Path::new(OUT_DIR).join(format!("run-{workload}-trace{}.json", u8::from(trace)))
}

/// One run of one workload: prints the metrics, then the result line.
fn single(w: &Workload, o: &Options) -> ExitCode {
    let r = run_workload(w, o);
    let correct = r.violations.is_empty();
    let attempted: u64 = r.episodes.iter().map(|e| e.orders.submitted).sum();
    let failed: u64 = r.episodes.iter().map(|e| e.orders.failed).sum();
    println!(
        "{} seed {} trace {}: {} episodes, {attempted} orders, {failed} failed",
        w.name,
        o.seed,
        u8::from(o.trace),
        r.episodes.len(),
    );
    for (name, value) in &r.metrics {
        println!("  {name:<46} {value:>16.4} {}", unit_of(name));
    }
    for v in &r.violations {
        eprintln!("INCORRECT {}: {v}", w.name);
    }
    let result = vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        ("metrics", metrics_json(&r.metrics)),
    ];
    let episodes = r
        .episodes
        .iter()
        .map(|e| {
            obj(vec![
                ("index", Value::U64(u64::from(e.index))),
                (
                    "fingerprint_fnv64",
                    Value::Str(format!("{:016x}", e.fingerprint)),
                ),
                ("makespan_ticks", Value::U64(e.report.makespan)),
                ("ticks", Value::U64(e.tick_ns.len() as u64)),
                ("orders_completed", Value::U64(e.orders.completed)),
                ("setup_s", Value::F64(e.setup.total())),
                ("run_s", Value::F64(e.run_s)),
                ("cpu_s", Value::F64(e.cpu_s)),
            ])
        })
        .collect();
    let mut full = result.clone();
    full.extend([
        ("workload", Value::Str(w.name.to_string())),
        ("seed", Value::U64(o.seed)),
        ("episodes", Value::Array(episodes)),
    ]);
    write_json(&run_file(w.name, o.trace), &obj(full));
    println!(
        "{}",
        serde_json::to_string(&obj(result)).expect("value trees always print")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: tprw-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      tprw-benchmark run [--seed N] [--seconds S]\n\
         \x20      tprw-benchmark compare <A.json> <B.json>\n\
         workloads: {}",
        workloads::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = match args.first().map(String::as_str) {
        Some("compare") => {
            return match &args[1..] {
                [a, b] => suite::compare(Path::new(a), Path::new(b)),
                _ => usage(),
            }
        }
        Some("run") => &args[1..],
        _ => &args[..],
    };
    let o = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    match &o.workload {
        None => suite::run(&o),
        Some(name) => match workloads::by_name(name) {
            Some(w) => single(w, &o),
            None => {
                eprintln!("unknown workload {name}");
                usage()
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_length_follows_from_seconds_alone() {
        assert_eq!(rounds(RUN_SECONDS), 2);
        assert_eq!(rounds(1.0), 1, "never an empty run");
        assert_eq!(rounds(14.9), 1);
        assert_eq!(rounds(60.0), 6);
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let o = parse_options(&args("--workload w --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!((o.seed, o.seconds, o.trace), (7, 20.0, true));
        assert!(parse_options(&args("--reps 2")).is_err(), "no such option");
        assert!(parse_options(&args("--seconds 0")).is_err());
    }
}
