//! Every workload in one go (`run`), and two such results against the
//! bounds (`compare`).

use std::path::Path;
use std::process::{Command, ExitCode};

use serde_json::Value;

use crate::report::{obj, Better, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::workloads::WORKLOADS;
use crate::{run_file, write_json, Options, OUT_DIR};

/// Untraced runs of each workload; their median is what `run` reports.
const REPS: usize = 3;

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload once in a child process and returns its full result.
fn child(o: &Options, workload: &str, trace: bool) -> Result<Value, String> {
    eprintln!("  {workload} trace {} ...", u8::from(trace));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("{workload} trace {}: {status}", u8::from(trace)));
    }
    read_json(&run_file(workload, trace))
}

/// `index → fingerprint` of the episodes one run executed.
fn fingerprints(run: &Value) -> Vec<String> {
    let Some(Value::Array(episodes)) = run.get("episodes") else {
        return Vec::new();
    };
    episodes
        .iter()
        .filter_map(|e| match e.get("fingerprint_fnv64") {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

fn metric(run: &Value, name: &str) -> f64 {
    run.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(number)
        .unwrap_or_else(|| panic!("run result lacks {name}"))
}

pub fn run(o: &Options) -> ExitCode {
    eprintln!(
        "{} workloads x ({REPS} untraced + 1 traced) runs of {} s, seed {}",
        WORKLOADS.len(),
        o.seconds,
        o.seed
    );
    // Round-robin, so drift of the host spreads evenly over the workloads.
    let mut untraced: Vec<Vec<Value>> = vec![Vec::new(); WORKLOADS.len()];
    let mut traced: Vec<Value> = Vec::new();
    for trace in [false, true] {
        for _ in 0..if trace { 1 } else { REPS } {
            for (i, w) in WORKLOADS.iter().enumerate() {
                match child(o, w.name, trace) {
                    Ok(run) if trace => traced.push(run),
                    Ok(run) => untraced[i].push(run),
                    Err(e) => {
                        eprintln!("FAILED {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }

    let mut ok = true;
    let mut out = Vec::new();
    for ((w, reps), traced) in WORKLOADS.iter().zip(&untraced).zip(&traced) {
        println!("\n{} — {}", w.name, w.why);
        // The traced run executes the first half of the untraced runs'
        // episodes, so every run of a workload must agree index by index.
        let longest = reps
            .iter()
            .chain([traced])
            .map(fingerprints)
            .max_by_key(Vec::len)
            .expect("at least one run");
        for run in reps.iter().chain([traced]) {
            let fp = fingerprints(run);
            if fp[..] != longest[..fp.len()] {
                println!("  FINGERPRINTS DIFFER: {fp:?} vs {longest:?}");
                ok = false;
            }
        }
        println!("  fingerprint_fnv64 per episode: {}", longest.join(" "));

        let mut end_to_end = Vec::new();
        for m in &END_TO_END {
            let values: Vec<f64> = reps.iter().map(|r| metric(r, m.name)).collect();
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let mid = median(&values);
            println!(
                "  {:<46} {mid:>16.4} {:<8} [{lo:.4} .. {hi:.4}] n={}",
                m.name,
                m.unit,
                values.len()
            );
            end_to_end.push((
                m.name,
                obj(vec![
                    ("unit", Value::Str(m.unit.to_string())),
                    ("median", Value::F64(mid)),
                    ("min", Value::F64(lo)),
                    ("max", Value::F64(hi)),
                    (
                        "values",
                        Value::Array(values.into_iter().map(Value::F64).collect()),
                    ),
                ]),
            ));
        }
        let mut per_layer = Vec::new();
        for (name, unit, _) in &PER_LAYER {
            let value = metric(traced, name);
            println!("  {name:<46} {value:>16.4} {unit}");
            per_layer.push((*name, Value::F64(value)));
        }

        out.push(obj(vec![
            ("name", Value::Str(w.name.to_string())),
            (
                "fingerprints",
                Value::Array(longest.into_iter().map(Value::Str).collect()),
            ),
            ("end_to_end", obj(end_to_end)),
            ("per_layer", obj(per_layer)),
        ]));
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let path = Path::new(OUT_DIR).join("latest.json");
    write_json(
        &path,
        &obj(vec![
            ("seed", Value::U64(o.seed)),
            ("seconds", Value::F64(o.seconds)),
            ("reps", Value::U64(REPS as u64)),
            (
                "host",
                obj(vec![
                    ("nproc", Value::U64(nproc as u64)),
                    ("unix_time", Value::U64(unix_time)),
                ]),
            ),
            ("workloads", Value::Array(out)),
        ]),
    );
    println!("\nwrote {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Judges one metric of one workload: `a` are the base's runs, `b` the
/// change's. A metric whose run-to-run spread is wider than its bound is
/// unresolved unless the two sets of runs do not even overlap.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    // Orient so that larger is worse.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = sign * (median(b) - median(a)) / median(a).abs();
    // The spread rule the bounds are checked with: interquartile distance
    // as a share of the median (the whole range for three runs).
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / median(v).abs()
    };
    let worst = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::MIN, f64::max);
    let best = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::MAX, f64::min);
    if spread(a).max(spread(b)) > bound {
        if worst(b) < best(a) {
            Verdict::Ok
        } else if best(b) > worst(a) && worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn values_of(workload: &Value, name: &str) -> Option<Vec<f64>> {
    match workload.get("end_to_end")?.get(name)?.get("values")? {
        Value::Array(v) => v.iter().map(number).collect(),
        _ => None,
    }
}

pub fn compare(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (read_json(a_path), read_json(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::from(2);
        }
    };
    // Another seed or run length is another set of floors: nothing to compare.
    for key in ["seed", "seconds"] {
        if a.get(key) != b.get(key) {
            eprintln!("the two files were recorded with different --{key}");
            return ExitCode::from(2);
        }
    }
    let workloads = |v: &Value| match v.get("workloads") {
        Some(Value::Array(w)) => w.clone(),
        _ => Vec::new(),
    };
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    let mut regressed = false;
    for (wa, wb) in workloads(&a).iter().zip(&workloads(&b)) {
        let name = match wa.get("name") {
            Some(Value::Str(s)) if wb.get("name") == wa.get("name") => s.clone(),
            _ => {
                eprintln!("the two files do not list the same workloads");
                return ExitCode::from(2);
            }
        };
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (values_of(wa, m.name), values_of(wb, m.name)) else {
                eprintln!("{name}: {} missing", m.name);
                return ExitCode::from(2);
            };
            if va.len().min(vb.len()) < 2 {
                eprintln!("{name}: {} has fewer than two runs, so no spread", m.name);
                return ExitCode::from(2);
            }
            let verdict = judge(&va, &vb, m.better, m.bound);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{name:<18} {:<16} {:>14.4} {:>14.4} {:>9.4} {:>6.2}  {}",
                m.name,
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                m.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let same = wa.get("fingerprints") == wb.get("fingerprints");
        println!(
            "{name:<18} simulated outputs (fingerprints) {}",
            if same { "identical" } else { "differ" }
        );
    }
    println!("ratios are B/A; the base A is {}", a_path.display());
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_the_bound_in_the_metric_s_direction() {
        let a = [10.0, 10.1, 9.9];
        assert_eq!(
            judge(&a, &[10.5, 10.6, 10.4], Better::Lower, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[11.5, 11.6, 11.4], Better::Lower, 0.1),
            Verdict::Regressed
        );
        // The same numbers are an improvement when higher is better.
        assert_eq!(
            judge(&a, &[11.5, 11.6, 11.4], Better::Higher, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[8.5, 8.6, 8.4], Better::Higher, 0.1),
            Verdict::Regressed
        );
    }

    #[test]
    fn judge_reports_wide_spreads_as_unresolved_unless_the_runs_are_disjoint() {
        let noisy = [10.0, 12.0, 8.0];
        assert_eq!(
            judge(&noisy, &[10.0, 10.1, 9.9], Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[7.0, 7.5, 6.0], Better::Lower, 0.1),
            Verdict::Ok,
            "every run of B beats every run of A"
        );
        assert_eq!(
            judge(&noisy, &[13.0, 14.0, 15.0], Better::Lower, 0.1),
            Verdict::Regressed,
            "every run of B is worse than every run of A"
        );
    }
}
