//! CI perf-regression gate: diffs a fresh bench JSON against a committed
//! baseline from `bench_results/` and fails on significant regressions.
//!
//! ```text
//! bench_compare --baseline bench_results/serve-tiny.json \
//!               --fresh    bench_fresh/serve-tiny.json   \
//!               [--threshold 30] [--inflate-baseline 1.0]
//! ```
//!
//! The two files must come from the same harness at the same scale; the
//! tool walks both JSON trees in lockstep and compares every metric leaf
//! it recognizes:
//!
//! * object values keyed `throughput_qps` — higher is better. These are
//!   wall-clock and therefore noisy on shared CI runners, which is why
//!   the default threshold is a generous 30%.
//! * two-element `[label, seconds]` pairs (the fig7 harness's per-kernel
//!   device times) — lower is better. These are *simulated* seconds, so
//!   they are deterministic: any drift beyond float noise is a real
//!   change in modeled behavior.
//!
//! Exit status: 0 when every metric is within the threshold, 1 on any
//! regression, 2 when the files cannot be read/parsed or no comparable
//! metric was found (a structural mismatch must not silently pass).
//!
//! `--inflate-baseline <factor>` rescales every baseline metric to look
//! `factor`× better before comparing. CI's bench-smoke job uses it as a
//! negative self-test: with factor 10 the gate must fail, proving the
//! comparison is actually wired to the data.

#![forbid(unsafe_code)]

use serde_json::Value;
use std::process::exit;

/// One comparable leaf found in both trees.
#[derive(Debug, PartialEq)]
struct Metric {
    path: String,
    baseline: f64,
    fresh: f64,
    higher_is_better: bool,
}

fn as_number(v: &Value) -> Option<f64> {
    match *v {
        Value::UInt(u) => Some(u as f64),
        Value::Int(i) => Some(i as f64),
        Value::Float(f) => Some(f),
        _ => None,
    }
}

/// `[label, number]` — the fig7 harness's per-kernel seconds pair.
fn as_seconds_pair(v: &Value) -> Option<(&str, f64)> {
    match v {
        Value::Array(items) if items.len() == 2 => match &items[0] {
            Value::String(label) => as_number(&items[1]).map(|n| (label.as_str(), n)),
            _ => None,
        },
        _ => None,
    }
}

/// Display segment for an array element: its `name` field when it has
/// one (serve scenarios), else its position.
fn segment(v: &Value, index: usize) -> String {
    match v.get("name") {
        Some(Value::String(name)) => name.clone(),
        _ => index.to_string(),
    }
}

/// Walks `baseline` and `fresh` in lockstep, collecting comparable
/// leaves into `out` and structural mismatches into `mismatches`.
fn walk(
    path: &str,
    baseline: &Value,
    fresh: &Value,
    out: &mut Vec<Metric>,
    mismatches: &mut Vec<String>,
) {
    if let (Some((label, b)), Some((_, f))) = (as_seconds_pair(baseline), as_seconds_pair(fresh)) {
        out.push(Metric {
            path: format!("{path}.{label}"),
            baseline: b,
            fresh: f,
            higher_is_better: false,
        });
        return;
    }
    match (baseline, fresh) {
        (Value::Object(base_fields), Value::Object(_)) => {
            for (key, bv) in base_fields {
                let p = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                match fresh.get(key) {
                    Some(fv) if key == "throughput_qps" => {
                        if let (Some(b), Some(f)) = (as_number(bv), as_number(fv)) {
                            out.push(Metric {
                                path: p,
                                baseline: b,
                                fresh: f,
                                higher_is_better: true,
                            });
                        }
                    }
                    Some(fv) => walk(&p, bv, fv, out, mismatches),
                    None => mismatches.push(format!("{p}: missing from fresh results")),
                }
            }
        }
        (Value::Array(bs), Value::Array(fs)) => {
            if bs.len() != fs.len() {
                mismatches.push(format!(
                    "{path}: baseline has {} entries, fresh has {}",
                    bs.len(),
                    fs.len()
                ));
            }
            for (i, (bv, fv)) in bs.iter().zip(fs).enumerate() {
                let p = format!("{path}[{}]", segment(bv, i));
                walk(&p, bv, fv, out, mismatches);
            }
        }
        // Scalar leaves that are not recognized metrics: nothing to do.
        _ => {}
    }
}

/// Relative change of `fresh` vs `baseline`, signed so that positive is
/// always an improvement.
fn improvement(m: &Metric) -> f64 {
    if m.baseline == 0.0 {
        return 0.0;
    }
    let change = (m.fresh - m.baseline) / m.baseline;
    if m.higher_is_better {
        change
    } else {
        -change
    }
}

struct Args {
    baseline: String,
    fresh: String,
    threshold_pct: f64,
    inflate: f64,
}

const USAGE: &str = "usage: bench_compare --baseline <json> --fresh <json> \
                     [--threshold <pct>] [--inflate-baseline <factor>]";

fn take(argv: &[String], i: &mut usize, name: &str) -> String {
    *i += 1;
    argv.get(*i)
        .unwrap_or_else(|| {
            eprintln!("{name} needs a value\n{USAGE}");
            exit(2);
        })
        .clone()
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let mut baseline = None;
    let mut fresh = None;
    let mut threshold_pct = 30.0;
    let mut inflate = 1.0;
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--baseline" => baseline = Some(take(&argv, &mut i, "--baseline")),
            "--fresh" => fresh = Some(take(&argv, &mut i, "--fresh")),
            "--threshold" => {
                threshold_pct = take(&argv, &mut i, "--threshold").parse().unwrap_or_else(|e| {
                    eprintln!("--threshold: {e}");
                    exit(2);
                })
            }
            "--inflate-baseline" => {
                inflate = take(&argv, &mut i, "--inflate-baseline").parse().unwrap_or_else(|e| {
                    eprintln!("--inflate-baseline: {e}");
                    exit(2);
                })
            }
            other => {
                eprintln!("unknown argument {other:?}\n{USAGE}");
                exit(2);
            }
        }
        i += 1;
    }
    match (baseline, fresh) {
        (Some(baseline), Some(fresh)) => {
            if threshold_pct <= 0.0 || inflate <= 0.0 {
                eprintln!("--threshold and --inflate-baseline must be positive");
                exit(2);
            }
            Args { baseline, fresh, threshold_pct, inflate }
        }
        _ => {
            eprintln!("{USAGE}");
            exit(2);
        }
    }
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(2);
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        exit(2);
    })
}

fn main() {
    let args = parse_args();
    let baseline = load(&args.baseline);
    let fresh = load(&args.fresh);

    let mut metrics = Vec::new();
    let mut mismatches = Vec::new();
    walk("", &baseline, &fresh, &mut metrics, &mut mismatches);
    for m in &mismatches {
        eprintln!("warning: {m}");
    }
    if metrics.is_empty() {
        eprintln!(
            "no comparable metrics between {} and {} — wrong files?",
            args.baseline, args.fresh
        );
        exit(2);
    }

    // The negative self-test: make the baseline look `inflate`× better.
    if args.inflate != 1.0 {
        eprintln!("[baseline inflated {}x for the gate self-test]", args.inflate);
        for m in &mut metrics {
            if m.higher_is_better {
                m.baseline *= args.inflate;
            } else {
                m.baseline /= args.inflate;
            }
        }
    }

    let threshold = args.threshold_pct / 100.0;
    let mut regressions = 0usize;
    println!("{:<60} {:>14} {:>14} {:>9}  status", "metric", "baseline", "fresh", "change");
    for m in &metrics {
        let imp = improvement(m);
        let regressed = imp < -threshold;
        if regressed {
            regressions += 1;
        }
        println!(
            "{:<60} {:>14.6} {:>14.6} {:>+8.1}%  {}",
            m.path,
            m.baseline,
            m.fresh,
            imp * 100.0,
            if regressed { "REGRESSED" } else { "ok" }
        );
    }
    println!(
        "{} metrics compared, {} regression(s) beyond {:.0}%",
        metrics.len(),
        regressions,
        args.threshold_pct
    );
    if regressions > 0 {
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(baseline: &str, fresh: &str) -> (Vec<Metric>, Vec<String>) {
        let b: Value = serde_json::from_str(baseline).unwrap();
        let f: Value = serde_json::from_str(fresh).unwrap();
        let mut metrics = Vec::new();
        let mut mismatches = Vec::new();
        walk("", &b, &f, &mut metrics, &mut mismatches);
        (metrics, mismatches)
    }

    #[test]
    fn finds_throughput_leaves_by_scenario_name() {
        let base = r#"[{"name": "singles-auto", "stats": {"throughput_qps": 1000.0}}]"#;
        let fresh = r#"[{"name": "singles-auto", "stats": {"throughput_qps": 900.0}}]"#;
        let (metrics, mismatches) = collect(base, fresh);
        assert!(mismatches.is_empty());
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].path, "[singles-auto].stats.throughput_qps");
        assert!(metrics[0].higher_is_better);
        assert!((improvement(&metrics[0]) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn finds_fig7_seconds_pairs_as_lower_better() {
        let base = r#"[["Covertype", 30, [["csr", 0.4], ["fil", 0.1]]]]"#;
        let fresh = r#"[["Covertype", 30, [["csr", 0.2], ["fil", 0.2]]]]"#;
        let (metrics, _) = collect(base, fresh);
        assert_eq!(metrics.len(), 2);
        assert!(!metrics[0].higher_is_better);
        assert_eq!(metrics[0].path, "[0][2][0].csr");
        // csr halved its seconds: +100% improvement. fil doubled: -50%.
        assert!((improvement(&metrics[0]) - 0.5).abs() < 1e-12);
        assert!((improvement(&metrics[1]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn structural_mismatches_are_reported_not_ignored() {
        let base = r#"{"stats": {"throughput_qps": 10.0}, "gone": {"throughput_qps": 5.0}}"#;
        let fresh = r#"{"stats": {"throughput_qps": 10.0}}"#;
        let (metrics, mismatches) = collect(base, fresh);
        assert_eq!(metrics.len(), 1);
        assert_eq!(mismatches, vec!["gone: missing from fresh results".to_string()]);
    }

    #[test]
    fn array_length_mismatch_is_reported() {
        let base = r#"[["a", 1.0], ["b", 2.0]]"#;
        let fresh = r#"[["a", 1.0]]"#;
        let (metrics, mismatches) = collect(base, fresh);
        assert_eq!(metrics.len(), 1);
        assert_eq!(mismatches.len(), 1);
        assert!(mismatches[0].contains("2 entries"));
    }

    #[test]
    fn unrelated_scalars_are_not_compared() {
        let base = r#"{"stats": {"p99_us": 100, "batches": 5}}"#;
        let fresh = r#"{"stats": {"p99_us": 900, "batches": 1}}"#;
        let (metrics, mismatches) = collect(base, fresh);
        assert!(metrics.is_empty());
        assert!(mismatches.is_empty());
    }

    #[test]
    fn improvement_sign_convention() {
        let faster =
            Metric { path: "x".into(), baseline: 2.0, fresh: 1.0, higher_is_better: false };
        let slower = Metric { path: "x".into(), baseline: 1.0, fresh: 2.0, ..faster };
        assert!(improvement(&faster) > 0.0);
        assert!(improvement(&slower) < 0.0);
    }
}
