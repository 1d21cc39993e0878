//! `bench_suite`: the repo's one performance ledger. See README.md in
//! this directory for the workloads, every metric's definition, and how
//! to read the trace file.
//!
//! ```text
//! bench_suite --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!             [--smoke] [--self-test]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics of an untraced run (`--trace 0`), the per-layer metrics of a
//! traced one (`--trace 1`). Exit code 0 means every output matched its
//! oracle and every metric was produced.

mod inputs;
mod layers;
mod ledger;
mod load;
mod reference;
mod run;
mod spans;
mod stack;
mod stats;
mod workloads;

use ledger::{result_line, END_TO_END, PER_LAYER};
use run::{Options, Shape};
use std::process::ExitCode;

const USAGE: &str =
    "usage: bench_suite --workload <batch-deep|batch-shallow|serve-singles|serve-bulk-swap> \
--seed <n> [--seconds <s>] [--trace <0|1>] [--smoke] [--self-test]";

struct Args {
    workload: workloads::Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    self_test: bool,
    generate: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: workloads::ALL[0],
        seed: 1,
        seconds: 18.0,
        traced: false,
        smoke: false,
        self_test: false,
        generate: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    workloads::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--self-test" => parsed.self_test = true,
            "--generate" => parsed.generate = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    if parsed.smoke {
        parsed.workload = parsed.workload.smoke();
    }
    Ok(parsed)
}

fn write_trace(args: &Args, spans: &[spans::SpanRecord]) -> Result<std::path::PathBuf, String> {
    let dir = inputs::build_dir().join("bench_suite-trace");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{}.json", args.workload.name, args.seed));
    let json = serde_json::to_string(&spans::to_json(args.workload.name, args.seed, spans))
        .map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    if args.generate {
        let path = inputs::cache_path(&args.workload, args.seed, args.smoke);
        inputs::generate_to(&args.workload, args.seed, &path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        return Ok(ExitCode::SUCCESS);
    }

    let inputs = inputs::load_or_generate(&args.workload, args.seed, args.smoke)?;
    let shape = if args.smoke { Shape::SMOKE } else { Shape::for_seconds(args.seconds) };
    println!(
        "workload {} seed {} inputs {:016x} rounds {} threads {} traced {}",
        args.workload.name,
        args.seed,
        inputs.hash(),
        shape.rounds,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        args.traced,
    );
    let options =
        Options { workload: args.workload, shape, traced: args.traced, self_test: args.self_test };
    let outcome = run::run(&options, &inputs);

    // A traced run's end-to-end numbers carry the tracing overhead, so
    // they are printed for reading but never put in the result line.
    print!("{}", outcome.ledger.table(END_TO_END));
    let reported = if args.traced { PER_LAYER } else { END_TO_END };
    if args.traced {
        print!("{}", outcome.ledger.table(PER_LAYER));
        println!("self time by span:");
        for (name, count, total_ns, self_ns) in spans::self_times(&outcome.spans) {
            println!(
                "{name:<28} n={count:<7} total {:>10.3} ms  self {:>10.3} ms",
                total_ns as f64 / 1e6,
                self_ns as f64 / 1e6
            );
        }
        println!("trace written to {}", write_trace(&args, &outcome.spans)?.display());
    }
    let missing = outcome.ledger.missing(reported);
    for name in &missing {
        eprintln!("bench_suite: no value for {name}");
    }
    println!(
        "ops attempted {} failed {}; open-loop requests due {} missed the {} ms deadline {}",
        outcome.attempted,
        outcome.failed,
        outcome.due,
        run::DEADLINE.as_millis(),
        outcome.deadline_missed,
    );
    for (kind, count) in &outcome.failures {
        println!("failed: {kind}: {count}");
    }
    let correct = outcome.failed == 0 && missing.is_empty();
    println!(
        "{}",
        result_line(
            correct,
            outcome.attempted,
            outcome.failed,
            outcome.ledger.metrics_json(reported)
        )
    );

    if args.self_test {
        // One wrong label reaches the engine checks, the cold starts and
        // request 0; one request per window is due 20 ms in the past.
        let late = shape.rounds as u64;
        return if outcome.failed > 0 && outcome.deadline_missed > late {
            eprintln!("bench_suite: self-test: the injected corruption was reported, as designed");
            Ok(ExitCode::from(1))
        } else {
            eprintln!("bench_suite: self-test: the injected corruption went UNDETECTED");
            Ok(ExitCode::from(2))
        };
    }
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|error| {
        eprintln!("bench_suite: {error}");
        ExitCode::from(2)
    })
}
