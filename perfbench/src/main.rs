//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints informational JSON lines, then one result line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

use perfbench::report::{end_to_end, extras, metrics_json, per_layer, spans_json, Json};
use perfbench::workload::{Inputs, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Directory stores live here, inside the working directory.
    let store_root = PathBuf::from(".perfbench_tmp");
    let inputs = Inputs::generate(args.workload, args.seed);
    let outcome = perfbench::run(&inputs, args.seconds, args.trace, &store_root);
    let _ = std::fs::remove_dir(&store_root);
    let run = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let attempted: u64 = run.passes().map(|p| p.ops()).sum();
    let failed: u64 = run.passes().map(|p| p.failures).sum();
    if let Some(first) = run.passes().find_map(|p| p.first_failure.as_ref()) {
        eprintln!("perfbench: {failed} failed ops, first: {first}");
    }
    if let Some(e) = &run.parity_error {
        eprintln!("perfbench: parity check failed: {e}");
    }

    let first = &run.plain[0];
    let info = Json::default()
        .str("workload", args.workload.name())
        .int("seed", args.seed)
        .int("untraced_passes", run.plain.len() as u64)
        .int("traced_passes", run.traced.len() as u64)
        .int("ops_per_pass", inputs.ops.len() as u64)
        .str("options", &first.options)
        .str("io_backend", &first.backend)
        .int("answer_digest", first.digest)
        .obj("extras", metrics_json(&extras(&run.plain)));
    println!("{}", info.finish());
    if args.trace {
        println!("{}", spans_json(&run.traced).finish());
    }

    let metrics = if args.trace {
        per_layer(&run.plain, &run.traced)
    } else {
        end_to_end(args.workload, &run.plain, inputs.live_bytes())
    };
    let correct = failed == 0 && run.parity_error.is_none();
    let result = Json::default()
        .bool("correct", correct)
        .int("attempted", attempted)
        .int("failed", failed)
        .obj("metrics", metrics_json(&metrics));
    println!("{}", result.finish());
    ExitCode::SUCCESS
}
