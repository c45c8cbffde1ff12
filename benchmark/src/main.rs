//! The repo benchmark. One command runs one named workload and prints
//! every metric by name with its unit; the last line of standard output
//! is the result object the driver reads. See `benchmark/README.md`.

mod cluster;
mod degraded;
mod host;
mod layers;
mod load;
mod model;
mod report;
mod serve;
mod spans;
mod speed;
mod stats;
mod traced;

use std::io::Write;
use std::path::Path;

use load::{Geometry, KeyDist};
use report::{Report, END_TO_END, PER_LAYER};
use serve::SEGMENTS;

/// Failure-and-rebuild cycles of one `degraded_rebuild` run. Ten, not
/// the six the issue sketched: one cycle gives one rebuild time, and the
/// median of six moved 7 % between identical runs.
const CYCLES: usize = 10;

const WORKLOADS: [&str; 4] = [
    "serve_small",
    "serve_large",
    "degraded_rebuild",
    "model_batch",
];

/// The sizes each workload runs at. Paced rates are well under the
/// closed-loop rate, so the paced phase measures stalls, not saturation.
fn geometry(workload: &str) -> Geometry {
    match workload {
        // 683-byte shards: per-op fixed cost (shard round trips, brick
        // thread wake-ups, lane and metadata locks) is nearly all the work.
        "serve_small" => Geometry {
            bricks: 9,
            objects: 1024,
            object_bytes: 4 * 1024,
            read_pct: 95,
            dist: KeyDist::Zipfian { theta: 0.99 },
            warmup_ops: 2000,
            paced_ops_per_s: 4000.0,
        },
        // 171 KiB shards: RS encode, frame building and memcpy dominate.
        "serve_large" => Geometry {
            bricks: 9,
            objects: 48,
            object_bytes: 1024 * 1024,
            read_pct: 50,
            dist: KeyDist::Uniform,
            warmup_ops: 300,
            paced_ops_per_s: 500.0,
        },
        // 64 KiB objects on ten bricks. The end-to-end run of
        // `degraded_rebuild` issues gets only; the mix below is for the
        // healthy phases of its traced run. `model_batch` has no objects
        // and borrows this geometry for its control readings.
        _ => Geometry {
            bricks: 10,
            objects: 1024,
            object_bytes: 64 * 1024,
            read_pct: 95,
            dist: KeyDist::Uniform,
            warmup_ops: 1000,
            paced_ops_per_s: 2000.0,
        },
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of: {} (got `{}`)",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!(
            "--seconds must be in (0, 60], got {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let mut geom = geometry(&args.workload);
    let (mut seconds, mut cycles) = (args.seconds, CYCLES);
    if args.smoke {
        // Same code, same checks, same output keys; an eighth of the
        // objects and a fraction of a second per phase.
        geom.objects = (geom.objects / 8).max(16);
        geom.warmup_ops /= 10;
        seconds = seconds.min(0.6);
        cycles = 2;
    }
    // The package lives in `benchmark/` of the checkout it measures.
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report: Report = if args.trace {
        traced::run(
            &args.workload,
            &geom,
            args.seed,
            seconds,
            &package.join("out"),
        )?
    } else {
        match args.workload.as_str() {
            "degraded_rebuild" => degraded::run(&geom, args.seed, seconds, cycles)?,
            "model_batch" => model::run(args.seed, seconds)?,
            _ => serve::run(&geom, args.seed, seconds)?,
        }
    };
    let rendered = if args.trace {
        report.render(PER_LAYER.iter())
    } else {
        report.render(END_TO_END.iter().map(|(s, _)| s))
    }?;
    let repo_root = package.parent().unwrap_or(package);
    let host = host::host_json(
        repo_root,
        &args.workload,
        args.seed,
        seconds,
        SEGMENTS,
        &report.samples,
    );
    let mut out = std::io::stdout().lock();
    writeln!(out, "host {host}\n{rendered}")
        .and_then(|()| out.flush())
        .map_err(|e| format!("write result: {e}"))?;
    Ok(report.correct())
}

fn main() {
    let code = match run() {
        Ok(true) => 0,
        // The result line is out, with `correct: false` and the count.
        Ok(false) => 2,
        Err(e) => {
            eprintln!("nsr-benchmark: {e}");
            1
        }
    };
    // Exit explicitly: a brick handler or keepalive thread still winding
    // down must not hold the process open after the result is printed.
    std::process::exit(code);
}
