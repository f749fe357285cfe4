//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cell_verus|crowd_cubic|loopback_shard> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics; a
//! traced run (`--trace 1`) the per-layer ones, next to its own overhead.
//! The last line of standard output is the result as one JSON object.
//! A broken gate, or a workload that cannot run, exits non-zero without
//! printing a result.
//! See `perfbench/README.md` for the workloads and metrics.

mod adapter;
mod cell;
mod crowd;
mod loopback;
mod measure;
mod report;
mod simrun;
mod spans;

use report::{emit, RunArgs};

const USAGE: &str = "usage: verus-perfbench --workload <cell_verus|crowd_cubic|loopback_shard> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &RunArgs) -> Result<(), String> {
    let ticks = || measure::host_cpu_ticks().map_err(|e| format!("reading /proc/stat: {e}"));
    let before = ticks()?;
    let mut outcome = match args.workload.as_str() {
        "cell_verus" => simrun::run(&cell::CellVerus::new(args.seed), args.seconds, args.trace),
        "crowd_cubic" => simrun::run(&crowd::CrowdCubic::new(args.seed), args.seconds, args.trace),
        "loopback_shard" => loopback::LoopbackShard::new(args.seed).run(args.seconds, args.trace),
        other => return Err(format!("unknown workload {other:?}")),
    }?;
    let steal = measure::steal_frac(&before, &ticks()?);
    if args.trace {
        outcome.values.insert("bench.steal_frac", steal);
    }
    emit(args, &outcome, steal)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(64);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: no result: {e}");
        std::process::exit(2);
    }
}
