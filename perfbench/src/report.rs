//! Metric definitions, the run manifest and the printed result.
//!
//! Every run prints each of its metrics as a line with name, value,
//! unit and better-direction, then a manifest line, then the result as
//! the last line of standard output:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The same record, manifest included, is written to
//! `perfbench/out/<workload>-seed<n>-trace<t>.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// A metric's definition: name, unit, better-direction, meaning.
pub struct Def {
    /// Name as printed.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// End-to-end metrics, printed by every untraced run of every workload
/// (see `perfbench/README.md` for what each means on each workload).
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MB", "lower"),
    def("run_s", "s", "lower"),
    def("cpu_us_per_pkt", "us", "lower"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not reach reads 0.
pub const PER_LAYER: &[Def] = &[
    def("bench.trace_overhead_s", "s", "lower"),
    def("bench.steal_frac", "fraction", "lower"),
    def("bench.wall_run_s", "s", "lower"),
    def("bench.wall_pkts_per_s", "1/s", "higher"),
    def("bench.job_s_p50", "s", "lower"),
    def("bench.job_s_p90", "s", "lower"),
    def("sim.flow_mbps", "Mbit/s", "higher"),
    def("sim.delay_ms_p50", "ms", "lower"),
    def("sim.delay_ms_p95", "ms", "lower"),
    def("cellular.trace_gen_s", "s", "lower"),
    def("core.self_s", "s", "lower"),
    def("core.share", "fraction", "lower"),
    def("core.ack_calls", "count", "lower"),
    def("core.ack_ns_p50", "ns", "lower"),
    def("core.tick_calls", "count", "lower"),
    def("core.tick_ns_p50", "ns", "lower"),
    def("core.tick_ns_p99", "ns", "lower"),
    def("core.refits", "count", "lower"),
    def("core.refit_ns_p50", "ns", "lower"),
    def("core.refit_ns_p90", "ns", "lower"),
    def("core.invert_ns_p50", "ns", "lower"),
    def("spline.fit_ns_p50", "ns", "lower"),
    def("core.loss_calls", "count", "lower"),
    def("baselines.self_s", "s", "lower"),
    def("baselines.share", "fraction", "lower"),
    def("baselines.ack_ns_p50", "ns", "lower"),
    def("netsim.events", "count", "lower"),
    def("netsim.sched_pops", "count", "lower"),
    def("netsim.pops_per_event", "ratio", "lower"),
    def("netsim.events_per_s", "1/s", "higher"),
    def("netsim.self_s", "s", "lower"),
    def("netsim.queue_drops", "count", "lower"),
    def("netsim.timeouts", "count", "lower"),
    def("netsim.fast_losses", "count", "lower"),
    def("netsim.sharded2_s", "s", "lower"),
    def("netsim.sharded2_speedup", "ratio", "higher"),
    def("trace.records", "count", "lower"),
    def("trace.record_ns", "ns", "lower"),
    def("transport.light_rtt_ms_p50", "ms", "lower"),
    def("transport.light_flow_mbps", "Mbit/s", "higher"),
    def("transport.syscalls_per_pkt", "ratio", "lower"),
    def("transport.shard_cpu_s", "s", "lower"),
    def("transport.receiver_cpu_s", "s", "lower"),
    def("transport.shard_busy_frac", "fraction", "lower"),
    def("transport.epoch_late_ms_p99", "ms", "lower"),
    def("transport.rtt_ms_p99", "ms", "lower"),
    def("transport.timer_fires", "count", "lower"),
    def("transport.epoch_fires", "count", "lower"),
    def("transport.retransmits", "count", "lower"),
    def("transport.timeouts", "count", "lower"),
    def("transport.probes", "count", "lower"),
];

/// What a workload hands back after its timed phase.
pub struct Outcome {
    /// Operations attempted (simulation jobs, or offered sequences).
    /// None fails quietly: each completes or breaks a gate, which ends
    /// the run without a result.
    pub attempted: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// The workload's parameters, as hashed into the manifest.
    pub params: String,
    /// Whether traffic crossed the host loopback.
    pub loopback: bool,
    /// Spans as JSON lines (traced runs write them out).
    pub spans_jsonl: String,
}

/// FNV-1a, 64 bit.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The directory records and spans are written to.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The repository's git revision, read from `.git` directly (no
/// subprocess); `unknown` outside a git checkout.
fn git_rev() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Escapes a string for a JSON literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// How the run was invoked.
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// The manifest carried by every record.
fn manifest(args: &RunArgs, out: &Outcome, steal_frac: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"params\":{},\
         \"params_digest\":\"{:016x}\",\"git_rev\":{},\"nproc\":{nproc},\"profile\":\"{profile}\",\
         \"loopback\":{},\"steal_frac\":{steal_frac}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&out.params),
        fnv(out.params.as_bytes()),
        json_str(&git_rev()),
        out.loopback,
    )
}

/// Checks the metric set, prints every metric, the manifest and the
/// result line, and writes the record. Returns an error (a correctness
/// violation) when a defined metric is missing or, for end-to-end
/// metrics, not positive.
pub fn emit(args: &RunArgs, out: &Outcome, steal_frac: f64) -> Result<(), String> {
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let mut figures = Vec::with_capacity(defs.len());
    for d in defs {
        let v = *out
            .values
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !args.trace && (v.is_nan() || v <= 0.0) {
            return Err(format!(
                "end-to-end metric {} = {v} is not positive",
                d.name
            ));
        }
        figures.push((d.name, v));
    }
    for name in out.values.keys() {
        if !defs.iter().any(|d| d.name == *name) {
            return Err(format!("metric {name} is measured but not defined"));
        }
    }
    // Every reported figure must be finite (exits non-zero otherwise).
    verus_bench::guard_finite(&args.workload, &figures);

    let mut metrics = String::new();
    for (i, (d, (_, v))) in defs.iter().zip(&figures).enumerate() {
        println!(
            "{:<28} {:>16.6} {:<9} ({} is better)",
            d.name, v, d.unit, d.better
        );
        let _ = write!(
            metrics,
            "{}{}: {{\"value\": {v}, \"unit\": {}}}",
            if i == 0 { "" } else { ", " },
            json_str(d.name),
            json_str(d.unit)
        );
    }
    let manifest = manifest(args, out, steal_frac);
    println!("manifest {manifest}");
    let result = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{metrics}}}}}",
        out.attempted
    );

    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut record = String::new();
    let _ = write!(record, "{{\"manifest\": {manifest},\n \"directions\": {{");
    for (i, d) in defs.iter().enumerate() {
        let _ = write!(
            record,
            "{}{}: {}",
            if i == 0 { "" } else { ", " },
            json_str(d.name),
            json_str(d.better)
        );
    }
    let _ = write!(record, "}},\n \"result\": {result}}}\n");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), record))
        .and_then(|()| {
            if args.trace {
                let spans = format!("{{\"manifest\":{manifest}}}\n{}", out.spans_jsonl);
                std::fs::write(dir.join(format!("{stem}.spans.jsonl")), spans)
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        // The printed result is the record of truth; a read-only tree
        // only loses the copy on disk.
        eprintln!(
            "perfbench: could not write the record under {}: {e}",
            dir.display()
        );
    }
    println!("{result}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Def> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.better == "lower" || d.better == "higher", "{}", d.name);
            assert!(
                all[i + 1..].iter().all(|o| o.name != d.name),
                "duplicate metric {}",
                d.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    /// `BENCHMARK.json` declares exactly the metrics this file defines.
    #[test]
    fn benchmark_json_matches_the_definitions() {
        let manifest = include_str!("../../BENCHMARK.json");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            manifest.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares a metric this benchmark does not measure"
        );
        assert_eq!(manifest.matches("\"bound\"").count(), END_TO_END.len());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
