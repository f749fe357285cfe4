//! Pieces the two simulator workloads share: seed mixing, the report
//! digest, the ledger gate and the per-pass totals.

use crate::adapter::{take_tally, Tally};
use crate::measure::{hist_quantile, median, peak_rss_mb, percentile, thread_cpu_s};
use crate::report::{Outcome, PER_LAYER};
use crate::spans::{SpanId, Spans};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use verus_netsim::{FlowReport, Simulation};
use verus_stats::Histogram;

/// SplitMix64 of `seed ^ salt`: independent per-job seeds from one
/// workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z =
        (seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over every report's full `Debug` rendering, chained onto
/// `hash`.
pub fn digest(mut hash: u64, reports: &[FlowReport]) -> u64 {
    let mut buf = String::new();
    for r in reports {
        buf.clear();
        let _ = write!(buf, "{r:?}");
        for b in buf.as_bytes() {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// The FNV-1a offset basis, the starting value for [`digest`].
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Gate: every flow's packet-conservation ledger balances.
fn check_ledgers(reports: &[FlowReport]) -> Result<(), String> {
    match reports.iter().find(|r| !r.ledger_balances()) {
        Some(r) => Err(format!("flow {} ledger does not balance: {r:?}", r.flow)),
        None => Ok(()),
    }
}

/// The p50 and p95 of a job's buffered one-way delays, ms.
///
/// Simulated delays come in whole transmission intervals (1 ms on LTE,
/// 2 ms on 3G), so a plain percentile sits on the same tick for most
/// seeds. Each sample is taken as spread over the millisecond it falls
/// in and the percentile is interpolated inside that millisecond, which
/// keeps the figure sensitive to how many packets share the tick.
pub fn delay_quantiles(reports: &[FlowReport]) -> (f64, f64) {
    let mut h = Histogram::new(0.0, 10_000.0, 10_000);
    for d in reports.iter().flat_map(|r| &r.delays_ms) {
        h.add(*d);
    }
    (hist_quantile(&h, 0.5), hist_quantile(&h, 0.95))
}

/// What one pass of simulations produced, summed over its jobs.
pub struct Totals {
    /// Report digest, chained over the jobs in order.
    pub digest: u64,
    /// Packets delivered (each is ACKed once in these loss-free-ACK runs).
    pub delivered: u64,
    /// Flows reported.
    pub flows: u64,
    /// Sum of per-flow mean throughputs, Mbit/s.
    pub mbps_sum: f64,
    /// Each job's p50 and p95 one-way delay over the buffered samples
    /// of all its flows, ms (see [`delay_quantiles`]).
    pub job_delay_ms: Vec<(f64, f64)>,
    /// RED/droptail drops.
    pub queue_drops: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Fast-retransmit losses.
    pub fast_losses: u64,
    /// Logical simulator events.
    pub events: u64,
    /// Raw scheduler pops.
    pub pops: u64,
}

impl Totals {
    /// Empty totals.
    pub fn new() -> Self {
        Self {
            digest: DIGEST_SEED,
            delivered: 0,
            flows: 0,
            mbps_sum: 0.0,
            job_delay_ms: Vec::new(),
            queue_drops: 0,
            timeouts: 0,
            fast_losses: 0,
            events: 0,
            pops: 0,
        }
    }

    /// Folds one job's reports and counters.
    pub fn add(&mut self, reports: &[FlowReport], events: u64, pops: u64) {
        self.digest = digest(self.digest, reports);
        self.job_delay_ms.push(delay_quantiles(reports));
        for r in reports {
            self.delivered += r.delivered;
            self.flows += 1;
            self.mbps_sum += r.mean_throughput_mbps();
            self.queue_drops += r.queue_drops;
            self.timeouts += r.timeouts;
            self.fast_losses += r.fast_losses;
        }
        self.events += events;
        self.pops += pops;
    }

    /// Mean per-flow throughput, Mbit/s.
    pub fn flow_mbps(&self) -> f64 {
        if self.flows == 0 {
            return 0.0;
        }
        self.mbps_sum / self.flows as f64
    }
}

/// A simulator workload: builds one pass's simulations; [`run`] times,
/// checks and reduces them.
pub trait SimWorkload {
    /// Set-ups per pass: all are timed, the last one is run. Cheap
    /// set-ups repeat so that `setup_s` is a median over many.
    const SETUP_REPS: usize;

    /// The workload's parameters, hashed into the manifest.
    fn params(&self) -> String;

    /// Builds the pass's simulations inside the `setup` span (trace
    /// synthesis under `cellular.generate_trace` child spans). With
    /// `timed`, every controller is wrapped in a timed [`Probe`].
    ///
    /// [`Probe`]: crate::adapter::Probe
    fn set_up(
        &self,
        spans: &mut Spans,
        setup: SpanId,
        timed: bool,
    ) -> Result<Vec<Simulation>, String>;

    /// Extra per-layer measurements of a traced run, given the median
    /// untraced pass and its digest.
    fn traced_extras(
        &self,
        spans: &mut Spans,
        untraced: &Pass,
    ) -> Result<Vec<(&'static str, f64)>, String>;
}

/// One pass: set-up, then every job.
pub struct Pass {
    /// CPU seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Of which trace synthesis.
    pub trace_gen_s: f64,
    /// Wall seconds of the jobs, summed.
    pub wall_s: f64,
    /// Per-job wall seconds inside `Simulation::run_instrumented`.
    pub job_s: Vec<f64>,
    /// CPU seconds of the jobs.
    pub cpu_s: f64,
    /// Reduced reports.
    pub totals: Totals,
    /// Controller tallies (timed passes only).
    pub tally: Tally,
}

fn one_pass<W: SimWorkload>(
    w: &W,
    spans: &mut Spans,
    timed: bool,
    job: &mut u64,
) -> Result<Pass, String> {
    let pass = spans.open("pass", None, 0);
    let mut setup_s = Vec::with_capacity(W::SETUP_REPS);
    let mut sims = Vec::new();
    let mut trace_gen_s = 0.0;
    let cpu = |e: std::io::Error| format!("reading CPU time: {e}");
    for _ in 0..W::SETUP_REPS {
        drop(sims);
        let c0 = thread_cpu_s().map_err(cpu)?;
        let setup = spans.open("setup", Some(pass), 0);
        sims = w.set_up(spans, setup, timed)?;
        spans.close(setup);
        setup_s.push(thread_cpu_s().map_err(cpu)? - c0);
        trace_gen_s = spans.total_under("cellular.generate_trace", setup);
    }
    let _ = take_tally();
    let mut totals = Totals::new();
    let mut job_s = Vec::with_capacity(sims.len());
    let mut cpu_s = 0.0;
    for sim in sims {
        *job += 1;
        // The job span and CPU clock cover the program's work only (the
        // sequential simulator runs on this thread); checking and
        // reducing the reports happens outside them.
        let cpu0 = thread_cpu_s().map_err(cpu)?;
        let ((reports, events, pops), d) =
            spans.time("netsim.run", Some(pass), *job, || sim.run_instrumented());
        cpu_s += thread_cpu_s().map_err(cpu)? - cpu0;
        job_s.push(d);
        check_ledgers(&reports)?;
        totals.add(&reports, events, pops);
    }
    let tally = take_tally();
    spans.close(pass);
    Ok(Pass {
        setup_s,
        trace_gen_s,
        wall_s: job_s.iter().sum(),
        job_s,
        cpu_s,
        totals,
        tally,
    })
}

/// Whether one more pass, as long as the mean so far, still ends within
/// `budget` of `t0`.
pub fn fits(t0: Instant, done: usize, budget: Duration) -> bool {
    let spent = t0.elapsed();
    done == 0 || spent + spent / done as u32 <= budget
}

/// Runs passes while they fit in `budget`, and at least `min` of them.
/// Also returns the peak RSS after the second pass (if one ran): a fixed
/// amount of work, where the end of the run would depend on how many
/// passes fit.
fn passes<W: SimWorkload>(
    w: &W,
    spans: &mut Spans,
    timed: bool,
    budget: Duration,
    min: usize,
    job: &mut u64,
) -> Result<(Vec<Pass>, Option<f64>), String> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    let mut rss = None;
    while out.len() < min || fits(t0, out.len(), budget) {
        out.push(one_pass(w, spans, timed, job)?);
        if out.len() == 2 {
            rss = Some(peak_rss_mb().map_err(|e| e.to_string())?);
        }
    }
    Ok((out, rss))
}

/// Geometric mean: jobs whose delays differ by an order of magnitude
/// (3G against LTE cells) weigh alike.
fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v.max(1e-9).ln(), n + 1));
    (sum / n.max(1) as f64).exp()
}

fn med(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Runs a simulator workload for `seconds` (untraced) or for `seconds`
/// split between an untraced and a traced half, and reduces it to the
/// end-to-end or the per-layer metrics.
pub fn run<W: SimWorkload>(w: &W, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let mut spans = Spans::new();
    let mut job = 0;
    let budget = Duration::from_secs(seconds);
    let (untraced, traced, rss) = if trace {
        let half = budget / 2;
        let (u, _) = passes(w, &mut spans, false, half, 1, &mut job)?;
        let (t, _) = passes(w, &mut spans, true, half, 1, &mut job)?;
        (u, t, None)
    } else {
        let (u, rss) = passes(w, &mut spans, false, budget, 2, &mut job)?;
        (u, Vec::new(), rss)
    };

    // Gate: every repetition of the same inputs, traced or not, gives
    // the same reports.
    let first = &untraced[0];
    for p in untraced.iter().chain(&traced) {
        if p.totals.digest != first.totals.digest {
            return Err(format!(
                "report digest {:016x} differs from the first pass's {:016x}",
                p.totals.digest, first.totals.digest
            ));
        }
    }
    if first.totals.delivered == 0 {
        return Err("the simulations delivered no packets".into());
    }

    let attempted = untraced
        .iter()
        .chain(&traced)
        .map(|p| p.job_s.len() as u64)
        .sum();
    let mut values = BTreeMap::new();
    if !trace {
        let mut setups: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.setup_s.iter().copied())
            .collect();
        values.insert("setup_s", percentile(&mut setups, 0.5));
        values.insert(
            "peak_rss_mb",
            rss.expect("an untraced run makes two passes"),
        );
        values.insert("run_s", med(&untraced, |p| p.cpu_s));
        values.insert(
            "cpu_us_per_pkt",
            med(&untraced, |p| p.cpu_s * 1e6 / p.totals.delivered as f64),
        );
    } else {
        let mut tally = Tally::default();
        for p in &traced {
            tally.merge(&p.tally);
        }
        let n = traced.len() as f64;
        let untraced_wall = med(&untraced, |p| p.wall_s);
        let core_s = tally.core.self_ns as f64 / 1e9 / n;
        let base_s = tally.baselines.self_ns as f64 / 1e9 / n;
        let mut job_s: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.job_s.iter().copied())
            .collect();
        let t = &first.totals;
        let per_pass = |c: u64| c as f64 / n;
        let fields = [
            (
                "bench.trace_overhead_s",
                med(&traced, |p| p.wall_s) - untraced_wall,
            ),
            ("bench.wall_run_s", untraced_wall),
            (
                "bench.wall_pkts_per_s",
                med(&untraced, |p| p.totals.delivered as f64 / p.wall_s),
            ),
            ("bench.job_s_p50", percentile(&mut job_s, 0.5)),
            ("bench.job_s_p90", percentile(&mut job_s, 0.9)),
            ("sim.flow_mbps", t.flow_mbps()),
            (
                "sim.delay_ms_p50",
                geomean(t.job_delay_ms.iter().map(|d| d.0)),
            ),
            (
                "sim.delay_ms_p95",
                geomean(t.job_delay_ms.iter().map(|d| d.1)),
            ),
            ("cellular.trace_gen_s", med(&untraced, |p| p.trace_gen_s)),
            ("core.self_s", core_s),
            ("core.share", core_s / untraced_wall),
            ("core.ack_calls", per_pass(tally.core.ack.count())),
            ("core.ack_ns_p50", tally.core.ack.quantile(0.5)),
            ("core.tick_calls", per_pass(tally.core.tick.count())),
            ("core.tick_ns_p50", tally.core.tick.quantile(0.5)),
            ("core.tick_ns_p99", tally.core.tick.quantile(0.99)),
            ("core.refits", per_pass(tally.core.refit.count())),
            ("core.refit_ns_p50", tally.core.refit.quantile(0.5)),
            ("core.refit_ns_p90", tally.core.refit.quantile(0.9)),
            ("core.invert_ns_p50", tally.core.invert.quantile(0.5)),
            ("spline.fit_ns_p50", tally.core.fit.quantile(0.5)),
            ("core.loss_calls", per_pass(tally.core.loss_calls)),
            ("baselines.self_s", base_s),
            ("baselines.share", base_s / untraced_wall),
            ("baselines.ack_ns_p50", tally.baselines.ack.quantile(0.5)),
            ("netsim.events", t.events as f64),
            ("netsim.sched_pops", t.pops as f64),
            (
                "netsim.pops_per_event",
                t.pops as f64 / t.events.max(1) as f64,
            ),
            ("netsim.events_per_s", t.events as f64 / untraced_wall),
            ("netsim.self_s", untraced_wall - core_s - base_s),
            ("netsim.queue_drops", t.queue_drops as f64),
            ("netsim.timeouts", t.timeouts as f64),
            ("netsim.fast_losses", t.fast_losses as f64),
        ];
        values.extend(fields);
        let median_pass = untraced
            .iter()
            .min_by(|a, b| {
                (a.wall_s - untraced_wall)
                    .abs()
                    .total_cmp(&(b.wall_s - untraced_wall).abs())
            })
            .expect("at least one pass");
        values.extend(w.traced_extras(&mut spans, median_pass)?);
        for d in PER_LAYER {
            values.entry(d.name).or_insert(0.0);
        }
    }
    Ok(Outcome {
        attempted,
        values,
        params: w.params(),
        loopback: false,
        spans_jsonl: if trace {
            spans.to_jsonl()
        } else {
            String::new()
        },
    })
}
