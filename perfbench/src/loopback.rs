//! `loopback_shard`: the sharded UDP transport plane (`ShardServer`,
//! one shard, `IoMode::auto()`) sending to a batched receiver over the
//! host loopback.
//!
//! Closed loop: every flow runs `FixedWindow(4)` with the default 5 ms
//! epoch and sends only what its window frees. Each round runs two jobs
//! at fixed flow counts through the same batching and timer code in
//! opposite regimes:
//!
//! * `light`, 64 flows, well below capacity: the delay the plane adds;
//! * `saturated`, 1 000 flows, CPU-bound: the per-packet cost.

use crate::adapter::{rtt_log, Probe, RttLog};
use crate::measure::{
    hist_quantile, main_thread_cpu_s, median, peak_rss_mb, percentile, process_cpu_s, thread_cpu_s,
    threads_cpu_s,
};
use crate::report::{Outcome, PER_LAYER};
use crate::simrun::{fits, mix};
use crate::spans::{SpanId, Spans};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use verus_nettypes::{CongestionControl, FixedWindow, SimDuration};
use verus_transport::{
    FlowSpec, IoMode, LoadReport, Receiver, ReceiverHandle, ShardServer, ShardServerConfig,
    WallClock,
};

/// Flows and per-flow packet budgets of the two phases.
const LIGHT_FLOWS: u32 = 64;
const LIGHT_PACKETS: u64 = 1_200;
const SAT_FLOWS: u32 = 1_000;
const SAT_PACKETS: u64 = 240;
/// The fixed window every flow runs.
const WINDOW: usize = 4;
/// Payload bytes per data packet (the header adds 34).
const PACKET_BYTES: u32 = 1_000;
/// A job that has not finished by then ends in drain, and its
/// unfinished flows break the ledger gate.
const DEADLINE_S: u64 = 60;
/// Set-ups per round: all are timed, the last one is run.
const SETUP_REPS: usize = 5;
/// Name prefix of the receiver thread (the kernel keeps 15 bytes).
const RECEIVER_THREAD: &str = "verus-receiver";

/// The workload.
pub struct LoopbackShard {
    seed: u64,
}

/// The p50 and p99 of the light phase's RTT log, ms.
fn rtt_quantiles(log: &RttLog) -> Result<(f64, f64), String> {
    let h = log
        .lock()
        .map_err(|_| "rtt log lock poisoned".to_string())?;
    if h.total() == 0 {
        return Err("the light phase logged no RTT samples".into());
    }
    Ok((hist_quantile(&h, 0.5), hist_quantile(&h, 0.99)))
}

/// One finished job.
struct Job {
    report: LoadReport,
    wall_s: f64,
    cpu_s: f64,
    shard_cpu_s: f64,
    receiver_cpu_s: f64,
}

/// A round's receiver and flows.
struct SetUp {
    light: Vec<FlowSpec>,
    sat: Vec<FlowSpec>,
    rx: ReceiverHandle,
}

/// One round: set-ups, the light job, the saturated job.
struct Round {
    setup_s: Vec<f64>,
    light: Job,
    sat: Job,
    /// The light phase's RTT p50 and p99, ms.
    light_rtt: (f64, f64),
}

impl LoopbackShard {
    /// The workload for `seed` (it sets every flow's epoch phase).
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    fn params(&self) -> String {
        format!(
            "loopback_shard v1: ShardServer shards=1 io=auto, fixed window {WINDOW}, 5 ms epoch, \
             {PACKET_BYTES} B payload; light {LIGHT_FLOWS} flows x {LIGHT_PACKETS} pkts, \
             saturated {SAT_FLOWS} flows x {SAT_PACKETS} pkts; 127.0.0.1"
        )
    }

    fn config(&self, phase: u64) -> ShardServerConfig {
        ShardServerConfig {
            shards: 1,
            io_mode: IoMode::auto(),
            packet_bytes: PACKET_BYTES,
            deadline: SimDuration::from_secs(DEADLINE_S),
            seed: mix(self.seed, phase),
            ..ShardServerConfig::default()
        }
    }

    /// Runs one job and checks its ledger.
    fn job(
        &self,
        phase: u64,
        specs: Vec<FlowSpec>,
        clock: WallClock,
        spans: &mut Spans,
        parent: SpanId,
        id: u64,
    ) -> Result<Job, String> {
        let flows = specs.len() as u64;
        let read = |e: std::io::Error| format!("reading CPU time: {e}");
        let (cpu0, main0, rx0) = (
            process_cpu_s().map_err(read)?,
            main_thread_cpu_s().map_err(read)?,
            threads_cpu_s(RECEIVER_THREAD).map_err(read)?,
        );
        let server = ShardServer::new(self.config(phase));
        let (report, wall_s) = spans.time("transport.run", Some(parent), id, || {
            server.run(specs, clock)
        });
        let report = report.map_err(|e| format!("shard server: {e}"))?;
        let (cpu1, main1, rx1) = (
            process_cpu_s().map_err(read)?,
            main_thread_cpu_s().map_err(read)?,
            threads_cpu_s(RECEIVER_THREAD).map_err(read)?,
        );
        // Gates: an exact ledger, no stuck session, every flow closed.
        if report.residual() != 0 || report.stuck() != 0 || report.closed() != flows {
            return Err(format!(
                "transport ledger: residual {}, stuck {}, closed {} of {flows}",
                report.residual(),
                report.stuck(),
                report.closed()
            ));
        }
        // The shard thread has exited by now; the process total keeps
        // its CPU time, so it is what the live threads do not account for.
        let cpu_s = cpu1 - cpu0;
        let receiver_cpu_s = rx1 - rx0;
        Ok(Job {
            report,
            wall_s,
            cpu_s,
            shard_cpu_s: (cpu_s - (main1 - main0) - receiver_cpu_s).max(0.0),
            receiver_cpu_s,
        })
    }

    /// Binds and spawns the receiver and builds both phases' flows; the
    /// light phase's controllers log their RTT samples into `log`.
    fn set_up(&self, log: &RttLog, clock: WallClock) -> Result<SetUp, String> {
        let rx = Receiver::spawn_batched("127.0.0.1:0", clock, IoMode::auto())
            .map_err(|e| format!("receiver: {e}"))?;
        let specs = |flows: u32, packets: u64, log: Option<&RttLog>| -> Vec<FlowSpec> {
            (0..flows)
                .map(|flow| {
                    let cc: Box<dyn CongestionControl> = Box::new(FixedWindow::new(WINDOW));
                    FlowSpec {
                        flow,
                        dest: rx.local_addr(),
                        packets,
                        cc: match log {
                            Some(log) => Probe::wrap(cc, false, Some(log)),
                            None => cc,
                        },
                    }
                })
                .collect()
        };
        Ok(SetUp {
            light: specs(LIGHT_FLOWS, LIGHT_PACKETS, Some(log)),
            sat: specs(SAT_FLOWS, SAT_PACKETS, None),
            rx,
        })
    }

    fn round(&self, spans: &mut Spans, round: u64) -> Result<Round, String> {
        let root = spans.open("round", None, round);
        let clock = WallClock::new();
        let log = rtt_log();
        let mut setup_s = Vec::with_capacity(SETUP_REPS);
        let mut set = None;
        for _ in 0..SETUP_REPS {
            if let Some(SetUp { rx, .. }) = set.take() {
                rx.stop();
            }
            let c0 = thread_cpu_s().map_err(|e| format!("reading CPU time: {e}"))?;
            let (s, _) = spans.time("setup", Some(root), round, || self.set_up(&log, clock));
            set = Some(s?);
            setup_s.push(thread_cpu_s().map_err(|e| format!("reading CPU time: {e}"))? - c0);
        }
        let SetUp { light, sat, rx } = set.expect("SETUP_REPS >= 1");
        let run = spans.open("run", Some(root), round);
        let light = self.job(1, light, clock, spans, run, 2 * round);
        let sat = light.and_then(|l| Ok((l, self.job(2, sat, clock, spans, run, 2 * round + 1)?)));
        spans.close(run);
        rx.stop();
        spans.close(root);
        let (light, sat) = sat?;
        Ok(Round {
            setup_s,
            light,
            sat,
            light_rtt: rtt_quantiles(&log)?,
        })
    }

    /// Runs rounds while they fit in `budget`, and at least `min` of
    /// them; also returns the peak RSS after the second round (see
    /// `simrun::passes`).
    fn rounds(
        &self,
        spans: &mut Spans,
        budget: Duration,
        min: usize,
        next: &mut u64,
    ) -> Result<(Vec<Round>, Option<f64>), String> {
        let t0 = Instant::now();
        let mut out = Vec::new();
        let mut rss = None;
        while out.len() < min || fits(t0, out.len(), budget) {
            *next += 1;
            out.push(self.round(spans, *next)?);
            if out.len() == 2 {
                rss = Some(peak_rss_mb().map_err(|e| e.to_string())?);
            }
        }
        Ok((out, rss))
    }

    /// Runs the workload for `seconds`; a traced run spends half of it on
    /// untraced rounds and half on rounds whose spans are written out.
    pub fn run(&self, seconds: u64, trace: bool) -> Result<Outcome, String> {
        let mut spans = Spans::new();
        let budget = Duration::from_secs(seconds);
        let mut next = 0;
        let (untraced, traced, rss) = if trace {
            let (u, _) = self.rounds(&mut spans, budget / 2, 1, &mut next)?;
            let (t, _) = self.rounds(&mut spans, budget / 2, 1, &mut next)?;
            (u, t, None)
        } else {
            let (u, rss) = self.rounds(&mut spans, budget, 2, &mut next)?;
            (u, Vec::new(), rss)
        };
        let all: Vec<&Round> = untraced.iter().chain(&traced).collect();
        // Gate: the deterministic ledger repeats round after round.
        let digest = |r: &Round| {
            (
                r.light.report.deterministic_digest(),
                r.sat.report.deterministic_digest(),
            )
        };
        if let Some(bad) = all.iter().find(|r| digest(r) != digest(all[0])) {
            return Err(format!(
                "transport ledger digest {:?} differs from the first round's {:?}",
                digest(bad),
                digest(all[0])
            ));
        }
        let attempted: u64 = all
            .iter()
            .map(|r| r.light.report.offered() + r.sat.report.offered())
            .sum();
        let mut values = BTreeMap::new();
        let rounds = &untraced;
        let sum = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
        let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        let light_mbps = |r: &Round| {
            r.light.report.acked() as f64 * f64::from(PACKET_BYTES) * 8.0
                / 1e6
                / f64::from(LIGHT_FLOWS)
                / r.light.wall_s
        };
        if !trace {
            let mut setups: Vec<f64> = rounds
                .iter()
                .flat_map(|r| r.setup_s.iter().copied())
                .collect();
            values.insert("setup_s", percentile(&mut setups, 0.5));
            values.insert(
                "peak_rss_mb",
                rss.expect("an untraced run makes two rounds"),
            );
            values.insert("run_s", med(&|r| r.light.cpu_s + r.sat.cpu_s));
            values.insert(
                "cpu_us_per_pkt",
                med(&|r| r.sat.cpu_s * 1e6 / r.sat.report.acked() as f64),
            );
        } else {
            let n = rounds.len() as f64;
            let mut sat_wall: Vec<f64> = rounds.iter().map(|r| r.sat.wall_s).collect();
            let io = |r: &Round| r.sat.report.io();
            let counters = |r: &Round| {
                let mut c = [0u64; 3];
                for s in r.light.report.shards.iter().chain(&r.sat.report.shards) {
                    c[0] += s.counters.retransmits;
                    c[1] += s.counters.timeouts;
                    c[2] += s.counters.probes;
                }
                c
            };
            let wall = |r: &Round| r.light.wall_s + r.sat.wall_s;
            let traced_med = median(&traced.iter().map(wall).collect::<Vec<_>>());
            // Per-round figures, then the median round: one round stalled
            // by a neighbour on the host does not move them.
            let fields = [
                ("bench.trace_overhead_s", traced_med - med(&wall)),
                ("bench.wall_run_s", med(&wall)),
                (
                    "bench.wall_pkts_per_s",
                    med(&|r| r.sat.report.acked() as f64 / r.sat.wall_s),
                ),
                ("bench.job_s_p50", percentile(&mut sat_wall, 0.5)),
                ("bench.job_s_p90", percentile(&mut sat_wall, 0.9)),
                ("transport.light_rtt_ms_p50", med(&|r| r.light_rtt.0)),
                ("transport.light_flow_mbps", med(&light_mbps)),
                (
                    "transport.syscalls_per_pkt",
                    sum(&|r| io(r).syscalls() as f64) / sum(&|r| io(r).packets() as f64),
                ),
                ("transport.shard_cpu_s", sum(&|r| r.sat.shard_cpu_s) / n),
                (
                    "transport.receiver_cpu_s",
                    sum(&|r| r.sat.receiver_cpu_s) / n,
                ),
                (
                    "transport.shard_busy_frac",
                    sum(&|r| r.sat.shard_cpu_s) / sum(&|r| r.sat.wall_s),
                ),
                (
                    "transport.epoch_late_ms_p99",
                    med(&|r| r.light.report.jitter_p99_ms()),
                ),
                ("transport.rtt_ms_p99", med(&|r| r.light_rtt.1)),
                (
                    "transport.timer_fires",
                    sum(&|r| {
                        r.light
                            .report
                            .shards
                            .iter()
                            .map(|s| s.timer_fires)
                            .sum::<u64>() as f64
                    }) / n,
                ),
                (
                    "transport.epoch_fires",
                    sum(&|r| {
                        r.light
                            .report
                            .shards
                            .iter()
                            .map(|s| s.epoch_fires)
                            .sum::<u64>() as f64
                    }) / n,
                ),
                ("transport.retransmits", sum(&|r| counters(r)[0] as f64) / n),
                ("transport.timeouts", sum(&|r| counters(r)[1] as f64) / n),
                ("transport.probes", sum(&|r| counters(r)[2] as f64) / n),
            ];
            values.extend(fields);
            for d in PER_LAYER {
                values.entry(d.name).or_insert(0.0);
            }
        }
        Ok(Outcome {
            attempted,
            values,
            params: self.params(),
            loopback: true,
            spans_jsonl: if trace {
                spans.to_jsonl()
            } else {
                String::new()
            },
        })
    }
}
