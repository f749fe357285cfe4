//! `crowd_cubic`: one simulation of 10 000 full-buffer CUBIC flows on
//! the sequential timing-wheel scheduler.
//!
//! The channel is `bench_scale`'s: a Campus-stationary LTE trace scaled
//! by 50·√(N/100), behind the paper's RED queue, with starts staggered
//! over 5 s. The seed draws each flow's start inside its stagger slot
//! and the simulator's random stream (RED drops); the channel is fixed. The workload bypasses `verus-core`; the load is the event
//! core, per-TTI service and queue admission, over per-flow state far
//! larger than the caches.

use crate::adapter::Probe;
use crate::simrun::{mix, Pass, SimWorkload, Totals};
use crate::spans::{SpanId, Spans};
use verus_baselines::Cubic;
use verus_cellular::{OperatorModel, Scenario};
use verus_netsim::queue::QueueConfig;
use verus_netsim::{BottleneckConfig, FlowConfig, SchedulerKind, SimConfig, Simulation};
use verus_nettypes::{CongestionControl, SimDuration, SimTime};

/// Flows in the crowd.
const FLOWS: usize = 10_000;
/// Simulated seconds per crowd run.
const SIM_SECS: u64 = 10;
/// Length of the synthesized trace (the cell link loops it).
const TRACE_SECS: u64 = 10;
/// The trace seed `bench_scale` uses: every crowd runs on its channel.
const TRACE_SEED: u64 = 42;
/// Delay samples each flow keeps (a uniform reservoir).
const DELAY_SAMPLES: usize = 64;
/// Window over which flow starts are spread.
const STAGGER_NS: u64 = 5_000_000_000;

/// The workload.
pub struct CrowdCubic {
    seed: u64,
    sim_seed: u64,
}

impl CrowdCubic {
    /// The crowd for `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            sim_seed: mix(seed, 2),
        }
    }

    fn build(&self, spans: &mut Spans, setup: SpanId, timed: bool) -> Result<Simulation, String> {
        let (trace, _) = spans.time("cellular.generate_trace", Some(setup), 1, || {
            Scenario::CampusStationary.generate_trace(
                OperatorModel::EtisalatLte,
                SimDuration::from_secs(TRACE_SECS),
                TRACE_SEED,
            )
        });
        let scale = 50.0 * (FLOWS as f64 / 100.0).sqrt();
        let trace = trace
            .map_err(|e| format!("trace synthesis: {e:?}"))?
            .scale_rate(scale);
        let slot = STAGGER_NS / FLOWS as u64;
        let flows = (0..FLOWS)
            .map(|i| {
                let cc: Box<dyn CongestionControl> = Box::new(Cubic::new());
                let cc = if timed {
                    Probe::wrap(cc, true, None)
                } else {
                    cc
                };
                let start = i as u64 * slot + mix(self.seed, i as u64 + 3) % slot;
                FlowConfig::new(cc).starting_at(SimTime::from_nanos(start))
            })
            .collect();
        let config = SimConfig {
            bottleneck: BottleneckConfig::Cell {
                trace,
                base_rtt: SimDuration::from_millis(40),
                loss: 0.0,
            },
            queue: QueueConfig::paper_red(),
            flows,
            duration: SimDuration::from_secs(SIM_SECS),
            seed: self.sim_seed,
            throughput_window: SimDuration::from_secs(1),
            impairments: Default::default(),
            abc: None,
        };
        Ok(Simulation::new(config)?
            .with_scheduler(SchedulerKind::Wheel)
            .with_delay_sample_cap(DELAY_SAMPLES))
    }
}

impl SimWorkload for CrowdCubic {
    const SETUP_REPS: usize = 5;

    fn params(&self) -> String {
        format!(
            "crowd_cubic v1: {FLOWS} cubic flows, {SIM_SECS} s, Campus stationary / Etisalat LTE \
             {TRACE_SECS} s trace (seed {TRACE_SEED}) x 50*sqrt(N/100), paper RED queue, 40 ms base RTT, \
             one start per {} ms slot, Wheel scheduler, {DELAY_SAMPLES} delay samples/flow",
            STAGGER_NS as f64 / FLOWS as f64 / 1e6
        )
    }

    fn set_up(
        &self,
        spans: &mut Spans,
        setup: SpanId,
        timed: bool,
    ) -> Result<Vec<Simulation>, String> {
        Ok(vec![self.build(spans, setup, timed)?])
    }

    fn traced_extras(
        &self,
        spans: &mut Spans,
        untraced: &Pass,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        // The same crowd on the two-worker sharded engine: its reports
        // must be byte-identical to the sequential run's.
        let setup = spans.open("setup", None, 0);
        let sim = self.build(spans, setup, false)?;
        spans.close(setup);
        let sim = sim.with_scheduler(SchedulerKind::Sharded { workers: 2 });
        let ((reports, events, pops), secs) =
            spans.time("netsim.run", None, 0, || sim.run_instrumented());
        let mut totals = Totals::new();
        totals.add(&reports, events, pops);
        if totals.digest != untraced.totals.digest {
            return Err(format!(
                "Sharded{{2}} crowd digest {:016x} differs from the sequential {:016x}",
                totals.digest, untraced.totals.digest
            ));
        }
        Ok(vec![
            ("netsim.sharded2_s", secs),
            ("netsim.sharded2_speedup", untraced.wall_s / secs),
        ])
    }
}
