//! `cell_verus`: independent §6.2 paper-cell simulations, each with ten
//! Verus (R = 2) flows behind the paper's RED queue, over every
//! mobility scenario on the 3G and the LTE operator model.
//!
//! Batch jobs: the run measures the cost of a fixed batch of them. The
//! controller does most of the work here (epoch ticks, profile refits,
//! ACK handling), the event core little.

use crate::adapter::Probe;
use crate::measure::median;
use crate::simrun::{digest, mix, Pass, SimWorkload, DIGEST_SEED};
use crate::spans::{SpanId, Spans};
use std::time::Instant;
use verus_bench::{CellExperiment, ProtocolSpec};
use verus_cellular::{OperatorModel, Scenario};
use verus_core::{VerusCc, VerusConfig};
use verus_netsim::{BottleneckConfig, FlowConfig, SimConfig, Simulation};
use verus_nettypes::{CongestionControl, SimDuration};
use verus_trace::Recorder;

/// Flows per cell (§6.2).
const FLOWS: usize = 10;
/// Verus' R.
const R: f64 = 2.0;
/// Simulated seconds per job.
const SIM_SECS: u64 = 60;
/// Operator models: one 3G, one LTE.
const OPERATORS: [OperatorModel; 2] = [OperatorModel::Etisalat3G, OperatorModel::EtisalatLte];
/// Trace realisations per (scenario, operator) cell; a pass is
/// 7 scenarios × 2 operators × this many jobs.
const SEEDS_PER_CELL: u64 = 2;
/// Jobs timed with and without a trace recorder for `trace.record_ns`,
/// and the runs of each, each way.
const RECORD_JOBS: usize = 4;
const RECORD_REPS: usize = 5;

/// One job's inputs.
struct Job {
    scenario: Scenario,
    operator: OperatorModel,
    trace_seed: u64,
    sim_seed: u64,
}

/// The workload.
pub struct CellVerus {
    jobs: Vec<Job>,
}

impl CellVerus {
    /// The job list for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut jobs = Vec::new();
        for k in 0..SEEDS_PER_CELL {
            for (si, scenario) in Scenario::all().into_iter().enumerate() {
                for (oi, operator) in OPERATORS.into_iter().enumerate() {
                    let salt = (k * 100 + si as u64) * 10 + oi as u64;
                    jobs.push(Job {
                        scenario,
                        operator,
                        trace_seed: mix(seed, 2 * salt),
                        sim_seed: mix(seed, 2 * salt + 1),
                    });
                }
            }
        }
        Self { jobs }
    }

    fn experiment(
        &self,
        job: &Job,
        spans: &mut Spans,
        parent: SpanId,
        id: u64,
    ) -> Result<CellExperiment, String> {
        let (trace, _) = spans.time("cellular.generate_trace", Some(parent), id, || {
            job.scenario.generate_trace(
                job.operator,
                SimDuration::from_secs(SIM_SECS),
                job.trace_seed,
            )
        });
        let trace = trace.map_err(|e| format!("trace synthesis: {e:?}"))?;
        Ok(CellExperiment::new(
            trace,
            FLOWS,
            SimDuration::from_secs(SIM_SECS),
            job.sim_seed,
        ))
    }
}

/// The simulation [`CellExperiment::run`] builds, with every controller
/// made by `cc`.
pub fn cell_sim(
    exp: &CellExperiment,
    cc: impl Fn() -> Box<dyn CongestionControl>,
) -> Result<Simulation, String> {
    let config = SimConfig {
        bottleneck: BottleneckConfig::Cell {
            trace: exp.trace.clone(),
            base_rtt: exp.base_rtt,
            loss: exp.loss,
        },
        queue: exp.queue,
        flows: (0..exp.flows).map(|_| FlowConfig::new(cc())).collect(),
        duration: exp.duration,
        seed: exp.seed,
        throughput_window: SimDuration::from_secs(1),
        impairments: Default::default(),
        abc: None,
    };
    Simulation::new(config)
}

fn verus() -> Box<dyn CongestionControl> {
    Box::new(VerusCc::new(VerusConfig::with_r(R)))
}

impl SimWorkload for CellVerus {
    const SETUP_REPS: usize = 1;

    fn params(&self) -> String {
        format!(
            "cell_verus v1: {} jobs/pass = 7 scenarios x [Etisalat 3G, Etisalat LTE] x {SEEDS_PER_CELL} seeds; \
             {FLOWS} verus(R={R}) flows, {SIM_SECS} s, paper RED queue, 40 ms base RTT",
            self.jobs.len()
        )
    }

    fn set_up(
        &self,
        spans: &mut Spans,
        setup: SpanId,
        timed: bool,
    ) -> Result<Vec<Simulation>, String> {
        self.jobs
            .iter()
            .enumerate()
            .map(|(i, job)| {
                let exp = self.experiment(job, spans, setup, i as u64 + 1)?;
                if timed {
                    cell_sim(&exp, || Probe::wrap(verus(), true, None))
                } else {
                    cell_sim(&exp, verus)
                }
            })
            .collect()
    }

    fn traced_extras(
        &self,
        spans: &mut Spans,
        _untraced: &Pass,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        // The trace recorder's cost: the same jobs through
        // `CellExperiment::run` and `run_traced`, alternating.
        // The recorder's cost is a few percent of a job, so each job runs
        // RECORD_REPS times each way, alternating, and the medians count.
        let parent = spans.open("trace.cost", None, 0);
        let (mut extra_s, mut records) = (0.0, 0usize);
        for (i, job) in self.jobs.iter().take(RECORD_JOBS).enumerate() {
            let exp = self.experiment(job, spans, parent, i as u64 + 1)?;
            let spec = ProtocolSpec::verus(R);
            let (mut plain_s, mut traced_s, mut job_records) = (Vec::new(), Vec::new(), 0);
            for _ in 0..RECORD_REPS {
                let t = Instant::now();
                let plain = exp.run(spec);
                plain_s.push(t.elapsed().as_secs_f64());
                let t = Instant::now();
                let (traced, rec) = exp.run_traced(spec, Recorder::new());
                traced_s.push(t.elapsed().as_secs_f64());
                if digest(DIGEST_SEED, &plain) != digest(DIGEST_SEED, &traced) {
                    return Err(
                        "a traced cell job reported differently from the untraced one".into(),
                    );
                }
                job_records = rec.epochs().len()
                    + rec.packets().len()
                    + rec.profiles().len()
                    + rec.sessions().len();
            }
            records += job_records;
            extra_s += median(&traced_s) - median(&plain_s);
        }
        spans.close(parent);
        let records = records.max(1) as f64;
        Ok(vec![
            ("trace.records", records / RECORD_JOBS as f64),
            ("trace.record_ns", extra_s * 1e9 / records),
        ])
    }
}
