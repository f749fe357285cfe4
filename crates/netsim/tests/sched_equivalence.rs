//! Scheduler equivalence: the sharded multi-core engine must reproduce
//! the sequential wheel's results *byte for byte* — reports, logical
//! event counts, raw pop counts, and exported trace JSONL — for every
//! worker count, seed, and scenario here. Every report's conservation
//! ledger must balance too; CI reruns the suite in release with
//! `strict-invariants`, which also checks the ledger after every event.

use verus_baselines::{Cubic, NewReno, Sprout, Vegas};
use verus_cellular::{OperatorModel, Scenario};
use verus_core::VerusCc;
use verus_netsim::queue::QueueConfig;
use verus_netsim::{
    Blackout, BottleneckConfig, FlowConfig, ImpairmentConfig, LossModel, SchedulerKind, SimConfig,
    Simulation,
};
use verus_nettypes::{SimDuration, SimTime};
use verus_trace::{to_jsonl, Recorder, TraceHandle};

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
const SEEDS: [u64; 3] = [1, 7, 42];

fn cell() -> BottleneckConfig {
    BottleneckConfig::Cell {
        trace: Scenario::CampusStationary
            .generate_trace(OperatorModel::EtisalatLte, SimDuration::from_secs(5), 42)
            .expect("trace")
            .scale_rate(8.0),
        base_rtt: SimDuration::from_millis(40),
        loss: 0.0,
    }
}

fn lossy_cell() -> BottleneckConfig {
    BottleneckConfig::Cell {
        trace: Scenario::HighwayDriving
            .generate_trace(OperatorModel::Etisalat3G, SimDuration::from_secs(5), 9)
            .expect("trace")
            .scale_rate(6.0),
        base_rtt: SimDuration::from_millis(60),
        loss: 0.02,
    }
}

/// Scenario 1: a clean cubic crowd behind the paper's RED queue,
/// staggered starts (scenario 5's shape, scaled down).
fn clean_crowd(seed: u64) -> SimConfig {
    let flows = (0..6)
        .map(|i| {
            FlowConfig::new(Box::new(Cubic::new())).starting_at(SimTime::from_millis(i * 50))
        })
        .collect();
    SimConfig {
        bottleneck: cell(),
        queue: QueueConfig::paper_red(),
        flows,
        duration: SimDuration::from_secs(2),
        seed,
        throughput_window: SimDuration::from_secs(1),
        impairments: Default::default(),
        abc: None,
    }
}

/// Scenario 2: five different protocols (different tick cadences, loss
/// detectors, and window dynamics) with per-flow RTT diversity over a
/// lossy channel.
fn mixed_protocols(seed: u64) -> SimConfig {
    let ccs: Vec<Box<dyn verus_nettypes::CongestionControl>> = vec![
        Box::new(VerusCc::default()),
        Box::new(Cubic::new()),
        Box::new(NewReno::new()),
        Box::new(Vegas::new()),
        Box::new(Sprout::default()),
    ];
    let flows = ccs
        .into_iter()
        .enumerate()
        .map(|(i, cc)| {
            FlowConfig::new(cc)
                .starting_at(SimTime::from_millis(i as u64 * 120))
                .with_extra_rtt(SimDuration::from_millis(10 * i as u64))
        })
        .collect();
    SimConfig {
        bottleneck: lossy_cell(),
        queue: QueueConfig::deep_droptail(),
        flows,
        duration: SimDuration::from_secs(2),
        seed,
        throughput_window: SimDuration::from_secs(1),
        impairments: Default::default(),
        abc: None,
    }
}

/// Scenario 3: the full impairment pipeline — bursty loss, reordering,
/// duplication, corruption, and a mid-run blackout.
fn impaired(seed: u64) -> SimConfig {
    let flows = (0..5)
        .map(|i| {
            let cc: Box<dyn verus_nettypes::CongestionControl> = if i % 2 == 0 {
                Box::new(VerusCc::default())
            } else {
                Box::new(Cubic::new())
            };
            FlowConfig::new(cc).starting_at(SimTime::from_millis(i * 70))
        })
        .collect();
    SimConfig {
        bottleneck: cell(),
        queue: QueueConfig::paper_red(),
        flows,
        duration: SimDuration::from_secs(2),
        seed,
        throughput_window: SimDuration::from_secs(1),
        impairments: ImpairmentConfig {
            loss: LossModel::GilbertElliott {
                p_good_to_bad: 0.01,
                p_bad_to_good: 0.3,
                loss_good: 0.0,
                loss_bad: 0.2,
            },
            reorder_prob: 0.05,
            reorder_extra_delay: SimDuration::from_millis(30),
            duplicate_prob: 0.02,
            corrupt_prob: 0.02,
            blackouts: vec![Blackout {
                start: SimTime::from_millis(1500),
                duration: SimDuration::from_millis(400),
            }],
            seed: seed ^ 0xD1CE,
        },
        abc: None,
    }
}

/// Scenario 4: finite transfers completing mid-run plus shed-capped
/// full-buffer flows (completion times and the shed ledger must fold
/// across the shard split too).
fn finite_and_shed(seed: u64) -> SimConfig {
    let mut flows: Vec<FlowConfig> = (0..3)
        .map(|i| {
            FlowConfig::new(Box::new(NewReno::new()))
                .starting_at(SimTime::from_millis(i * 100))
                .with_transfer(200_000 + 50_000 * i)
        })
        .collect();
    flows.extend((0..3).map(|i| {
        FlowConfig::new(Box::new(Cubic::new()))
            .starting_at(SimTime::from_millis(40 * i))
            .with_shed_cap(64)
    }));
    SimConfig {
        bottleneck: cell(),
        queue: QueueConfig::paper_red(),
        flows,
        duration: SimDuration::from_secs(2),
        seed,
        throughput_window: SimDuration::from_secs(1),
        impairments: Default::default(),
        abc: None,
    }
}

/// Scenario 5: a 100-flow CUBIC crowd behind the paper's RED queue,
/// starts staggered 50 ms apart over the first 5 s, on the LTE burst
/// structure scaled 50×: at W = 4 each worker still owns 25 flows.
fn hundred_flow_crowd(seed: u64) -> SimConfig {
    let flows = (0..100)
        .map(|i| {
            FlowConfig::new(Box::new(Cubic::new())).starting_at(SimTime::from_millis(i * 50))
        })
        .collect();
    SimConfig {
        bottleneck: BottleneckConfig::Cell {
            trace: Scenario::CampusStationary
                .generate_trace(OperatorModel::EtisalatLte, SimDuration::from_secs(10), 42)
                .expect("trace")
                .scale_rate(50.0),
            base_rtt: SimDuration::from_millis(40),
            loss: 0.0,
        },
        queue: QueueConfig::paper_red(),
        flows,
        duration: SimDuration::from_secs(5),
        seed,
        throughput_window: SimDuration::from_secs(1),
        impairments: Default::default(),
        abc: None,
    }
}

/// Runs one config under one scheduler; returns the full-fidelity
/// report rendering plus the instrumentation counters. Every flow's
/// conservation ledger must balance.
fn run(config: SimConfig, kind: SchedulerKind) -> (String, u64, u64) {
    let sim = Simulation::new(config)
        .expect("valid config")
        .with_scheduler(kind);
    let (reports, events, pops) = sim.run_instrumented();
    for r in &reports {
        assert!(
            r.ledger_balances(),
            "{kind:?}: flow {} conservation ledger does not balance",
            r.flow
        );
    }
    (format!("{reports:#?}"), events, pops)
}

fn assert_sharding_matches(make: fn(u64) -> SimConfig, name: &str, seeds: &[u64]) {
    for &seed in seeds {
        let (base_reports, base_events, base_pops) = run(make(seed), SchedulerKind::Wheel);
        for workers in WORKER_COUNTS {
            let (reports, events, pops) =
                run(make(seed), SchedulerKind::Sharded { workers });
            assert_eq!(
                base_reports, reports,
                "{name}: seed {seed}, W={workers}: reports diverged from the sequential wheel"
            );
            assert_eq!(
                (base_events, base_pops),
                (events, pops),
                "{name}: seed {seed}, W={workers}: event/pop counters diverged"
            );
        }
    }
}

#[test]
fn sharded_clean_crowd_is_byte_identical() {
    assert_sharding_matches(clean_crowd, "clean_crowd", &SEEDS);
}

#[test]
fn sharded_mixed_protocols_are_byte_identical() {
    assert_sharding_matches(mixed_protocols, "mixed_protocols", &SEEDS);
}

#[test]
fn sharded_impaired_run_is_byte_identical() {
    assert_sharding_matches(impaired, "impaired", &SEEDS);
}

#[test]
fn sharded_finite_and_shed_flows_are_byte_identical() {
    assert_sharding_matches(finite_and_shed, "finite_and_shed", &SEEDS);
}

#[test]
fn sharded_hundred_flow_crowd_is_byte_identical() {
    assert_sharding_matches(hundred_flow_crowd, "hundred_flow_crowd", &[7]);
}

/// The trace path: two instrumented Verus flows share one recorder.
/// The sharded engine dispatches them on different threads with batched
/// flushes, so raw arrival order differs — the exported JSONL must not.
#[test]
fn sharded_trace_jsonl_is_byte_identical() {
    fn traced_run(kind: SchedulerKind, seed: u64) -> String {
        let (handle_a, shared) = Recorder::with_capacity(1 << 16, 1 << 16, 1 << 10).shared();
        let handle_b = TraceHandle::new(shared.clone());
        let flows = vec![
            FlowConfig::new(Box::new(VerusCc::default())).with_trace(handle_a),
            FlowConfig::new(Box::new(VerusCc::default()))
                .starting_at(SimTime::from_millis(80))
                .with_trace(handle_b),
            FlowConfig::new(Box::new(Cubic::new())).starting_at(SimTime::from_millis(30)),
        ];
        let config = SimConfig {
            bottleneck: cell(),
            queue: QueueConfig::paper_red(),
            flows,
            duration: SimDuration::from_secs(2),
            seed,
            throughput_window: SimDuration::from_secs(1),
            impairments: Default::default(),
            abc: None,
        };
        let reports = Simulation::new(config)
            .expect("valid config")
            .with_scheduler(kind)
            .run();
        assert_eq!(reports.len(), 3);
        let rec = shared.lock().expect("recorder unpoisoned");
        let text = to_jsonl(&rec, "netsim", "sim");
        assert_eq!(
            rec.dropped(),
            verus_trace::DropCounts::default(),
            "recorder overflowed; grow the capacity so drops cannot \
             depend on arrival order"
        );
        text
    }
    for seed in SEEDS {
        let base = traced_run(SchedulerKind::Wheel, seed);
        assert!(
            base.lines().count() > 10,
            "trace capture looks empty — instrumentation wiring broke"
        );
        for workers in WORKER_COUNTS {
            let sharded = traced_run(SchedulerKind::Sharded { workers }, seed);
            assert_eq!(
                base, sharded,
                "seed {seed}, W={workers}: exported trace bytes diverged"
            );
        }
    }
}

/// The documented fallbacks run sequentially but still via the
/// `Sharded` entry point: same bytes, no worker threads.
#[test]
fn sharded_fallbacks_match_too() {
    // Fixed bottleneck: sharding requires a cell link.
    let fixed = |seed| SimConfig {
        bottleneck: BottleneckConfig::fixed(8e6, SimDuration::from_millis(40), 0.0),
        queue: QueueConfig::deep_droptail(),
        flows: vec![
            FlowConfig::new(Box::new(Cubic::new())),
            FlowConfig::new(Box::new(NewReno::new())),
        ],
        duration: SimDuration::from_secs(2),
        seed,
        throughput_window: SimDuration::from_secs(1),
        impairments: Default::default(),
        abc: None,
    };
    let (base, be, bp) = run(fixed(7), SchedulerKind::Wheel);
    let (got, ge, gp) = run(fixed(7), SchedulerKind::Sharded { workers: 4 });
    assert_eq!(base, got, "fixed-bottleneck fallback diverged");
    assert_eq!((be, bp), (ge, gp));
    // Observer intervals shorter than the run also fall back.
    let observed = |kind| {
        let mut ticks = 0u32;
        let reports = Simulation::new(clean_crowd(7))
            .expect("valid config")
            .with_scheduler(kind)
            .run_observed(SimDuration::from_millis(500), |_, _| ticks += 1);
        (format!("{reports:#?}"), ticks)
    };
    let (base, base_ticks) = observed(SchedulerKind::Wheel);
    let (got, got_ticks) = observed(SchedulerKind::Sharded { workers: 4 });
    assert_eq!(base, got, "observed-run fallback diverged");
    assert_eq!(base_ticks, got_ticks);
    assert!(base_ticks > 0);
}
