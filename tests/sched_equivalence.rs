//! Cross-scheduler equivalence: the timing-wheel event core (with its
//! per-TTI delivery batching) and the original binary-heap scheduler
//! must be *indistinguishable* from the outside. For every scenario ×
//! seed below, both schedulers must produce byte-identical `FlowReport`s
//! and byte-identical `verus-trace` JSONL.
//!
//! This is the wheel's oracle: the wheel replaces the heap only because
//! dispatch order — and therefore every RNG draw, every controller
//! callback, and every metric sample — provably cannot change.
//! `LegacyHeap` is the test-only oracle, selected at runtime with
//! `Simulation::with_scheduler`.

use verus_bench::cc_by_name;
use verus_cellular::{OperatorModel, Scenario, Trace};
use verus_netsim::impairment::{ImpairmentConfig, LossModel};
use verus_netsim::queue::QueueConfig;
use verus_netsim::{
    BottleneckConfig, FlowConfig, LossDetection, SchedulerKind, SimConfig, Simulation,
};
use verus_nettypes::{SimDuration, SimTime};
use verus_trace::{to_jsonl, Recorder};

const SEEDS: [u64; 3] = [11, 23, 47];

fn cell_trace(seed: u64) -> Trace {
    Scenario::CampusStationary
        .generate_trace(OperatorModel::Etisalat3G, SimDuration::from_secs(10), seed)
        .expect("trace")
}

/// Scenario builders — a fresh `SimConfig` per call because flow
/// controllers are not cloneable.
fn single_flow_cell(seed: u64) -> SimConfig {
    SimConfig {
        bottleneck: BottleneckConfig::Cell {
            trace: cell_trace(seed),
            base_rtt: SimDuration::from_millis(40),
            loss: 0.005,
        },
        queue: QueueConfig::paper_red(),
        flows: vec![FlowConfig::new(cc_by_name("verus", 2.0))],
        duration: SimDuration::from_secs(8),
        seed,
        throughput_window: SimDuration::from_secs(1),
        impairments: ImpairmentConfig::default(),
        abc: None,
    }
}

fn ten_flow_red_cell(seed: u64) -> SimConfig {
    let flows = (0..10)
        .map(|i| {
            let name = if i % 2 == 0 { "verus" } else { "cubic" };
            let mut f = FlowConfig::new(cc_by_name(name, 2.0))
                .starting_at(SimTime::from_millis(i * 200));
            if i == 3 {
                // One duplicate-ACK-counting flow so the PacketThreshold
                // detector is exercised under both schedulers too.
                f.loss_detection = LossDetection::tcp();
            }
            f
        })
        .collect();
    SimConfig {
        bottleneck: BottleneckConfig::Cell {
            trace: cell_trace(seed ^ 0xA5),
            base_rtt: SimDuration::from_millis(40),
            loss: 0.0,
        },
        queue: QueueConfig::paper_red(),
        flows,
        duration: SimDuration::from_secs(6),
        seed,
        throughput_window: SimDuration::from_secs(1),
        impairments: ImpairmentConfig::default(),
        abc: None,
    }
}

fn impaired_gilbert_elliott(seed: u64) -> SimConfig {
    SimConfig {
        bottleneck: BottleneckConfig::Cell {
            trace: cell_trace(seed ^ 0x5A),
            base_rtt: SimDuration::from_millis(50),
            loss: 0.0,
        },
        queue: QueueConfig::paper_red(),
        flows: vec![
            FlowConfig::new(cc_by_name("verus", 2.0)),
            FlowConfig::new(cc_by_name("newreno", 2.0)),
        ],
        duration: SimDuration::from_secs(8),
        seed,
        throughput_window: SimDuration::from_secs(1),
        impairments: ImpairmentConfig {
            loss: LossModel::GilbertElliott {
                p_good_to_bad: 0.01,
                p_bad_to_good: 0.2,
                loss_good: 0.0,
                loss_bad: 0.5,
            },
            // Exercise every batch-splitting edge: reordering perturbs
            // arrival times, duplication inserts extra queue entries,
            // corruption drops packets mid-batch.
            reorder_prob: 0.01,
            reorder_extra_delay: SimDuration::from_millis(30),
            duplicate_prob: 0.005,
            corrupt_prob: 0.005,
            blackouts: Vec::new(),
            seed: seed.wrapping_mul(31),
        },
        abc: None,
    }
}

fn fixed_dumbbell(seed: u64) -> SimConfig {
    SimConfig {
        bottleneck: BottleneckConfig::fixed(8e6, SimDuration::from_millis(60), 0.01),
        queue: QueueConfig::deep_droptail(),
        flows: vec![
            FlowConfig::new(cc_by_name("verus", 2.0)),
            FlowConfig::new(cc_by_name("cubic", 2.0)).starting_at(SimTime::from_secs(1)),
        ],
        duration: SimDuration::from_secs(8),
        seed,
        throughput_window: SimDuration::from_secs(1),
        impairments: ImpairmentConfig::default(),
        abc: None,
    }
}

/// A 300-flow crowd behind the paper's RED queue: Verus, CUBIC and
/// NewReno in turn, starts staggered 5 ms apart, on the LTE burst
/// structure scaled 100×. Four forward-path extras (0, 3, 7 and 12 ms)
/// spread one TTI's departures over several arrival times, and egress
/// reordering gives some packets a later arrival than their flow's
/// others. At seed 11 the busiest drain holds 32 `(flow, arrival)`
/// groups, and about 3 000 groups are a flow's second in their TTI.
fn mixed_crowd_with_reordering(seed: u64) -> SimConfig {
    const PROTOCOLS: [&str; 3] = ["verus", "cubic", "newreno"];
    const EXTRA_FWD_MS: [u64; 4] = [0, 3, 7, 12];
    let flows = (0..300usize)
        .map(|i| {
            let mut f = FlowConfig::new(cc_by_name(PROTOCOLS[i % 3], 2.0))
                .starting_at(SimTime::from_millis(i as u64 * 5));
            f.extra_fwd_delay = SimDuration::from_millis(EXTRA_FWD_MS[i % 4]);
            if PROTOCOLS[i % 3] != "verus" {
                f.loss_detection = LossDetection::tcp();
            }
            f
        })
        .collect();
    SimConfig {
        bottleneck: BottleneckConfig::Cell {
            trace: Scenario::CampusStationary
                .generate_trace(OperatorModel::EtisalatLte, SimDuration::from_secs(4), seed)
                .expect("trace")
                .scale_rate(100.0),
            base_rtt: SimDuration::from_millis(40),
            loss: 0.0,
        },
        queue: QueueConfig::paper_red(),
        flows,
        duration: SimDuration::from_secs(4),
        seed,
        throughput_window: SimDuration::from_secs(1),
        impairments: ImpairmentConfig {
            reorder_prob: 0.02,
            reorder_extra_delay: SimDuration::from_millis(4),
            seed: seed.wrapping_mul(17),
            ..ImpairmentConfig::default()
        },
        abc: None,
    }
}

/// Runs `config` on the given scheduler, with raw delay-sample buffering
/// on or off, and returns the reports' canonical byte form. `Debug`
/// covers every public field of every report — throughput series, delay
/// samples or sketch, exact moments, ledger residuals, completion times
/// — so byte equality here is report equality.
fn run_reports(config: SimConfig, kind: SchedulerKind, delay_samples: bool) -> String {
    let sim = Simulation::new(config)
        .expect("valid config")
        .with_scheduler(kind)
        .with_delay_samples(delay_samples);
    assert_eq!(sim.scheduler(), kind, "scheduler selection must stick");
    let out = format!("{:#?}", sim.run());
    // Unbuffered flows carry the quantile sketch instead of samples.
    assert_eq!(
        out.contains("delay_sketch: Some("),
        !delay_samples,
        "delay-sample setting must stick"
    );
    out
}

/// Runs `config` with flow 0 traced on the given scheduler and returns
/// the full JSONL export.
fn run_jsonl(mut config: SimConfig, kind: SchedulerKind) -> String {
    let recorder = Recorder::new();
    let (handle, shared) = recorder.shared();
    let flow0 = config.flows.remove(0).with_trace(handle.clone());
    config.flows.insert(0, flow0);
    let _reports = Simulation::new(config)
        .expect("valid config")
        .with_scheduler(kind)
        .run();
    drop(handle);
    let rec = shared
        .lock()
        .map(|mut r| std::mem::take(&mut *r))
        .expect("recorder lock");
    to_jsonl(&rec, "netsim", "sim")
}

fn assert_equivalent(name: &str, mk: fn(u64) -> SimConfig) {
    assert_equivalent_on(name, mk, &SEEDS, true);
}

fn assert_equivalent_on(name: &str, mk: fn(u64) -> SimConfig, seeds: &[u64], delay_samples: bool) {
    for &seed in seeds {
        let wheel = run_reports(mk(seed), SchedulerKind::Wheel, delay_samples);
        let heap = run_reports(mk(seed), SchedulerKind::LegacyHeap, delay_samples);
        assert!(
            wheel == heap,
            "{name} seed {seed}: FlowReports diverged between Wheel and LegacyHeap\n\
             --- wheel ---\n{}\n--- heap ---\n{}",
            &wheel[..wheel.len().min(4000)],
            &heap[..heap.len().min(4000)],
        );
    }
}

#[test]
fn single_flow_cell_reports_match() {
    assert_equivalent("single-flow cell", single_flow_cell);
}

#[test]
fn ten_flow_red_crowd_reports_match() {
    assert_equivalent("10-flow RED cell", ten_flow_red_cell);
}

#[test]
fn impaired_gilbert_elliott_reports_match() {
    assert_equivalent("impaired Gilbert-Elliott", impaired_gilbert_elliott);
}

#[test]
fn fixed_dumbbell_reports_match() {
    assert_equivalent("fixed dumbbell", fixed_dumbbell);
}

#[test]
fn mixed_crowd_with_reordering_reports_match() {
    assert_equivalent_on(
        "300-flow mixed crowd",
        mixed_crowd_with_reordering,
        &SEEDS[..1],
        true,
    );
}

#[test]
fn mixed_crowd_without_delay_samples_reports_match() {
    // The delay sketch replaces the sample buffer here, so its P² and
    // histogram updates must also see the same delays in the same order.
    assert_equivalent_on(
        "300-flow mixed crowd, no delay samples",
        mixed_crowd_with_reordering,
        &SEEDS[1..2],
        false,
    );
}

#[test]
fn trace_jsonl_is_byte_identical_across_schedulers() {
    for seed in SEEDS {
        let wheel = run_jsonl(single_flow_cell(seed), SchedulerKind::Wheel);
        let heap = run_jsonl(single_flow_cell(seed), SchedulerKind::LegacyHeap);
        assert!(!wheel.is_empty(), "trace export produced nothing");
        assert!(
            wheel == heap,
            "seed {seed}: verus-trace JSONL diverged between schedulers"
        );
    }
    // And under contention + impairments, where batching actually kicks in.
    let wheel = run_jsonl(impaired_gilbert_elliott(SEEDS[0]), SchedulerKind::Wheel);
    let heap = run_jsonl(impaired_gilbert_elliott(SEEDS[0]), SchedulerKind::LegacyHeap);
    assert!(wheel == heap, "impaired trace JSONL diverged between schedulers");
}

#[test]
fn batching_actually_reduces_event_count() {
    // Guard against the wheel silently falling back to per-packet
    // events: under a saturated cell bottleneck the batched run must
    // pop strictly fewer scheduler events while reporting the same
    // logical event count.
    let wheel = Simulation::new(ten_flow_red_cell(SEEDS[0]))
        .expect("valid config")
        .with_scheduler(SchedulerKind::Wheel);
    let heap = Simulation::new(ten_flow_red_cell(SEEDS[0]))
        .expect("valid config")
        .with_scheduler(SchedulerKind::LegacyHeap);
    let (_, wheel_events, wheel_pops) = wheel.run_instrumented();
    let (_, heap_events, heap_pops) = heap.run_instrumented();
    assert_eq!(
        wheel_events, heap_events,
        "logical event counts must agree across schedulers"
    );
    assert_eq!(
        heap_pops, heap_events,
        "the heap oracle pops once per event"
    );
    assert!(
        wheel_pops < heap_pops,
        "batching saved no pops: wheel {wheel_pops} vs heap {heap_pops}"
    );
}
