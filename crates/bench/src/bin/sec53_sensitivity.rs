//! §5.3 parameter sensitivity: ε (epoch), the profile update interval,
//! and the δ₁/δ₂ pair, swept one at a time around the paper's chosen
//! operating point (ε = 5 ms, update = 1 s, δ₁ = 1 ms, δ₂ = 2 ms).
//!
//! Shapes to reproduce (the reasons §5.3 gives for its choices):
//! * ε much larger than 5 ms reacts too slowly (delay up);
//! * update intervals well above 1 s miss slow-fading shifts
//!   (throughput down / delay up);
//! * larger δ values are more aggressive (throughput up, delay up).
//!
//! The "design ablation" rows switch off one of the reproduction's own
//! design choices (DESIGN.md §5) at the same operating point: the
//! monotone instead of the natural spline, the delay profile updated
//! during loss recovery, and the paper-literal all-time Dmin. The ε = 5 ms
//! and 1 s update rows run the unablated default.

use serde::Serialize;
use verus_bench::{guard_finite, print_table, write_json};
use verus_cellular::{OperatorModel, Scenario};
use verus_core::{SplineKind, VerusCc, VerusConfig};
use verus_netsim::queue::QueueConfig;
use verus_netsim::{BottleneckConfig, FlowConfig, SimConfig, Simulation};
use verus_nettypes::SimDuration;

#[derive(Serialize)]
struct SweepPoint {
    parameter: String,
    value: String,
    mbps: f64,
    delay_ms: f64,
}

fn run_config(config: VerusConfig, seed: u64) -> (f64, f64) {
    let trace = Scenario::CampusPedestrian
        .generate_trace(OperatorModel::Etisalat3G, SimDuration::from_secs(90), 2400)
        .expect("trace");
    let sim = SimConfig {
        bottleneck: BottleneckConfig::Cell {
            trace,
            base_rtt: SimDuration::from_millis(40),
            loss: 0.0,
        },
        queue: QueueConfig::deep_droptail(),
        flows: vec![FlowConfig::new(Box::new(VerusCc::new(config)))],
        duration: SimDuration::from_secs(90),
        seed,
        throughput_window: SimDuration::from_secs(1),
        impairments: Default::default(),
        abc: None,
    };
    let r = Simulation::new(sim).unwrap().run().remove(0);
    (r.mean_throughput_mbps(), r.mean_delay_ms())
}

fn main() {
    let mut rows = Vec::new();
    let mut out = Vec::new();
    let mut push = |parameter: &str, value: String, mbps: f64, delay: f64| {
        rows.push(vec![
            parameter.to_string(),
            value.clone(),
            format!("{mbps:.2}"),
            format!("{delay:.0}"),
        ]);
        out.push(SweepPoint {
            parameter: parameter.into(),
            value,
            mbps,
            delay_ms: delay,
        });
    };

    // ε sweep.
    for eps_ms in [1u64, 2, 5, 10, 20] {
        let (t, d) = run_config(
            VerusConfig {
                epoch: SimDuration::from_millis(eps_ms),
                ..VerusConfig::default()
            },
            2500 + eps_ms,
        );
        push("epoch ε", format!("{eps_ms} ms"), t, d);
    }
    // Update-interval sweep.
    for upd_ms in [250u64, 500, 1000, 2000, 4000] {
        let (t, d) = run_config(
            VerusConfig {
                update_interval: SimDuration::from_millis(upd_ms),
                ..VerusConfig::default()
            },
            2600 + upd_ms,
        );
        push("update interval", format!("{} s", upd_ms as f64 / 1000.0), t, d);
    }
    // δ sweep (δ₁, δ₂) with δ₁ ≤ δ₂.
    for (d1, d2) in [(0.5, 1.0), (1.0, 1.0), (1.0, 2.0), (2.0, 2.0), (2.0, 4.0)] {
        let (t, d) = run_config(
            VerusConfig {
                delta1: SimDuration::from_millis_f64(d1),
                delta2: SimDuration::from_millis_f64(d2),
                ..VerusConfig::default()
            },
            2700 + (d1 * 10.0 + d2) as u64,
        );
        push("δ1/δ2", format!("{d1}/{d2} ms"), t, d);
    }
    // Design ablations, one choice at a time.
    let ablations = [
        (
            "spline=monotone",
            VerusConfig {
                spline: SplineKind::Monotone,
                ..VerusConfig::default()
            },
        ),
        (
            "freeze_profile_in_recovery=false",
            VerusConfig {
                freeze_profile_in_recovery: false,
                ..VerusConfig::default()
            },
        ),
        (
            "dmin_window=forever",
            VerusConfig {
                dmin_window: SimDuration::MAX,
                ..VerusConfig::default()
            },
        ),
    ];
    for (i, (label, config)) in ablations.into_iter().enumerate() {
        let (t, d) = run_config(config, 2800 + i as u64);
        push("design ablation", label.to_string(), t, d);
    }

    println!("§5.3 — Verus parameter sensitivity (campus pedestrian 3G trace)");
    println!();
    print_table(
        &["parameter", "value", "throughput (Mbit/s)", "delay (ms)"],
        &rows,
    );
    println!();
    println!("paper shape: ε = 5 ms and a 1 s update interval sit at the knee of");
    println!("their sweeps; larger δ values trade delay for throughput.");

    let checks: Vec<(&str, f64)> = out
        .iter()
        .flat_map(|p| [("throughput", p.mbps), ("delay", p.delay_ms)])
        .collect();
    guard_finite("sec53_sensitivity", &checks);
    write_json("sec53_sensitivity", &out);
}
