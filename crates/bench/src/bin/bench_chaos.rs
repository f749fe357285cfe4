//! Chaos soak: seeded adversarial runs on both substrates with
//! recovery SLOs.
//!
//! The resilience contract the session layer (DESIGN.md §12) makes:
//! after every outage window ends, the system is *measurably back* —
//! the simulator delivers packets again, and the transport flow's
//! session re-enters `Established` — within a fixed budget derived from
//! the reconnect backoff cap:
//!
//! ```text
//! slo_budget = 2 × backoff_cap
//! ```
//!
//! (One cap bounds the worst-case gap until the next probe fires after
//! the link returns; the second covers the probe's round trip and
//! scheduling noise with room to spare.)
//!
//! Both substrates run the same [`ChaosSchedule`] composition — a
//! flapping-blackout train over Gilbert–Elliott loss spikes — seeded,
//! so the simulator half of the output is bit-identical across runs
//! with the same seed. The transport half runs on the wall clock, so
//! only *judgements* (SLO booleans) are recorded for it, never raw
//! timings: the emitted artifact is byte-stable across same-seed runs
//! on any machine that meets the SLOs.
//!
//! Checked per run:
//! * recovery p99 ≤ `slo_budget` after each blackout end (both
//!   substrates; sim = first delivered throughput window, transport =
//!   first `Established` transition);
//! * zero stuck flows — the sim flow delivers after the last outage,
//!   the transport session ends `Closed` having reached `Established`;
//! * the conservation ledger balances, including the overload guard's
//!   `shed_dropped` column.
//!
//! Output: `CHAOS_0.json` (override with `VERUS_BENCH_OUT`). `--smoke`
//! runs a shortened schedule with the same schema — CI's chaos-smoke
//! job jq-validates that record.

use std::fmt::Write as _;
use verus_bench::soak::{
    blackout_train, loss_spikes, sim_soak, transport_soak, BACKOFF_CAP, SEED, SLO_BUDGET,
};
use verus_netsim::chaos::ChaosSchedule;
use verus_netsim::impairment::Blackout;
use verus_nettypes::SimDuration;
use verus_transport::SessionState;

/// Full mode runs the shared `BlackoutRecovery` stress scenario — the
/// same named outage train `bench_tournament` scores protocols on —
/// with the soak's loss spikes riding along.
fn full_sim_schedule() -> ChaosSchedule {
    ChaosSchedule::for_stress(&verus_cellular::StressScenario::BlackoutRecovery, SEED)
        .with(loss_spikes())
}

struct SimOutcome {
    blackouts: usize,
    /// Per blackout, the start of the first throughput window with
    /// deliveries minus the blackout's end. Quantised to the 100 ms
    /// `throughput_window`: 0 means "delivering again within the first
    /// window after the outage", not an instantaneous recovery.
    recoveries_ms: Vec<f64>,
    ledger_balanced: bool,
    delivered: u64,
    shed_dropped: u64,
    timeouts: u64,
}

/// Runs the simulator soak and measures, for each blackout end, the
/// time until the first 100 ms throughput window with deliveries.
fn judge_sim(sched: &ChaosSchedule, duration: SimDuration) -> SimOutcome {
    let windows = sched.blackout_windows();
    let r = sim_soak(sched, duration);
    let series = r.throughput.series_bps();
    let recoveries_ms = windows
        .iter()
        .map(|b| {
            let end_s = b.end().as_secs_f64();
            let recovered_at = series
                .iter()
                .find(|&&(t, bps)| t >= end_s && bps > 0.0)
                .map(|&(t, _)| t);
            match recovered_at {
                Some(t) => (t - end_s) * 1e3,
                None => f64::INFINITY, // stuck: no delivery after this outage
            }
        })
        .collect();
    SimOutcome {
        blackouts: windows.len(),
        recoveries_ms,
        ledger_balanced: r.ledger_balances(),
        delivered: r.delivered,
        shed_dropped: r.shed_dropped,
        timeouts: r.timeouts,
    }
}

struct TransportOutcome {
    blackouts: usize,
    reached_established: bool,
    recovered_after_every_blackout: bool,
    recovery_p99_within_slo: bool,
    final_state_closed: bool,
    ledger_consistent: bool,
}

/// Runs the transport soak and judges the recovery SLO from the
/// session transition log: for each blackout end, the first
/// `Established` edge at or after it.
fn judge_transport(sched: &ChaosSchedule, duration: SimDuration) -> std::io::Result<TransportOutcome> {
    let windows = sched.blackout_windows();
    let report = transport_soak(sched, duration)?;
    let recovery_for = |b: &Blackout| -> Option<SimDuration> {
        report
            .transitions
            .iter()
            .find(|t| t.to == SessionState::Established && t.at >= b.end())
            .map(|t| t.at.saturating_since(b.end()))
    };
    let recoveries: Vec<Option<SimDuration>> = windows.iter().map(recovery_for).collect();
    let recovered_all = recoveries.iter().all(Option::is_some);
    let p99_ok = recoveries
        .iter()
        .flatten()
        .all(|&d| d <= SLO_BUDGET);
    let s = &report.stats;
    Ok(TransportOutcome {
        blackouts: windows.len(),
        reached_established: report.reached_established(),
        recovered_after_every_blackout: recovered_all,
        recovery_p99_within_slo: recovered_all && p99_ok,
        final_state_closed: report.final_state == SessionState::Closed,
        ledger_consistent: s.acked <= s.sent - s.shed_dropped,
    })
}

fn p99(sorted_ms: &[f64]) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64) * 0.99).ceil() as usize;
    sorted_ms[idx.saturating_sub(1).min(sorted_ms.len() - 1)]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Smoke: one short outage per substrate, ~12 s sim / 8 s wall.
    // Full: a 3-outage train over a 30 s soak on both substrates.
    let (sim_sched, sim_dur, tr_sched, tr_dur) = if smoke {
        (
            blackout_train(3, 1500, 3000, 2),
            SimDuration::from_secs(12),
            blackout_train(2, 1500, 3000, 1),
            SimDuration::from_secs(8),
        )
    } else {
        (
            full_sim_schedule(),
            SimDuration::from_secs(30),
            blackout_train(4, 2000, 6000, 3),
            SimDuration::from_secs(30),
        )
    };

    println!(
        "chaos soak: seed {SEED}, SLO budget {} ms (2 × {} ms backoff cap){}",
        SLO_BUDGET.as_millis_f64(),
        BACKOFF_CAP.as_millis_f64(),
        if smoke { " [smoke]" } else { "" }
    );

    let sim = judge_sim(&sim_sched, sim_dur);
    let mut sorted = sim.recoveries_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let sim_p99 = p99(&sorted);
    let sim_slo = sim_p99.is_finite() && sim_p99 <= SLO_BUDGET.as_millis_f64();
    println!(
        "  sim: {} blackouts, recoveries {:?} ms (p99 {sim_p99:.0} ms), \
         delivered {}, shed {}, timeouts {}, ledger {}",
        sim.blackouts,
        sim.recoveries_ms,
        sim.delivered,
        sim.shed_dropped,
        sim.timeouts,
        if sim.ledger_balanced { "balanced" } else { "BROKEN" },
    );
    assert!(sim.ledger_balanced, "sim conservation ledger does not balance");
    assert!(sim_slo, "sim recovery p99 {sim_p99:.0} ms exceeds the SLO budget");
    assert!(sim.delivered > 0, "sim flow stuck: nothing delivered");

    let tr = judge_transport(&tr_sched, tr_dur).expect("transport soak I/O");
    println!(
        "  transport: {} blackouts, established={}, recovered_all={}, \
         p99_within_slo={}, closed={}, ledger_consistent={}",
        tr.blackouts,
        tr.reached_established,
        tr.recovered_after_every_blackout,
        tr.recovery_p99_within_slo,
        tr.final_state_closed,
        tr.ledger_consistent,
    );
    assert!(tr.reached_established, "session never reached Established");
    assert!(
        tr.recovered_after_every_blackout,
        "session failed to re-establish after some outage"
    );
    assert!(tr.recovery_p99_within_slo, "transport recovery exceeded the SLO budget");
    assert!(tr.final_state_closed, "session stuck: did not drain to Closed");
    assert!(tr.ledger_consistent, "transport shed accounting inconsistent");

    let mut recoveries_json = String::new();
    for (i, ms) in sim.recoveries_ms.iter().enumerate() {
        let _ = write!(recoveries_json, "{}{ms:.1}", if i == 0 { "" } else { ", " });
    }
    let json = format!(
        "{{\n  \"schema\": \"verus-chaos-soak-v1\",\n  \
         \"seed\": {SEED},\n  \
         \"smoke\": {smoke},\n  \
         \"backoff_cap_ms\": {:.0},\n  \
         \"slo_budget_ms\": {:.0},\n  \
         \"sim\": {{\n    \
         \"duration_secs\": {:.0},\n    \
         \"blackouts\": {},\n    \
         \"recoveries_ms\": [{recoveries_json}],\n    \
         \"recovery_p99_ms\": {sim_p99:.1},\n    \
         \"slo_met\": {sim_slo},\n    \
         \"ledger_balanced\": {},\n    \
         \"delivered\": {},\n    \
         \"shed_dropped\": {},\n    \
         \"timeouts\": {}\n  }},\n  \
         \"transport\": {{\n    \
         \"duration_secs\": {:.0},\n    \
         \"blackouts\": {},\n    \
         \"reached_established\": {},\n    \
         \"recovered_after_every_blackout\": {},\n    \
         \"recovery_p99_within_slo\": {},\n    \
         \"final_state_closed\": {},\n    \
         \"ledger_consistent\": {}\n  }}\n}}",
        BACKOFF_CAP.as_millis_f64(),
        SLO_BUDGET.as_millis_f64(),
        sim_dur.as_secs_f64(),
        sim.blackouts,
        sim.ledger_balanced,
        sim.delivered,
        sim.shed_dropped,
        sim.timeouts,
        tr_dur.as_secs_f64(),
        tr.blackouts,
        tr.reached_established,
        tr.recovered_after_every_blackout,
        tr.recovery_p99_within_slo,
        tr.final_state_closed,
        tr.ledger_consistent,
    );
    let path = std::env::var("VERUS_BENCH_OUT").unwrap_or_else(|_| "CHAOS_0.json".into());
    std::fs::write(&path, json + "\n").expect("write chaos record");
    println!("→ wrote {path}");
}
