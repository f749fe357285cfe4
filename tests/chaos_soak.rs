//! Chaos soak tests: seeded adversarial schedules on both substrates,
//! judged against the recovery SLOs of DESIGN.md §12.
//!
//! The fault-injection suite (`fault_injection.rs`) proves the sender
//! survives impairments; this suite points the same chaos at the
//! session layer and asserts the stronger resilience contract:
//!
//! * after every blackout window ends, the system recovers within
//!   `2 × backoff_cap` (sim: first delivered throughput window;
//!   transport: first `Established` transition);
//! * zero stuck flows — the sim flow keeps delivering after the last
//!   outage, the transport flow's session drains to `Closed`;
//! * the conservation ledger balances exactly, including the overload
//!   guard's `shed_dropped` column.
//!
//! `bench_chaos` runs the same judgements standalone and emits the
//! committed `CHAOS_0.json`; these tests keep them in the tier-1 suite.

use verus_bench::soak::{blackout_train, sim_soak, transport_soak, SLO_BUDGET};
use verus_nettypes::SimDuration;
use verus_transport::SessionState;

#[test]
fn netsim_chaos_soak_meets_recovery_slos() {
    // The bench_chaos full schedule: 30 simulated seconds, three 2 s
    // outages, overload guard armed at 1024 outstanding.
    let sched = blackout_train(5, 2000, 4000, 3);
    let windows = sched.blackout_windows();
    let r = &sim_soak(&sched, SimDuration::from_secs(30));

    assert!(r.ledger_balances(), "conservation ledger broken: {r:?}");
    assert!(
        r.shed_dropped > 0,
        "the overload guard never fired; the soak is not exercising shedding"
    );
    assert!(r.timeouts > 0, "the blackout train must force RTOs");

    // Recovery SLO per outage: a delivered throughput window within the
    // budget of each blackout's end.
    let series = r.throughput.series_bps();
    for b in &windows {
        let end_s = b.end().as_secs_f64();
        let recovered = series
            .iter()
            .find(|&&(t, bps)| t >= end_s && bps > 0.0)
            .map(|&(t, _)| SimDuration::from_millis_f64((t - end_s) * 1e3));
        let d = recovered.unwrap_or_else(|| panic!("stuck after the outage ending at {end_s} s"));
        assert!(
            d <= SLO_BUDGET,
            "recovery after the outage ending at {end_s} s took {} ms (budget {} ms)",
            d.as_millis_f64(),
            SLO_BUDGET.as_millis_f64(),
        );
    }

    // Zero stuck flows: still delivering after the last outage.
    let last_end = windows.last().expect("train has outages").end().as_secs_f64();
    let post: f64 = series
        .iter()
        .filter(|(t, _)| *t >= last_end)
        .map(|(_, bps)| bps)
        .sum();
    assert!(post > 0.0, "no throughput after the final outage");
}

#[test]
fn transport_chaos_soak_reestablishes_within_slo() {
    // One 1.5 s outage on the wall clock: long enough to drive the
    // session through Degraded → Reconnecting, short enough for tier-1.
    let sched = blackout_train(2, 1500, 3000, 1);
    let windows = sched.blackout_windows();

    let report = transport_soak(&sched, SimDuration::from_secs(8)).unwrap();

    assert!(report.reached_established(), "never established: {:?}", report.transitions);
    assert_eq!(
        report.final_state,
        SessionState::Closed,
        "session stuck: {:?}",
        report.transitions
    );
    assert!(
        report.reconnects() >= 1,
        "the outage must force a reconnect cycle: {:?}",
        report.transitions
    );
    assert!(report.probes_sent >= 1, "reconnecting must probe");
    let s = &report.stats;
    assert!(s.acked > 0, "nothing acknowledged");
    assert!(
        s.acked <= s.sent - s.shed_dropped,
        "shed accounting inconsistent: {s:?}"
    );

    // Recovery SLO: first Established edge at or after each blackout
    // end lands within the budget.
    for b in &windows {
        let recovered = report
            .transitions
            .iter()
            .find(|t| t.to == SessionState::Established && t.at >= b.end())
            .map(|t| t.at.saturating_since(b.end()));
        let d = recovered.unwrap_or_else(|| {
            panic!(
                "no re-establishment after the outage ending at {:.1} s: {:?}",
                b.end().as_secs_f64(),
                report.transitions
            )
        });
        assert!(
            d <= SLO_BUDGET,
            "re-establishment took {} ms (budget {} ms): {:?}",
            d.as_millis_f64(),
            SLO_BUDGET.as_millis_f64(),
            report.transitions
        );
    }

    // The session layer's recovery bookkeeping agrees with the SLO
    // judgement: every recorded recovery is a real Reconnecting (or
    // Connecting) → Established edge with a measured duration.
    for d in report.recovery_times() {
        assert!(d <= SimDuration::from_secs(8), "nonsense recovery time {d:?}");
    }
}
