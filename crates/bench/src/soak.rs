//! The chaos soak's shared pieces: its channels, its outage schedule and
//! its two runs, one per substrate. `bench_chaos` judges them into
//! `CHAOS_0.json`; `tests/chaos_soak.rs` and `tests/fault_injection.rs`
//! keep the same judgements in the tier-1 suite.

use verus_cellular::Trace;
use verus_core::VerusCc;
use verus_netsim::chaos::{ChaosSchedule, ChaosScript};
use verus_netsim::queue::QueueConfig;
use verus_netsim::{BottleneckConfig, FlowConfig, FlowReport, SimConfig, Simulation};
use verus_nettypes::{SimDuration, SimTime};
use verus_transport::{
    Emulator, EmulatorConfig, FlowSpec, Receiver, SessionConfig, SessionReport, ShardServer,
    ShardServerConfig, WallClock,
};

/// The soak's seed (schedules, simulator, session jitter).
pub const SEED: u64 = 21;
/// The transport session's reconnect backoff ceiling.
pub const BACKOFF_CAP: SimDuration = SimDuration::from_millis(1000);
/// The recovery budget, `2 × BACKOFF_CAP`: one cap bounds the wait for
/// the next probe after the link returns, the second covers the
/// probe's round trip and scheduling noise.
pub const SLO_BUDGET: SimDuration = SimDuration::from_millis(2000);

/// Synthetic constant-rate trace: one opportunity per millisecond,
/// looped for the run's lifetime. Deterministic (no RNG).
///
/// # Panics
/// Never for `bytes_per_ms > 0` (the times are increasing).
#[must_use]
pub fn steady_trace(bytes_per_ms: u32, secs: u64) -> Trace {
    Trace::from_times(
        "steady",
        (0..secs * 1000).map(SimTime::from_millis),
        bytes_per_ms,
    )
    .expect("trace")
}

/// Gilbert–Elliott loss spikes that ride along a whole soak.
#[must_use]
pub fn loss_spikes() -> ChaosScript {
    ChaosScript::LossSpikeTrain {
        p_enter: 0.02,
        p_exit: 0.5,
        base_loss: 0.0,
        spike_loss: 1.0,
    }
}

/// A train of `repeats` blackouts of `outage_ms`, `gap_ms` apart from
/// `start_s`, over [`loss_spikes`].
#[must_use]
pub fn blackout_train(start_s: u64, outage_ms: u64, gap_ms: u64, repeats: u64) -> ChaosSchedule {
    ChaosSchedule::new(SEED)
        .with(ChaosScript::FlappingBlackout {
            start: SimTime::from_secs(start_s),
            outage: SimDuration::from_millis(outage_ms),
            gap: SimDuration::from_millis(gap_ms),
            repeats,
        })
        .with(loss_spikes())
}

/// The simulator soak: one Verus flow on a 28 Mbit/s steady cell with
/// `sched`'s impairments, its overload guard armed at 1024 outstanding
/// (quota over the cap is shed into the ledger's `shed_dropped`
/// column), throughput in 100 ms windows.
///
/// # Panics
/// If `sched` does not compile.
#[must_use]
pub fn sim_soak(sched: &ChaosSchedule, duration: SimDuration) -> FlowReport {
    let config = SimConfig {
        bottleneck: BottleneckConfig::Cell {
            trace: steady_trace(3500, 2),
            base_rtt: SimDuration::from_millis(40),
            loss: 0.0,
        },
        queue: QueueConfig::DropTail {
            capacity_bytes: 1 << 20,
        },
        flows: vec![FlowConfig::new(Box::new(VerusCc::default())).with_shed_cap(1024)],
        duration,
        seed: SEED,
        throughput_window: SimDuration::from_millis(100),
        impairments: sched.compile().expect("chaos schedule compiles"),
        abc: None,
    };
    Simulation::new(config)
        .expect("valid config")
        .run()
        .remove(0)
}

/// The transport soak: one Verus stream for `duration` on the wall
/// clock, through an emulator that applies `sched` to an 8 Mbit/s
/// steady channel, with session deadlines short enough to drive it
/// through Degraded → Reconnecting in a 1.5 s outage.
///
/// # Errors
/// Socket setup failures.
///
/// # Panics
/// If `sched` does not compile.
pub fn transport_soak(
    sched: &ChaosSchedule,
    duration: SimDuration,
) -> std::io::Result<SessionReport> {
    let clock = WallClock::new();
    let receiver = Receiver::spawn("127.0.0.1:0", clock)?;
    let mut emu_config = EmulatorConfig::new(steady_trace(1000, 2), receiver.local_addr());
    emu_config.impairments = sched.compile().expect("chaos schedule compiles");
    let emulator = Emulator::spawn(emu_config, clock)?;
    let config = ShardServerConfig {
        session: SessionConfig {
            idle_degraded: SimDuration::from_millis(300),
            degraded_grace: SimDuration::from_millis(200),
            drain_timeout: SimDuration::from_secs(2),
            backoff_base: SimDuration::from_millis(50),
            backoff_cap: BACKOFF_CAP,
            seed: SEED,
            session_id: 0,
        },
        ..ShardServerConfig::one_flow(duration)
    };
    let flow = FlowSpec::stream(emulator.ingress_addr(), Box::new(VerusCc::default()));
    let report = ShardServer::new(config).run(vec![flow], clock);
    emulator.stop();
    receiver.stop();
    Ok(report?.flows.remove(0))
}
