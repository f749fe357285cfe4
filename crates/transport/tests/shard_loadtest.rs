//! Tier-1 load test for the sharded transport plane: ~1k flows over a
//! local batched receiver, small enough to finish in seconds and run on
//! every commit (the benchmark's `loopback_shard` workload measures the
//! plane's cost). What it pins down is the part that must never regress:
//!
//! - **ledger balance** — every offered sequence ends exactly once in
//!   the `acked` or `shed` column (`residual() == 0`), on BOTH the
//!   `sendmmsg`/`recvmmsg` backend and the portable per-packet fallback;
//! - **no stuck sessions** — the session lifecycle closes
//!   every flow before the server's deadline watchdog has to abort it;
//! - **deterministic digests** — two runs with the same seed produce
//!   byte-identical `deterministic_digest()` strings, and so do the
//!   batched and per-packet backends on the same crowd;
//! - **batching pays** — the `sendmmsg`/`recvmmsg` backend spends at
//!   least 8× fewer syscalls per packet than the per-packet fallback.

use verus_core::VerusCc;
use verus_nettypes::{FixedWindow, SimDuration};
use verus_transport::{
    FlowSpec, IoMode, LoadReport, Receiver, ShardServer, ShardServerConfig, WallClock,
};

/// The crowd plane's configuration: header-only datagrams, 20 ms epochs,
/// first epochs spread over 100 ms.
fn config(mode: IoMode, shards: usize, seed: u64) -> ShardServerConfig {
    ShardServerConfig {
        shards,
        io_mode: mode,
        packet_bytes: 0, // header-only keeps the tier-1 run light
        epoch: SimDuration::from_millis_f64(20.0),
        stagger: SimDuration::from_millis_f64(100.0),
        deadline: SimDuration::from_secs_f64(20.0),
        seed,
        ..ShardServerConfig::default()
    }
}

/// Runs `flows` FixedWindow flows of `packets` sequences each through
/// `cfg` against a loopback receiver on the same I/O mode and returns
/// the ledger.
fn run_crowd(cfg: ShardServerConfig, flows: u32, packets: u64) -> LoadReport {
    let clock = WallClock::new();
    let rx = Receiver::spawn_batched("127.0.0.1:0", clock, cfg.io_mode).unwrap();
    let specs: Vec<FlowSpec> = (0..flows)
        .map(|i| FlowSpec {
            flow: i,
            dest: rx.local_addr(),
            packets,
            cc: Box::new(FixedWindow::new(4)),
        })
        .collect();
    let report = ShardServer::new(cfg).run(specs, clock).unwrap();
    rx.stop();
    report
}

#[test]
fn thousand_flows_balance_the_ledger_on_both_backends() {
    for mode in [IoMode::Batched, IoMode::PerPacket] {
        let a = run_crowd(config(mode, 2, 7), 1000, 4);
        assert_eq!(a.shards.len(), 2, "one snapshot per shard ({mode:?})");
        assert_eq!(a.offered(), 4000, "{mode:?}");
        assert_eq!(a.residual(), 0, "ledger must balance ({mode:?}): {a:?}");
        assert_eq!(a.stuck(), 0, "no stuck sessions ({mode:?})");
        assert_eq!(a.closed(), 1000, "every session closed ({mode:?})");
        assert_eq!(a.shed(), 0, "uncapped run sheds nothing ({mode:?})");
        assert_eq!(a.acked(), 4000, "{mode:?}");

        // Same seed, same crowd → byte-identical deterministic digest.
        let b = run_crowd(config(mode, 2, 7), 1000, 4);
        assert_eq!(
            a.deterministic_digest(),
            b.deterministic_digest(),
            "digest must be byte-stable across same-seed runs ({mode:?})"
        );
    }
}

#[test]
fn batched_and_per_packet_backends_agree_and_batching_cuts_syscalls() {
    // 1,000 flows × 4 packets, 25 ms epochs over a 200 ms arrival
    // stagger, run once per backend. One shard: how many datagrams a
    // batch can carry follows each shard's arrival rate, so a shard
    // count that grew with the host's cores would make the floor below
    // a property of the host rather than of the plane.
    let shape = |mode| ShardServerConfig {
        epoch: SimDuration::from_millis(25),
        stagger: SimDuration::from_millis(200),
        ..config(mode, 1, 7)
    };
    let per_packet = run_crowd(shape(IoMode::PerPacket), 1000, 4);
    let batched = run_crowd(shape(IoMode::Batched), 1000, 4);
    for r in [&per_packet, &batched] {
        assert_eq!(r.residual(), 0, "ledger must balance: {r:?}");
        assert_eq!(r.stuck(), 0);
        assert_eq!(r.closed(), 1000);
        assert_eq!(r.acked(), 4000);
    }
    // The per-packet fallback is the batched path's behavioural oracle.
    assert_eq!(
        per_packet.deterministic_digest(),
        batched.deterministic_digest(),
        "backends disagreed on the deterministic ledger"
    );
    // `IoMode::Batched` resolves to sendmmsg/recvmmsg only here; elsewhere
    // both runs use the per-packet backend.
    if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
        let ratio = per_packet.io().syscalls_per_packet() / batched.io().syscalls_per_packet();
        assert!(
            ratio >= 8.0,
            "syscall batching ratio {ratio:.2}x below the 8x floor \
             (per-packet {:?}, batched {:?})",
            per_packet.io(),
            batched.io()
        );
    }
    // Below 4 cores the epoch-timer lateness measures the OS scheduler,
    // not the timer plane.
    if std::thread::available_parallelism().map_or(1, usize::from) >= 4 {
        let p99 = batched.jitter_p99_ms();
        assert!(
            p99 <= 250.0,
            "epoch-timer p99 lateness {p99:.2} ms above the 250 ms budget"
        );
    }
}

#[test]
fn shed_cap_accounts_overload_exactly() {
    // A zero in-flight cap forces every non-probe sequence through the
    // shed path: the ledger must still balance exactly — each sequence
    // lands in `acked` (the probed ones) or `shed` (the rest), never
    // both, never neither.
    let cfg = ShardServerConfig {
        shed_outstanding_cap: Some(0),
        ..config(IoMode::Batched, 1, 11)
    };
    let r = run_crowd(cfg, 64, 16);
    assert_eq!(r.offered(), 1024);
    assert_eq!(
        r.acked() + r.shed(),
        r.offered(),
        "shed + acked must cover the offer exactly: {r:?}"
    );
    assert_eq!(r.residual(), 0);
    assert_eq!(r.stuck(), 0);
    assert_eq!(r.closed(), 64);
    assert!(r.shed() > 0, "the cap must actually shed: {r:?}");
}

#[test]
fn verus_controller_closes_a_small_crowd() {
    // The real ε-epoch controller (its own tick cadence, delay-profile
    // window updates) through the same plane: completion and ledger
    // balance must not depend on the FixedWindow simplification.
    let clock = WallClock::new();
    let rx = Receiver::spawn_batched("127.0.0.1:0", clock, IoMode::Batched).unwrap();
    let cfg = ShardServerConfig {
        shards: 2,
        io_mode: IoMode::Batched,
        packet_bytes: 0,
        stagger: SimDuration::from_millis_f64(50.0),
        deadline: SimDuration::from_secs_f64(20.0),
        seed: 3,
        ..ShardServerConfig::default()
    };
    let specs: Vec<FlowSpec> = (0..32)
        .map(|i| FlowSpec {
            flow: i,
            dest: rx.local_addr(),
            packets: 8,
            cc: Box::new(VerusCc::default()),
        })
        .collect();
    let report = ShardServer::new(cfg).run(specs, clock).unwrap();
    rx.stop();
    assert_eq!(report.offered(), 256);
    assert_eq!(report.residual(), 0, "{report:?}");
    assert_eq!(report.stuck(), 0);
    assert_eq!(report.closed(), 32);
}
