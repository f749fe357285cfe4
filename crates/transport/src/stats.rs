//! Per-flow results of a transport run.
//!
//! Every record here is O(1) in the flow's packet count: counters, one
//! throughput value per second and exact delay moments, never a
//! per-packet `Vec` or a histogram — a load test keeps one per flow.

use crate::session::Transition;
use verus_nettypes::SimDuration;
use verus_stats::{Running, ThroughputSeries};
use verus_trace::SessionState;

/// What one flow of a [`crate::ShardServer`] run measured.
#[derive(Debug, Clone)]
pub struct TransferStats {
    /// Protocol name (the controller's [`name`](verus_nettypes::CongestionControl::name)).
    pub protocol: &'static str,
    /// Packets sent: every data-packet transmission (fresh, retransmit
    /// or probe) plus every shed sequence, which is counted as sent but
    /// never transmitted.
    pub sent: u64,
    /// Unique sequences acknowledged.
    pub acked: u64,
    /// Losses declared by the §5.2 reordering gap timer.
    pub fast_losses: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Sequences the overload guard refused to put on the wire (counted
    /// as sent, never transmitted — the transport-side analogue of the
    /// simulator's `shed_dropped` ledger column).
    pub shed_dropped: u64,
    /// Acknowledged throughput in 1-second windows, from the run's
    /// start (bytes credited when an ACK first finishes a sequence).
    pub throughput: ThroughputSeries,
    /// Exact moments of the one-way delay (receiver timestamp − send
    /// timestamp, exact when both ends share a [`crate::WallClock`]) of
    /// every ACK that finished a sequence, ms.
    pub delay_ms: Running,
    /// Seconds from the run's start until the flow closed.
    pub duration_secs: f64,
}

impl TransferStats {
    /// Empty stats for a flow driven by `protocol`.
    #[must_use]
    pub fn new(protocol: &'static str) -> Self {
        Self {
            protocol,
            sent: 0,
            acked: 0,
            fast_losses: 0,
            timeouts: 0,
            shed_dropped: 0,
            throughput: ThroughputSeries::new(1.0),
            delay_ms: Running::new(),
            duration_secs: 0.0,
        }
    }

    /// Mean acknowledged throughput in Mbit/s.
    #[must_use]
    pub fn mean_throughput_mbps(&self) -> f64 {
        if self.duration_secs <= 0.0 {
            return 0.0;
        }
        self.throughput.mean_bps(self.duration_secs) / 1e6
    }

    /// Mean one-way delay, ms (0 before any ACK).
    #[must_use]
    pub fn mean_delay_ms(&self) -> f64 {
        self.delay_ms.mean()
    }
}

/// One flow's result: transfer statistics plus the session history the
/// recovery SLOs are computed from.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Packet-level statistics, including the shed count.
    pub stats: TransferStats,
    /// Every session-state edge taken, in order.
    pub transitions: Vec<Transition>,
    /// State at the flow's exit (`Closed` unless its shard failed).
    pub final_state: SessionState,
    /// Total connect/reconnect probes sent.
    pub probes_sent: u64,
}

impl SessionReport {
    /// Durations of every completed recovery (edges into `Established`
    /// out of `Connecting`/`Reconnecting`) — the SLO numerators.
    #[must_use]
    pub fn recovery_times(&self) -> Vec<SimDuration> {
        self.transitions
            .iter()
            .filter_map(|t| t.recovered_after)
            .collect()
    }

    /// Whether the session ever reached `Established`.
    #[must_use]
    pub fn reached_established(&self) -> bool {
        self.transitions
            .iter()
            .any(|t| t.to == SessionState::Established)
    }

    /// How many separate disruptions ended in a successful reconnect
    /// (recoveries out of `Reconnecting`, i.e. excluding the initial
    /// connect).
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.transitions
            .iter()
            .filter(|t| t.from == SessionState::Reconnecting && t.to == SessionState::Established)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_duration_means_zero_rate() {
        let s = TransferStats::new("t");
        assert_eq!(s.mean_throughput_mbps(), 0.0);
        assert_eq!(s.mean_delay_ms(), 0.0);
        assert_eq!(s.delay_ms.count(), 0);
    }

    #[test]
    fn throughput_and_delay_computation() {
        let mut s = TransferStats::new("t");
        s.throughput.record(0.2, 250_000); // 2 Mbit
        s.delay_ms.push(10.0);
        s.delay_ms.push(30.0);
        s.duration_secs = 2.0;
        assert!((s.mean_throughput_mbps() - 1.0).abs() < 1e-9);
        assert_eq!(s.mean_delay_ms(), 20.0);
    }
}
