//! Deterministic multi-core sharding: the barrier/merge engine behind
//! [`SchedulerKind::Sharded`](crate::sim::SchedulerKind::Sharded).
//!
//! # Decomposition
//!
//! The sequential simulator interleaves two kinds of work: *flow* work
//! (controller ticks, ACK processing, loss detection — independent per
//! flow) and *channel* work (the shared bottleneck queue, RED drops,
//! the loss/impairment RNG draws — inherently serial). Sharding splits
//! exactly along that line:
//!
//! * `W` **workers**, each a full [`Simulation`] in worker mode owning
//!   the flows with `global % W == w` on its own timing wheel. A worker
//!   runs every flow event verbatim, but where the sequential engine
//!   would push a packet into the channel it only *logs* the launch.
//! * the **merger** (this thread) owns the channel state: the queue,
//!   the cell service, the base RNG, and the impairment pipeline.
//!
//! # The lock-step round
//!
//! Time advances in rounds bounded by the next channel event (a cell
//! TTI or a blackout end): every worker drains its wheel up to the
//! bound and hands its launch log back; the merger k-way-merges the
//! logs by `(time, flow)` — the exact order the sequential engine
//! interleaves same-window sends in, because its tie-break at equal
//! timestamps is flow order — and replays the channel half of each
//! launch, reproducing the sequential RNG stream draw for draw. Then it
//! processes the channel event itself with the *same* drain code the
//! sequential engine runs, groups the released packets per
//! `(flow, arrival)` exactly like the sequential TTI batching, and
//! routes each batch to its owner worker for the next round.
//!
//! The barrier is safe because a delivery can never land inside the
//! round that produced it: arrival lags the drain by the forward path
//! delay, which [`can_shard`](crate::sim::Simulation) guarantees is at
//! least one nanosecond past the bound.
//!
//! # Why the bytes match
//!
//! Every source of ordering or randomness is pinned to one side of the
//! split: ties are per-flow counters (workers reproduce them locally),
//! RNG draws happen only on the merger in merged launch/drain order,
//! and trace records are exported in `(t_ns, lane, arrival)` order (see
//! [`verus_trace::lane`]), which both engines produce identically.
//! `tests/sched_equivalence.rs` asserts report- and trace-byte equality
//! against the sequential wheel for `W ∈ {1, 2, 4}`, and
//! `verus-model`'s barrier model shows the handshake itself is sound
//! (and that dropping the barrier is observably unsound).

use crate::metrics::FlowReport;
use crate::queue::QueuedPacket;
use crate::sim::{
    finish_worker_flow, launch_into_channel, BatchPkt, ChanCounters, ChanLedger, EventKind,
    Launch, MergeParts, Simulation, TtiGroups,
};
use std::cmp::Reverse;
use std::sync::mpsc;
use verus_nettypes::{SimDuration, SimTime};

/// One barrier round's instruction to a worker: ingest the routed
/// delivery batches (in order — they consume per-flow tie counters),
/// then drain every event up to `bound` and send back the launch log.
struct Round {
    bound: SimTime,
    /// `(local flow, arrival time, packets)` in merge order.
    batches: Vec<(usize, SimTime, Vec<BatchPkt>)>,
}

/// Replays the channel half of the workers' launches in global
/// `(time, flow)` order: a k-way merge over the per-worker logs (each
/// already `(time, flow)`-sorted — events dispatch in that order and a
/// launch carries its event's time and flow). Equal keys across workers
/// are impossible: the flow id determines the worker.
fn replay_launches(
    parts: &mut MergeParts,
    ledgers: &mut [ChanLedger],
    logs: &mut [Vec<Launch>],
    cursors: &mut [usize],
) {
    loop {
        let mut best: Option<(SimTime, usize, usize)> = None;
        for (w, log) in logs.iter().enumerate() {
            if let Some(l) = log.get(cursors[w]) {
                if best.map_or(true, |(t, f, _)| (l.time, l.flow) < (t, f)) {
                    best = Some((l.time, l.flow, w));
                }
            }
        }
        let Some((_, _, w)) = best else { break };
        let l = logs[w][cursors[w]];
        cursors[w] += 1;
        let Some(led) = ledgers.get_mut(l.flow) else {
            debug_assert!(false, "launch for unknown flow {}", l.flow);
            continue;
        };
        // Cell bottleneck: no fixed service to kick, so the queued-copy
        // count feeds only the ledger (already counted via `in_queue`).
        let _ = launch_into_channel(
            &mut parts.rng,
            &mut parts.impairments,
            &mut parts.queue,
            parts.cell.loss,
            l.time,
            l.flow,
            l.seq,
            l.bytes,
            ChanCounters {
                radio_lost: &mut led.radio_lost,
                impaired_lost: &mut led.impaired_lost,
                dup_injected: &mut led.dup_injected,
                queue_drops: &mut led.queue_drops,
                in_queue: &mut led.in_queue,
            },
        );
    }
    for (log, cur) in logs.iter_mut().zip(cursors.iter_mut()) {
        log.clear();
        *cur = 0;
    }
}

/// Processes one cell delivery opportunity on the merger: the same
/// drain code path as the sequential engine, then per-packet egress
/// impairments in drain order and `(flow, arrival)` grouping in
/// first-seen order — the sequential TTI batch layout, through the same
/// [`TtiGroups`]. Groups are routed to `pending[flow % W]` for the next
/// round.
fn process_opportunity(
    parts: &mut MergeParts,
    now: SimTime,
    ledgers: &mut [ChanLedger],
    deliveries: &mut Vec<QueuedPacket>,
    groups: &mut TtiGroups<Vec<BatchPkt>>,
    pending: &mut [Vec<(usize, SimTime, Vec<BatchPkt>)>],
) {
    let blackout = parts.impairments.in_blackout(now);
    debug_assert!(deliveries.is_empty());
    let next = parts
        .cell
        .drain(now, blackout, &mut parts.queue, deliveries);
    parts.schedule_chan(next, EventKind::CellOpportunity);
    let half_rtt = parts.cell.base_rtt / 2;
    for pkt in deliveries.drain(..) {
        let fate = parts.impairments.on_egress();
        let Some(led) = ledgers.get_mut(pkt.flow) else {
            debug_assert!(false, "departure for unknown flow {}", pkt.flow);
            continue;
        };
        led.in_queue -= 1;
        if fate.corrupted {
            led.corrupt_dropped += 1;
            continue;
        }
        led.departed += 1;
        let extra = parts
            .fwd_extra
            .get(pkt.flow)
            .copied()
            .unwrap_or(SimDuration::ZERO);
        let deliver_at = now + half_rtt + extra + fate.extra_delay.unwrap_or(SimDuration::ZERO);
        // `sent_at` is reconstructed from the enqueue stamp: the flow
        // half stamps both with the same send-time instant, so this is
        // exactly the sequential engine's value without consulting any
        // worker-owned state.
        let bp = BatchPkt {
            seq: pkt.seq,
            bytes: pkt.bytes,
            sent_at: pkt.enqueued,
            abc: pkt.abc_mark,
        };
        groups.entry(pkt.flow, deliver_at, Vec::new).push(bp);
    }
    let workers = pending.len();
    for (flow, at, pkts) in groups.drain() {
        pending[flow % workers].push((flow / workers, at, pkts));
    }
}

/// Runs a sharded simulation to quiescence: splits `sim` into `workers`
/// worker shards plus the merger's channel state, iterates barrier
/// rounds until the horizon, and folds the per-shard results back into
/// the sequential engine's exact reports. `events_out` / `pops_out`
/// receive the summed logical-event and raw-pop counters (they equal
/// the sequential figures: every event is processed exactly once, on
/// exactly one side of the split).
pub(crate) fn run_sharded(
    sim: Simulation,
    workers: usize,
    events_out: &mut u64,
    pops_out: &mut u64,
) -> Vec<FlowReport> {
    let (mut parts, worker_sims) = sim.split_for_shards(workers);
    let nflows = parts.fwd_extra.len();
    let mut ledgers = vec![ChanLedger::default(); nflows];
    let end = parts.end;

    let mut chan_events_done: u64 = 0;
    let mut worker_results: Vec<(Vec<crate::sim::FlowState>, u64, u64)> =
        Vec::with_capacity(workers);

    std::thread::scope(|scope| {
        let mut reqs: Vec<mpsc::Sender<Round>> = Vec::with_capacity(workers);
        let mut resps: Vec<mpsc::Receiver<Vec<Launch>>> = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for mut wsim in worker_sims {
            let (req_tx, req_rx) = mpsc::channel::<Round>();
            let (resp_tx, resp_rx) = mpsc::channel::<Vec<Launch>>();
            reqs.push(req_tx);
            resps.push(resp_rx);
            handles.push(scope.spawn(move || {
                while let Ok(round) = req_rx.recv() {
                    for (local, at, pkts) in round.batches {
                        wsim.ingest_batch(local, at, pkts);
                    }
                    let launches = wsim.run_round(round.bound);
                    if resp_tx.send(launches).is_err() {
                        break;
                    }
                }
                wsim.into_worker_parts()
            }));
        }

        let mut pending: Vec<Vec<(usize, SimTime, Vec<BatchPkt>)>> =
            (0..workers).map(|_| Vec::new()).collect();
        let mut logs: Vec<Vec<Launch>> = (0..workers).map(|_| Vec::new()).collect();
        let mut cursors = vec![0usize; workers];
        let mut deliveries: Vec<QueuedPacket> = Vec::new();
        let mut groups: TtiGroups<Vec<BatchPkt>> = TtiGroups::default();

        loop {
            // The round bound: the next channel event, horizon-clamped.
            // In the final round the past-horizon channel event is never
            // popped — mirroring the sequential loop, which breaks on it
            // before counting.
            let (bound, last) = match parts.chan_events.peek() {
                Some(&Reverse(ev)) if ev.time <= end => (ev.time, false),
                _ => (end, true),
            };
            // Barrier, phase 1: every worker drains up to the bound.
            let mut alive = true;
            for (w, req) in reqs.iter().enumerate() {
                let round = Round {
                    bound,
                    batches: std::mem::take(&mut pending[w]),
                };
                alive &= req.send(round).is_ok();
            }
            // Barrier, phase 2: collect the launch logs (worker order is
            // irrelevant — the merge below re-orders by `(time, flow)`).
            for (w, resp) in resps.iter().enumerate() {
                match resp.recv() {
                    Ok(log) => logs[w] = log,
                    Err(_) => alive = false,
                }
            }
            if !alive {
                break; // a worker died; its panic resurfaces at join
            }
            replay_launches(&mut parts, &mut ledgers, &mut logs, &mut cursors);
            if last {
                break;
            }
            let Some(Reverse(ev)) = parts.chan_events.pop() else {
                break;
            };
            chan_events_done += 1;
            match ev.kind {
                EventKind::CellOpportunity => process_opportunity(
                    &mut parts,
                    ev.time,
                    &mut ledgers,
                    &mut deliveries,
                    &mut groups,
                    &mut pending,
                ),
                // A cell link resumes at its next opportunity on its
                // own; the event exists (and is counted) either way.
                EventKind::BlackoutEnd => {}
                other => debug_assert!(
                    false,
                    "unexpected channel event in a sharded cell run: {other:?}"
                ),
            }
        }

        drop(reqs);
        for handle in handles {
            match handle.join() {
                Ok(res) => worker_results.push(res),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    let mut events_total = chan_events_done;
    let mut pops_total = chan_events_done;
    let mut flow_iters = Vec::with_capacity(workers);
    for (flows, events, pops) in worker_results {
        events_total += events;
        pops_total += pops;
        flow_iters.push(flows.into_iter());
    }
    *events_out = events_total;
    *pops_out = pops_total;

    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    {
        let queued: u64 = ledgers.iter().map(|l| l.in_queue).sum();
        crate::invariants::queue_accounting(queued, parts.queue.len());
    }

    let end_secs = end.as_secs_f64();
    (0..nflows)
        .filter_map(|g| {
            flow_iters[g % workers]
                .next()
                .map(|f| finish_worker_flow(g, f, &ledgers[g], end_secs))
        })
        .collect()
}
