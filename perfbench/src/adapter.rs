//! A forwarding [`CongestionControl`] adapter that measures a controller
//! from outside.
//!
//! [`Probe`] wraps any controller and forwards every trait method,
//! `as_any` included, so the simulator and the transport see the wrapped
//! controller's exact behaviour (a test below checks the report digest).
//! In timed mode it times each callback with [`Instant`] and folds the
//! durations into per-layer histograms; around a Verus refit it also
//! times a spline fit over the live profile points and an inversion of
//! the live profile, outside the controller's own self time. In both
//! modes it can log the RTT samples the controller receives.
//!
//! Timed callbacks fold into a tally owned by the thread that runs
//! them ([`take_tally`] collects it), so ten thousand wrapped flows
//! share one set of histograms. Timed probes are therefore only used on
//! the sequential simulator, whose callbacks all run on the benchmark's
//! thread. Logged RTT samples go to a shared [`RttLog`].

use crate::measure::DurHist;
use std::any::Any;
use std::cell::RefCell;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use verus_core::{SplineKind, VerusCc};
use verus_nettypes::{AckEvent, CongestionControl, LossEvent, SimDuration, SimTime, TraceHandle};
use verus_spline::{MonotoneCubic, NaturalCubic};
use verus_stats::Histogram;

/// Per-layer call tallies. Times are nanoseconds.
#[derive(Clone, Default)]
pub struct LayerStats {
    /// Time inside the controller's callbacks.
    pub self_ns: u64,
    /// `on_ack` durations.
    pub ack: DurHist,
    /// `on_tick` durations of ticks that did not refit the profile.
    pub tick: DurHist,
    /// `on_tick` durations of ticks that advanced `profile_generation`.
    pub refit: DurHist,
    /// `DelayProfiler::lookup_window` at the live `Dest`.
    pub invert: DurHist,
    /// A spline fit over `DelayProfiler::points()` at each refit.
    pub fit: DurHist,
    /// `on_loss` calls.
    pub loss_calls: u64,
}

impl LayerStats {
    /// Adds `other`'s tallies.
    pub fn merge(&mut self, other: &LayerStats) {
        self.self_ns += other.self_ns;
        self.ack.merge(&other.ack);
        self.tick.merge(&other.tick);
        self.refit.merge(&other.refit);
        self.invert.merge(&other.invert);
        self.fit.merge(&other.fit);
        self.loss_calls += other.loss_calls;
    }
}

/// The per-layer tallies of one thread.
#[derive(Clone, Default)]
pub struct Tally {
    /// `verus-core` controllers.
    pub core: LayerStats,
    /// Every other controller (CUBIC here).
    pub baselines: LayerStats,
}

impl Tally {
    /// Adds `other`'s tallies, layer by layer.
    pub fn merge(&mut self, other: &Tally) {
        self.core.merge(&other.core);
        self.baselines.merge(&other.baselines);
    }
}

thread_local! {
    static TALLY: RefCell<Tally> = RefCell::new(Tally::default());
}

/// Takes the calling thread's tally, leaving it empty.
pub fn take_tally() -> Tally {
    TALLY.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

/// Where probes record RTT samples: a histogram of 10 µs bins up to
/// 100 ms, so logging costs a lock and an add per ACK and 80 KB.
pub type RttLog = Arc<Mutex<Histogram>>;

/// An empty RTT log.
pub fn rtt_log() -> RttLog {
    Arc::new(Mutex::new(Histogram::new(0.0, 100.0, 10_000)))
}

/// The cost of timing an empty call (two clock reads), ns, measured once
/// per process and taken off every timed callback, so self times do not
/// count the probe's own clock reads.
fn clock_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut samples: Vec<u64> = (0..10_001)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(());
                t.elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    })
}

/// Times `f`, net of the clock's own cost.
#[inline]
fn timed_ns<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    let ns = (t.elapsed().as_nanos() as u64).saturating_sub(clock_overhead_ns());
    (r, ns)
}

/// Invert the live profile on every this-many Verus ticks (every tick
/// would double the traced run's controller time).
const INVERT_EVERY: u64 = 8;

/// The forwarding adapter.
pub struct Probe {
    inner: Box<dyn CongestionControl>,
    timed: bool,
    /// Counts towards `core` (a `VerusCc`) or `baselines`.
    is_verus: bool,
    ticks: u64,
    rtt_log: Option<RttLog>,
}

impl Probe {
    /// Wraps `inner`. `timed` turns on callback timing into the running
    /// thread's tally; with `rtt_log` every ACK's RTT sample is logged.
    pub fn wrap(
        inner: Box<dyn CongestionControl>,
        timed: bool,
        rtt_log: Option<&RttLog>,
    ) -> Box<dyn CongestionControl> {
        let is_verus = inner.as_any().downcast_ref::<VerusCc>().is_some();
        Box::new(Self {
            inner,
            timed,
            is_verus,
            ticks: 0,
            rtt_log: rtt_log.map(Arc::clone),
        })
    }

    /// Applies `f` to this probe's layer in the thread's tally.
    fn tally(&self, f: impl FnOnce(&mut LayerStats)) {
        TALLY.with(|t| {
            let mut t = t.borrow_mut();
            f(if self.is_verus {
                &mut t.core
            } else {
                &mut t.baselines
            });
        });
    }

    fn verus(&self) -> Option<&VerusCc> {
        self.inner.as_any().downcast_ref::<VerusCc>()
    }

    /// Times a spline fit over the live points and an inversion at the
    /// live `Dest`; neither touches the controller's state.
    fn probe_profile(&mut self, fit: bool) {
        let Some(v) = self.verus() else { return };
        let profiler = v.profiler();
        let cfg = v.config();
        let mut fit_ns = None;
        if fit {
            let (ok, ns) = timed_ns(|| {
                let points = profiler.points();
                match cfg.spline {
                    SplineKind::Natural => NaturalCubic::fit(&points).is_ok(),
                    SplineKind::Monotone => MonotoneCubic::fit(&points).is_ok(),
                }
            });
            fit_ns = ok.then_some(ns);
        }
        let mut invert_ns = None;
        if let Some(dest) = v.dest_ms() {
            let (w, ns) = timed_ns(|| profiler.lookup_window(dest, cfg.min_window, cfg.max_window));
            invert_ns = std::hint::black_box(w).map(|_| ns);
        }
        self.tally(|l| {
            if let Some(ns) = fit_ns {
                l.fit.record(ns);
            }
            if let Some(ns) = invert_ns {
                l.invert.record(ns);
            }
        });
    }

    /// Runs `f` on the inner controller; when timed, adds its duration
    /// to self time and hands it to `record`.
    #[inline]
    fn call<R>(
        &mut self,
        f: impl FnOnce(&mut dyn CongestionControl) -> R,
        record: impl FnOnce(&mut LayerStats, u64),
    ) -> R {
        if !self.timed {
            return f(self.inner.as_mut());
        }
        let (r, ns) = timed_ns(|| f(self.inner.as_mut()));
        self.tally(|l| {
            l.self_ns += ns;
            record(l, ns);
        });
        r
    }
}

impl CongestionControl for Probe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn quota(&mut self, now: SimTime, in_flight: usize) -> usize {
        self.call(|c| c.quota(now, in_flight), |_, _| {})
    }

    fn on_packet_sent(&mut self, now: SimTime, seq: u64, bytes: u64) {
        self.call(|c| c.on_packet_sent(now, seq, bytes), |_, _| {});
    }

    fn on_ack(&mut self, now: SimTime, ev: &AckEvent) {
        if let Some(log) = &self.rtt_log {
            // A poisoned log only loses samples.
            if let Ok(mut h) = log.lock() {
                h.add(ev.rtt.as_secs_f64() * 1e3);
            }
        }
        self.call(|c| c.on_ack(now, ev), |l, ns| l.ack.record(ns));
    }

    fn on_loss(&mut self, now: SimTime, ev: &LossEvent) {
        self.call(|c| c.on_loss(now, ev), |l, _| l.loss_calls += 1);
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        self.inner.tick_interval()
    }

    fn on_tick(&mut self, now: SimTime) {
        if !self.timed || !self.is_verus {
            self.call(|c| c.on_tick(now), |l, ns| l.tick.record(ns));
            return;
        }
        let generation = self.verus().map_or(0, VerusCc::profile_generation);
        let ((), ns) = timed_ns(|| self.inner.on_tick(now));
        let refitted = self.verus().map_or(0, VerusCc::profile_generation) != generation;
        self.ticks += 1;
        self.tally(|l| {
            l.self_ns += ns;
            if refitted {
                l.refit.record(ns);
            } else {
                l.tick.record(ns);
            }
        });
        if refitted {
            self.probe_profile(true);
        } else if self.ticks.is_multiple_of(INVERT_EVERY) {
            self.probe_profile(false);
        }
    }

    fn attach_trace(&mut self, trace: TraceHandle) {
        self.inner.attach_trace(trace);
    }

    fn on_session_resumed(&mut self, now: SimTime) {
        self.call(|c| c.on_session_resumed(now), |_, _| {});
    }

    fn window(&self) -> f64 {
        self.inner.window()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::cell_sim;
    use crate::simrun::{digest, DIGEST_SEED};
    use verus_baselines::Cubic;
    use verus_bench::CellExperiment;
    use verus_cellular::{OperatorModel, Scenario};
    use verus_core::VerusConfig;

    fn short_cell() -> CellExperiment {
        let trace = Scenario::CityDriving
            .generate_trace(OperatorModel::EtisalatLte, SimDuration::from_secs(8), 5)
            .expect("trace");
        CellExperiment::new(trace, 4, SimDuration::from_secs(8), 9)
    }

    fn verus() -> Box<dyn CongestionControl> {
        Box::new(VerusCc::new(VerusConfig::with_r(2.0)))
    }

    /// A wrapped run is the same program: identical reports, byte for byte.
    #[test]
    fn wrapped_and_plain_runs_report_identically() {
        let exp = short_cell();
        let plain = cell_sim(&exp, verus).expect("config").run();
        let log = rtt_log();
        let wrapped = cell_sim(&exp, || Probe::wrap(verus(), true, Some(&log)))
            .expect("config")
            .run();
        assert_eq!(
            digest(DIGEST_SEED, &plain),
            digest(DIGEST_SEED, &wrapped),
            "the probe changed the simulation"
        );
        let tally = take_tally();
        assert!(tally.core.ack.count() > 0 && tally.core.tick.count() > 0);
        assert!(
            tally.core.refit.count() > 0,
            "an 8 s run refits the profile"
        );
        assert!(tally.core.self_ns > 0);
        assert_eq!(tally.baselines.ack.count(), 0);
        let acks: u64 = plain.iter().map(|r| r.delivered).sum();
        assert_eq!(log.lock().expect("log").total(), tally.core.ack.count());
        assert!(acks >= tally.core.ack.count());
    }

    #[test]
    fn downcasts_reach_the_wrapped_controller() {
        let probe = Probe::wrap(verus(), true, None);
        assert_eq!(probe.name(), "verus");
        assert!(probe.as_any().downcast_ref::<VerusCc>().is_some());
        assert_eq!(probe.tick_interval(), verus().tick_interval());
        let cubic = Probe::wrap(Box::new(Cubic::new()), false, None);
        assert!(cubic.as_any().downcast_ref::<Cubic>().is_some());
        assert_eq!(cubic.window(), Cubic::new().window());
    }
}
