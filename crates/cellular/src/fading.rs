//! Radio-channel rate processes.
//!
//! §3 of the paper attributes cellular unpredictability to "the physical
//! properties of radio propagation such as path-loss and slow-fading" plus
//! fast fading, and §5.3 notes the three time scales explicitly: fast
//! fading (ms, handled by Verus' ε epochs), and path-loss/slow-fading
//! (seconds, handled by delay-profile updates). The synthetic channel
//! mirrors that decomposition as an SNR process in dB:
//!
//! ```text
//! snr(t) = mean + drift(t) + shadow(t) + fast(t)
//! ```
//!
//! * `fast` — Gauss–Markov AR(1), correlation set by a coherence time
//!   (mobility shortens it; Jakes' model relates it to Doppler);
//! * `shadow` — Ornstein–Uhlenbeck log-normal shadowing with a relaxation
//!   time of seconds;
//! * `drift` — a bounded random walk standing in for mobility-driven
//!   path-loss change (driving past buildings, entering the mall…).
//!
//! SNR maps to a per-TTI rate through a truncated-Shannon link budget
//! quantized to 15 CQI steps, like an LTE/HSPA modulation-and-coding
//! ladder. The result is a [`RateProcess`] yielding whole-cell bytes per
//! TTI, which the [`crate::scheduler`] divides among users.

use rand::Rng;
use verus_nettypes::SimDuration;
use verus_stats::dist::Normal;

/// Parameters of the SNR process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FadingConfig {
    /// Long-term mean SNR in dB.
    pub mean_snr_db: f64,
    /// Standard deviation of the fast-fading component, dB.
    pub fast_sigma_db: f64,
    /// Coherence time of fast fading (smaller = faster variation).
    pub fast_coherence: SimDuration,
    /// Stationary standard deviation of shadowing, dB.
    pub shadow_sigma_db: f64,
    /// Relaxation time of shadowing.
    pub shadow_tau: SimDuration,
    /// Half-range of the mobility drift walk, dB (0 = stationary user).
    pub drift_range_db: f64,
    /// RMS drift speed, dB per second.
    pub drift_rate_db_per_s: f64,
}

impl FadingConfig {
    /// A stationary urban profile: moderate shadowing, slow drift off.
    #[must_use]
    pub fn stationary() -> Self {
        Self {
            mean_snr_db: 12.0,
            fast_sigma_db: 3.0,
            fast_coherence: SimDuration::from_millis(40),
            shadow_sigma_db: 2.5,
            shadow_tau: SimDuration::from_secs(12),
            drift_range_db: 0.0,
            drift_rate_db_per_s: 0.0,
        }
    }

    /// Pedestrian mobility: shorter coherence, gentle drift.
    #[must_use]
    pub fn pedestrian() -> Self {
        Self {
            fast_coherence: SimDuration::from_millis(20),
            drift_range_db: 3.0,
            drift_rate_db_per_s: 0.5,
            ..Self::stationary()
        }
    }

    /// Vehicular mobility: very short coherence, strong drift.
    #[must_use]
    pub fn driving() -> Self {
        Self {
            fast_sigma_db: 4.0,
            fast_coherence: SimDuration::from_millis(5),
            shadow_sigma_db: 4.0,
            shadow_tau: SimDuration::from_secs(5),
            drift_range_db: 8.0,
            drift_rate_db_per_s: 2.0,
            ..Self::stationary()
        }
    }
}

/// Link budget: how SNR becomes bytes per TTI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBudget {
    /// Peak cell rate in bits per second (reached at `snr_at_peak_db`).
    pub peak_rate_bps: f64,
    /// SNR at which the MCS ladder saturates.
    pub snr_at_peak_db: f64,
    /// Transmission Time Interval (1 ms LTE, 2 ms HSPA+).
    pub tti: SimDuration,
    /// Number of discrete MCS/CQI steps (15 for LTE CQI).
    pub cqi_steps: u32,
}

impl LinkBudget {
    /// LTE-like: 1 ms TTI, 15 CQI steps.
    #[must_use]
    pub fn lte(peak_rate_bps: f64) -> Self {
        Self {
            peak_rate_bps,
            snr_at_peak_db: 22.0,
            tti: SimDuration::from_millis(1),
            cqi_steps: 15,
        }
    }

    /// 3G/HSPA+-like: 2 ms TTI, 15 CQI steps, saturating earlier.
    #[must_use]
    pub fn hspa(peak_rate_bps: f64) -> Self {
        Self {
            peak_rate_bps,
            snr_at_peak_db: 18.0,
            tti: SimDuration::from_millis(2),
            cqi_steps: 15,
        }
    }

    /// Maps an SNR to the cell's deliverable bytes in one TTI.
    ///
    /// Truncated Shannon, normalized to the peak rate at
    /// `snr_at_peak_db`, quantized to `cqi_steps` levels. SNR at or
    /// below ~-6 dB yields zero (out of coverage for data).
    #[must_use]
    pub fn bytes_per_tti(&self, snr_db: f64) -> u32 {
        self.bytes_per_tti_at(snr_db, shannon_efficiency(self.snr_at_peak_db))
    }

    /// [`Self::bytes_per_tti`] with the efficiency at `snr_at_peak_db`
    /// precomputed.
    fn bytes_per_tti_at(&self, snr_db: f64, peak_eff: f64) -> u32 {
        let eff = shannon_efficiency(snr_db.min(self.snr_at_peak_db));
        let ratio = (eff / peak_eff).clamp(0.0, 1.0);
        // CQI quantization (floor: the scheduler picks the highest MCS
        // that still decodes).
        let steps = self.cqi_steps as f64;
        let quantized = (ratio * steps).floor() / steps;
        let bits = self.peak_rate_bps * quantized * self.tti.as_secs_f64();
        (bits / 8.0).floor() as u32
    }
}

/// Shannon spectral efficiency (bit/s/Hz) at an SNR in dB.
fn shannon_efficiency(snr_db: f64) -> f64 {
    (1.0 + 10f64.powf(snr_db / 10.0)).log2()
}

/// The combined SNR → rate process, advanced one TTI at a time.
#[derive(Debug, Clone)]
pub struct RateProcess {
    config: FadingConfig,
    budget: LinkBudget,
    /// `budget`'s peak efficiency, constant over the process's life.
    peak_eff: f64,
    fast_db: f64,
    shadow_db: f64,
    drift_db: f64,
    drift_direction: f64,
    rho_fast: f64,
    shadow_step: f64,
}

impl RateProcess {
    /// Creates the process in its stationary state (fast/shadow start at
    /// zero deviation; drift starts centred).
    #[must_use]
    pub fn new(config: FadingConfig, budget: LinkBudget) -> Self {
        let tti_s = budget.tti.as_secs_f64();
        let rho_fast = (-tti_s / config.fast_coherence.as_secs_f64().max(1e-9)).exp();
        let shadow_step = tti_s / config.shadow_tau.as_secs_f64().max(1e-9);
        Self {
            config,
            budget,
            peak_eff: shannon_efficiency(budget.snr_at_peak_db),
            fast_db: 0.0,
            shadow_db: 0.0,
            drift_db: 0.0,
            drift_direction: 1.0,
            rho_fast,
            shadow_step,
        }
    }

    /// The configured TTI.
    #[must_use]
    pub fn tti(&self) -> SimDuration {
        self.budget.tti
    }

    /// Current instantaneous SNR in dB.
    #[must_use]
    pub fn snr_db(&self) -> f64 {
        self.config.mean_snr_db + self.fast_db + self.shadow_db + self.drift_db
    }

    /// Advances one TTI and returns the cell's deliverable bytes in it.
    pub fn next_tti<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u32 {
        // Fast fading: AR(1) with stationary sigma fast_sigma_db.
        let innovation = (1.0 - self.rho_fast * self.rho_fast).sqrt()
            * self.config.fast_sigma_db
            * Normal::standard(rng);
        self.fast_db = self.rho_fast * self.fast_db + innovation;

        // Shadowing: Euler–Maruyama OU step towards 0.
        if self.config.shadow_sigma_db > 0.0 {
            let diffusion = self.config.shadow_sigma_db * (2.0 * self.shadow_step).sqrt();
            self.shadow_db += -self.shadow_step * self.shadow_db
                + diffusion * Normal::standard(rng);
        }

        // Mobility drift: reflecting random-ish walk in [-range, +range].
        if self.config.drift_range_db > 0.0 && self.config.drift_rate_db_per_s > 0.0 {
            let tti_s = self.budget.tti.as_secs_f64();
            let step = self.config.drift_rate_db_per_s * tti_s
                * (1.0 + 0.5 * Normal::standard(rng));
            self.drift_db += self.drift_direction * step;
            if self.drift_db.abs() > self.config.drift_range_db {
                self.drift_db = self
                    .drift_db
                    .clamp(-self.config.drift_range_db, self.config.drift_range_db);
                self.drift_direction = -self.drift_direction;
            }
        }

        self.budget.bytes_per_tti_at(self.snr_db(), self.peak_eff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use verus_stats::Running;

    #[test]
    fn budget_saturates_at_peak() {
        let b = LinkBudget::lte(10e6);
        let at_peak = b.bytes_per_tti(22.0);
        let above = b.bytes_per_tti(40.0);
        assert_eq!(at_peak, above);
        // 10 Mbit/s over 1 ms = 1250 bytes.
        assert_eq!(at_peak, 1250);
    }

    #[test]
    fn budget_is_monotone_in_snr() {
        let b = LinkBudget::hspa(5e6);
        let mut prev = 0;
        for snr10 in -100..300 {
            let r = b.bytes_per_tti(snr10 as f64 / 10.0);
            assert!(r >= prev, "rate dropped at snr {}", snr10 as f64 / 10.0);
            prev = r;
        }
    }

    #[test]
    fn budget_zero_deep_fade() {
        let b = LinkBudget::lte(10e6);
        assert_eq!(b.bytes_per_tti(-30.0), 0);
    }

    #[test]
    fn budget_is_quantized() {
        let b = LinkBudget::lte(15e6);
        let mut levels = std::collections::BTreeSet::new();
        for snr10 in -60..240 {
            levels.insert(b.bytes_per_tti(snr10 as f64 / 10.0));
        }
        // at most cqi_steps+1 distinct levels (incl. zero)
        assert!(levels.len() <= 16, "{} levels", levels.len());
        assert!(levels.len() >= 8, "{} levels", levels.len());
    }

    #[test]
    fn process_mean_rate_tracks_mean_snr() {
        let cfg = FadingConfig::stationary();
        let budget = LinkBudget::lte(10e6);
        let expected = budget.bytes_per_tti(cfg.mean_snr_db);
        let mut p = RateProcess::new(cfg, budget);
        let mut rng = StdRng::seed_from_u64(1);
        let mut r = Running::new();
        for _ in 0..200_000 {
            r.push(f64::from(p.next_tti(&mut rng)));
        }
        // Mean within 25% of the zero-deviation rate (fading is zero-mean
        // in dB but the rate map is concave, so some bias is expected).
        assert!(
            (r.mean() - f64::from(expected)).abs() < 0.25 * f64::from(expected),
            "mean {} vs {}",
            r.mean(),
            expected
        );
        // And it actually varies.
        assert!(r.std_dev() > 0.0);
    }

    #[test]
    fn driving_varies_more_than_stationary() {
        let budget = LinkBudget::lte(10e6);
        let run = |cfg: FadingConfig, seed: u64| {
            let mut p = RateProcess::new(cfg, budget);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut r = Running::new();
            // aggregate per-100ms windows to see slow-scale variation
            for _ in 0..600 {
                let mut w = 0.0;
                for _ in 0..100 {
                    w += f64::from(p.next_tti(&mut rng));
                }
                r.push(w);
            }
            r
        };
        let stationary = run(FadingConfig::stationary(), 7);
        let driving = run(FadingConfig::driving(), 7);
        assert!(
            driving.std_dev() / driving.mean() > stationary.std_dev() / stationary.mean(),
            "driving CoV {} <= stationary CoV {}",
            driving.std_dev() / driving.mean(),
            stationary.std_dev() / stationary.mean()
        );
    }

    #[test]
    fn drift_stays_bounded() {
        let cfg = FadingConfig::driving();
        let mut p = RateProcess::new(cfg, LinkBudget::lte(10e6));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100_000 {
            p.next_tti(&mut rng);
            assert!(p.drift_db.abs() <= cfg.drift_range_db + 1e-9);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = || {
            let mut p = RateProcess::new(FadingConfig::pedestrian(), LinkBudget::hspa(5e6));
            let mut rng = StdRng::seed_from_u64(99);
            (0..1000).map(|_| p.next_tti(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }
}
