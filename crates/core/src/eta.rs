//! E.T.A. estimation for in-flight and future staging.
//!
//! The paper (§IV-A): each urd monitors "the performance of such
//! transfers in order to compute an E.T.A. for each task … so that
//! slurmctld can estimate how long a node may be 'in use' by data
//! transfers before a job starts and after a job completes". The
//! scheduler also "uses calculations of average data transfer times and
//! data sizes to decide when to trigger such movements prior to a job
//! starting".
//!
//! The estimator keeps an exponentially weighted moving average of the
//! achieved bandwidth per *route class* (the plugin kind), learned from
//! completed tasks, and predicts transfer durations for planning.

use std::collections::HashMap;

use simcore::{SimDuration, SimTime};

use crate::PluginKind;

/// Observed-rate record for one route class.
#[derive(Debug, Clone, Copy)]
struct RouteStats {
    ewma_rate: f64,
    samples: u64,
}

/// Bandwidth learner + predictor.
#[derive(Debug)]
pub struct EtaEstimator {
    routes: HashMap<PluginKind, RouteStats>,
    /// Weight of the newest sample in the EWMA.
    alpha: f64,
    /// Optimistic prior used before any observation, bytes/s.
    prior_rate: f64,
}

impl Default for EtaEstimator {
    fn default() -> Self {
        Self::new(0.3, simcore::units::gib_per_s(1.0))
    }
}

impl EtaEstimator {
    pub fn new(alpha: f64, prior_rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha));
        assert!(prior_rate > 0.0);
        EtaEstimator {
            routes: HashMap::new(),
            alpha,
            prior_rate,
        }
    }

    /// Record a completed transfer.
    pub fn observe(&mut self, route: PluginKind, bytes: u64, elapsed: SimDuration) {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 || bytes == 0 {
            return;
        }
        let rate = bytes as f64 / secs;
        let entry = self.routes.entry(route).or_insert(RouteStats {
            ewma_rate: rate,
            samples: 0,
        });
        entry.ewma_rate = if entry.samples == 0 {
            rate
        } else {
            self.alpha * rate + (1.0 - self.alpha) * entry.ewma_rate
        };
        entry.samples += 1;
    }

    /// Current believed bandwidth for a route class, bytes/s.
    pub fn rate(&self, route: PluginKind) -> f64 {
        self.routes
            .get(&route)
            .map(|r| r.ewma_rate)
            .unwrap_or(self.prior_rate)
    }

    pub fn samples(&self, route: PluginKind) -> u64 {
        self.routes.get(&route).map(|r| r.samples).unwrap_or(0)
    }

    /// Predicted duration to move `bytes` over `route`.
    pub fn predict(&self, route: PluginKind, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.rate(route))
    }

    /// E.T.A. for a task that started at `started`, already moved
    /// `moved` of `total` bytes, evaluated at `now`. Uses the task's
    /// own observed rate when it has made progress, falling back to the
    /// route estimate otherwise.
    pub fn eta(
        &self,
        route: PluginKind,
        total: u64,
        moved: u64,
        started: SimTime,
        now: SimTime,
    ) -> SimTime {
        let remaining = total.saturating_sub(moved);
        if remaining == 0 {
            return now;
        }
        let elapsed = (now - started).as_secs_f64();
        let rate = if moved > 0 && elapsed > 0.0 {
            moved as f64 / elapsed
        } else {
            self.rate(route)
        };
        now + SimDuration::from_secs_f64(remaining as f64 / rate.max(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn prior_used_before_observations() {
        let est = EtaEstimator::default();
        assert_eq!(est.samples(PluginKind::LocalToLocal), 0);
        let d = est.predict(PluginKind::LocalToLocal, GIB);
        assert!((d.as_secs_f64() - 1.0).abs() < 1e-9, "prior 1 GiB/s");
    }

    #[test]
    fn first_observation_replaces_prior() {
        let mut est = EtaEstimator::default();
        est.observe(PluginKind::LocalToLocal, 2 * GIB, SimDuration::from_secs(1));
        let rate = est.rate(PluginKind::LocalToLocal);
        assert!((rate - 2.0 * GIB as f64).abs() < 1.0);
    }

    #[test]
    fn ewma_converges_toward_recent_rates() {
        let mut est = EtaEstimator::new(0.5, 1e9);
        // Settle at 100 B/s, then shift to 200 B/s.
        for _ in 0..10 {
            est.observe(PluginKind::LocalToRemote, 100, SimDuration::from_secs(1));
        }
        let low = est.rate(PluginKind::LocalToRemote);
        assert!((low - 100.0).abs() < 1.0);
        for _ in 0..10 {
            est.observe(PluginKind::LocalToRemote, 200, SimDuration::from_secs(1));
        }
        let high = est.rate(PluginKind::LocalToRemote);
        assert!(high > 190.0, "ewma should track the new regime: {high}");
    }

    #[test]
    fn routes_are_independent() {
        let mut est = EtaEstimator::default();
        est.observe(PluginKind::LocalToLocal, 1000, SimDuration::from_secs(1));
        est.observe(PluginKind::LocalToRemote, 10, SimDuration::from_secs(1));
        assert!(est.rate(PluginKind::LocalToLocal) > est.rate(PluginKind::LocalToRemote));
    }

    #[test]
    fn zero_byte_and_zero_time_observations_ignored() {
        let mut est = EtaEstimator::default();
        est.observe(PluginKind::LocalToLocal, 0, SimDuration::from_secs(1));
        est.observe(PluginKind::LocalToLocal, 100, SimDuration::ZERO);
        assert_eq!(est.samples(PluginKind::LocalToLocal), 0);
    }

    #[test]
    fn eta_uses_in_flight_progress() {
        let est = EtaEstimator::default();
        let started = SimTime::from_secs(0);
        let now = SimTime::from_secs(10);
        // 40% done in 10s → 15s more for the remaining 60%.
        let eta = est.eta(PluginKind::RemoteToLocal, 1000, 400, started, now);
        assert!((eta.as_secs_f64() - 25.0).abs() < 1e-6, "eta {eta}");
    }

    #[test]
    fn eta_of_finished_task_is_now() {
        let est = EtaEstimator::default();
        let now = SimTime::from_secs(42);
        assert_eq!(
            est.eta(PluginKind::LocalToLocal, 10, 10, SimTime::ZERO, now),
            now
        );
    }

    #[test]
    fn eta_without_progress_falls_back_to_route_rate() {
        let mut est = EtaEstimator::default();
        est.observe(PluginKind::LocalToLocal, 100, SimDuration::from_secs(1));
        let now = SimTime::from_secs(5);
        let eta = est.eta(
            PluginKind::LocalToLocal,
            1000,
            0,
            SimTime::from_secs(5),
            now,
        );
        assert!((eta.as_secs_f64() - 15.0).abs() < 1e-6);
    }
}
