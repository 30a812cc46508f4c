//! Beaconing configuration: the §5.1 experiment parameters.

use serde::{Deserialize, Serialize};

use scion_types::Duration;

/// Which path construction algorithm a beacon server runs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Algorithm {
    /// k-shortest per `[origin, interface]`, resent every interval.
    Baseline,
    /// Path-diversity-based (Algorithm 1), per `[origin, neighbor]`.
    Diversity(DiversityParams),
}

/// Parameters of the diversity scoring (Eq. 1–3 and the link-diversity
/// score).
///
/// The paper selects α, β, γ and the threshold per topology by grid search
/// (coarse exponential sweep, then fine linear sweep — see
/// [`crate::tuning`]). The defaults here were selected the same way on the
/// mid-size synthetic core topology and satisfy the three §4.2 objectives:
/// fresh unsent paths score ≈ 1 (discovery), recently-resent paths are
/// suppressed (bandwidth), and paths whose previously-sent instance nears
/// expiry recover a score ≈ 1 (connectivity).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DiversityParams {
    /// Age-decay strength for never-sent beacons (Eq. 2).
    pub alpha: f64,
    /// Resend-suppression base factor (Eq. 3).
    pub beta: f64,
    /// Resend-suppression exponent (Eq. 3).
    pub gamma: f64,
    /// The "maximum acceptable geometric mean" of link-history counters
    /// that scales the jointness to [0, 1] (§4.2).
    pub max_geomean: f64,
    /// Minimum final score for a dissemination to happen.
    pub score_threshold: f64,
}

impl Default for DiversityParams {
    fn default() -> Self {
        DiversityParams {
            alpha: 24.0,
            beta: 3.0,
            gamma: 4.0,
            max_geomean: 4.0,
            score_threshold: 0.4,
        }
    }
}

impl DiversityParams {
    /// Parameters grid-searched for **sparse** topologies (SCIONLab-like:
    /// average core degree ≈ 2, large diameter). Long paths age several
    /// intervals before reaching distant ASes, so the age decay must be
    /// gentler and the threshold lower than on dense cores — the paper
    /// tunes per topology for exactly this reason ("For a given topology,
    /// we find suitable parameters by … grid search", §4.2).
    pub fn sparse() -> DiversityParams {
        DiversityParams {
            alpha: 6.0,
            beta: 3.0,
            gamma: 4.0,
            max_geomean: 4.0,
            score_threshold: 0.25,
        }
    }
}

/// Full beaconing configuration. Defaults mirror §5.1: ten-minute
/// beaconing interval, six-hour PCB lifetime, dissemination limit 5,
/// storage limit 60.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BeaconingConfig {
    /// Interval between beacon-server runs.
    pub interval: Duration,
    /// PCB lifetime stamped by origins.
    pub pcb_lifetime: Duration,
    /// Maximum PCBs disseminated per origin AS per interval — applied per
    /// *interface* for the baseline and per *neighbor AS* for the
    /// diversity algorithm (§5.1).
    pub dissemination_limit: usize,
    /// Maximum PCBs stored per origin AS at each beacon server
    /// (`None` = unlimited, the paper's "∞" series).
    pub storage_limit: Option<usize>,
    /// Algorithm and its parameters.
    pub algorithm: Algorithm,
    /// Whether receivers run full signature-chain validation on every
    /// beacon (always done in production; switchable only because the
    /// largest simulated topologies do not need it for byte accounting).
    /// What it costs, measured at PR 23 on the one product row that turns
    /// it on (`scion-bench scaling --threads 1`, 100 core ASes, 6 h): 128 s
    /// of wall against 90 s for the same run without it, ×1.41
    /// (EXPERIMENTS.md, "Scaling").
    pub verify_on_receive: bool,
}

impl Default for BeaconingConfig {
    fn default() -> Self {
        BeaconingConfig {
            interval: Duration::from_mins(10),
            pcb_lifetime: Duration::from_hours(6),
            dissemination_limit: 5,
            storage_limit: Some(60),
            algorithm: Algorithm::Baseline,
            verify_on_receive: true,
        }
    }
}

impl BeaconingConfig {
    /// The §5.1 defaults with the given algorithm.
    pub fn with_algorithm(algorithm: Algorithm) -> BeaconingConfig {
        BeaconingConfig {
            algorithm,
            ..BeaconingConfig::default()
        }
    }

    /// The §5.1 defaults with the diversity algorithm's default parameters.
    pub fn diversity() -> BeaconingConfig {
        Self::with_algorithm(Algorithm::Diversity(DiversityParams::default()))
    }

    /// Number of beaconing intervals within one PCB lifetime.
    pub fn intervals_per_lifetime(&self) -> u64 {
        self.pcb_lifetime.as_micros() / self.interval.as_micros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = BeaconingConfig::default();
        assert_eq!(c.interval, Duration::from_mins(10));
        assert_eq!(c.pcb_lifetime, Duration::from_hours(6));
        assert_eq!(c.dissemination_limit, 5);
        assert_eq!(c.storage_limit, Some(60));
        assert_eq!(c.intervals_per_lifetime(), 36);
        assert!(c.verify_on_receive);
    }

    #[test]
    fn diversity_defaults_satisfy_objectives_qualitatively() {
        let p = DiversityParams::default();
        // Fresh unsent path: the score stays comfortably above the
        // threshold even at moderate diversity (age = 1% of lifetime).
        let fresh_exp = p.alpha * 0.01;
        assert!(
            0.5f64.powf(fresh_exp) > p.score_threshold,
            "discovery objective"
        );
        // But a stale unsent instance (age = half its lifetime) decays
        // below the threshold unless fully diverse.
        let stale_exp = p.alpha * 0.5;
        assert!(
            0.8f64.powf(stale_exp) < p.score_threshold,
            "staleness decay"
        );
        // Just-resent path (remaining ratio ≈ 1): heavily suppressed.
        let resent_exp = (p.beta * 0.97).powf(p.gamma);
        assert!(
            0.9f64.powf(resent_exp) < p.score_threshold,
            "bandwidth objective"
        );
        // Previously-sent instance nearly expired (ratio ≈ 0.05): recovers.
        let expiring_exp = (p.beta * 0.05).powf(p.gamma);
        assert!(0.9f64.powf(expiring_exp) > 0.8, "connectivity objective");
    }
}
