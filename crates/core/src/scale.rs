//! Experiment scaling.
//!
//! The paper's full-scale runs (12 000-AS BGP topology, 2 000 core ASes,
//! six hours of beaconing, a 7 028-AS ISD) cost CPU-hours. Every run in
//! [`crate::experiments`] is therefore sized by an [`ExperimentScale`]:
//! [`ExperimentScale::Tiny`] for unit tests, [`ExperimentScale::default`]
//! (= `Small`) reproduces the *shape* of each result in minutes on a
//! laptop, and [`ExperimentScale::Paper`] matches §5.1's sizes.

use scion_types::Duration;

/// Sizing knobs for one experiment run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScaleParams {
    /// ASes in the full Internet topology (paper: 12 000).
    pub num_ases: usize,
    /// Core ASes after degree pruning (paper: 2 000).
    pub num_core: usize,
    /// Core ASes per ISD (paper: 10).
    pub isd_size: usize,
    /// Core ASes seeding the intra-ISD topology (paper: 11).
    pub intra_isd_cores: usize,
    /// Beaconing interval (paper: 10 min). Scaled-down profiles shrink
    /// interval and lifetime together so every Eq. (1)-(3) ratio —
    /// age/lifetime, remaining-lifetime quotients, intervals per
    /// lifetime — is preserved exactly.
    pub interval: Duration,
    /// PCB lifetime (paper: 6 h; always 36 intervals).
    pub pcb_lifetime: Duration,
    /// Simulated beaconing window (paper: 6 h).
    pub sim_duration: Duration,
    /// RouteViews-style monitors (paper: 26).
    pub num_monitors: usize,
    /// Ordered AS pairs sampled for path-quality CDFs.
    pub quality_pairs: usize,
    /// Whether beacon receivers run full signature validation (always on
    /// in production; optional only to keep the largest byte-accounting
    /// runs fast: on, the `scaling` row's one-worker run takes ×1.41 the
    /// wall of the same run with it off — 128 s against 90 s at PR 23).
    pub verify_on_receive: bool,
    /// Master seed.
    pub seed: u64,
    /// §5.2 BGPsec extrapolation target (the full AS-rel Internet size);
    /// `None` skips extrapolation.
    pub bgpsec_extrapolate_to: Option<usize>,
}

impl ScaleParams {
    /// A beaconing configuration matching this scale's cadence.
    pub fn beaconing_config(
        &self,
        algorithm: scion_beaconing::Algorithm,
    ) -> scion_beaconing::BeaconingConfig {
        scion_beaconing::BeaconingConfig {
            interval: self.interval,
            pcb_lifetime: self.pcb_lifetime,
            algorithm,
            verify_on_receive: self.verify_on_receive,
            ..scion_beaconing::BeaconingConfig::default()
        }
    }
}

/// Named scales.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Smallest: sized for the unit tests that run an experiment more
    /// than once.
    Bench,
    /// Seconds-fast; used by unit and integration tests.
    Tiny,
    /// Minutes-fast; the default for the harness binaries.
    #[default]
    Small,
    /// The paper's §5.1 sizes. Expect CPU-hours.
    Paper,
}

impl ExperimentScale {
    /// Resolves the named scale to concrete parameters.
    pub fn params(self) -> ScaleParams {
        match self {
            ExperimentScale::Bench => ScaleParams {
                num_ases: 60,
                num_core: 8,
                isd_size: 4,
                intra_isd_cores: 2,
                interval: Duration::from_secs(100),
                pcb_lifetime: Duration::from_secs(3_600),
                sim_duration: Duration::from_secs(1_800),
                num_monitors: 4,
                quality_pairs: 20,
                verify_on_receive: false,
                seed: 0xC0_4E_21,
                bgpsec_extrapolate_to: None,
            },
            ExperimentScale::Tiny => ScaleParams {
                num_ases: 100,
                num_core: 12,
                isd_size: 4,
                intra_isd_cores: 3,
                interval: Duration::from_secs(100),
                pcb_lifetime: Duration::from_secs(3_600),
                sim_duration: Duration::from_secs(5_400),
                num_monitors: 6,
                quality_pairs: 40,
                verify_on_receive: false,
                seed: 0xC0_4E_21,
                bgpsec_extrapolate_to: None,
            },
            ExperimentScale::Small => ScaleParams {
                num_ases: 1_200,
                num_core: 100,
                isd_size: 10,
                intra_isd_cores: 6,
                interval: Duration::from_mins(10),
                pcb_lifetime: Duration::from_hours(6),
                sim_duration: Duration::from_hours(6),
                num_monitors: 16,
                quality_pairs: 200,
                verify_on_receive: false,
                seed: 0xC0_4E_21,
                bgpsec_extrapolate_to: None,
            },
            ExperimentScale::Paper => ScaleParams {
                num_ases: 12_000,
                num_core: 2_000,
                isd_size: 10,
                intra_isd_cores: 11,
                interval: Duration::from_mins(10),
                pcb_lifetime: Duration::from_hours(6),
                sim_duration: Duration::from_hours(6),
                num_monitors: 26,
                quality_pairs: 1_000,
                verify_on_receive: false,
                seed: 0xC0_4E_21,
                // CAIDA AS-rel (serial-1) has ~70k ASes against
                // AS-rel-geo's 12k.
                bgpsec_extrapolate_to: Some(70_000),
            },
        }
    }

    /// Parses a scale name (`tiny` / `small` / `paper` / `full`).
    pub fn parse(s: &str) -> Option<ExperimentScale> {
        match s.to_ascii_lowercase().as_str() {
            "bench" => Some(ExperimentScale::Bench),
            "tiny" => Some(ExperimentScale::Tiny),
            "small" | "default" => Some(ExperimentScale::Small),
            "paper" | "full" => Some(ExperimentScale::Paper),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_section_5_1() {
        let p = ExperimentScale::Paper.params();
        assert_eq!(p.num_ases, 12_000);
        assert_eq!(p.num_core, 2_000);
        assert_eq!(p.isd_size, 10);
        assert_eq!(p.intra_isd_cores, 11);
        assert_eq!(p.sim_duration, Duration::from_hours(6));
        assert_eq!(p.interval, Duration::from_mins(10));
        assert_eq!(p.pcb_lifetime, Duration::from_hours(6));
        assert_eq!(p.num_monitors, 26);
    }

    #[test]
    fn scales_are_ordered_by_size() {
        let t = ExperimentScale::Tiny.params();
        let s = ExperimentScale::Small.params();
        let p = ExperimentScale::Paper.params();
        assert!(t.num_ases < s.num_ases && s.num_ases < p.num_ases);
        assert!(t.num_core < s.num_core && s.num_core < p.num_core);
    }

    #[test]
    fn every_scale_preserves_36_intervals_per_lifetime() {
        for scale in [
            ExperimentScale::Bench,
            ExperimentScale::Tiny,
            ExperimentScale::Small,
            ExperimentScale::Paper,
        ] {
            let p = scale.params();
            assert_eq!(
                p.pcb_lifetime.as_micros() / p.interval.as_micros(),
                36,
                "{scale:?} breaks the paper's interval:lifetime ratio"
            );
        }
    }

    #[test]
    fn parse_accepts_aliases() {
        assert_eq!(ExperimentScale::parse("tiny"), Some(ExperimentScale::Tiny));
        assert_eq!(ExperimentScale::parse("FULL"), Some(ExperimentScale::Paper));
        assert_eq!(
            ExperimentScale::parse("default"),
            Some(ExperimentScale::Small)
        );
        assert_eq!(ExperimentScale::parse("bogus"), None);
    }
}
