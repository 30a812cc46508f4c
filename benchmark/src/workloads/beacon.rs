//! `beacon_verify`, `beacon_diversity`, `beacon_par2`: one rep is one whole
//! core-beaconing run through the widest entry point,
//! `run_core_beaconing_parallel`.

use crate::adapter::{
    bootstrap_trust, run_core_beaconing_parallel, Algorithm, BeaconingConfig, BeaconingOutcome,
    DiversityParams, Duration, SimTime, Telemetry, TrustStore, World,
};
use crate::span::Spans;
use crate::workloads::{scale, Digest, Workload};

/// Internet size: large enough that `World::build` alone costs ≥ 50 ms, so
/// `setup_s` times real work — and no larger, so that a run can afford to
/// build thirty times and find a quiet one.
pub const NUM_ASES: usize = 3_500;
/// Core ASes beaconing to each other.
pub const NUM_CORE: usize = 8;
/// Beacons stored per origin. With 8 densely linked cores every store
/// holds `7 × STORAGE_LIMIT` beacons before the window ends, so the rep
/// reaches the steady state of admission-with-eviction.
pub const STORAGE_LIMIT: usize = 10;
/// Beaconing intervals simulated per rep: the fewest that saturate every
/// store, because a rep must be short enough to fit a quiet gap.
pub const INTERVALS: u64 = 2;

/// Which of the three beaconing workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Baseline, verification on, one thread.
    Verify,
    /// Diversity algorithm, verification off, one thread.
    Diversity,
    /// [`Variant::Verify`] on two threads.
    Par2,
}

impl Variant {
    fn threads(self) -> usize {
        if self == Variant::Par2 {
            2
        } else {
            1
        }
    }
}

/// A beaconing workload with its world built.
pub struct Beacon {
    variant: Variant,
    seed: u64,
    /// The derived topologies; beaconing runs on `world.core`.
    pub world: World,
    /// Trust material of `world.core`, for validation outside the run (the
    /// driver bootstraps its own inside).
    pub trust: TrustStore,
    /// The run's configuration.
    pub cfg: BeaconingConfig,
    /// The last rep's outcome, kept so layer kernels can harvest real
    /// stores and PCBs from it.
    pub last: Option<BeaconingOutcome>,
}

impl Beacon {
    /// Builds the world and trust store.
    pub fn build(variant: Variant, seed: u64) -> Beacon {
        let params = scale(NUM_ASES, NUM_CORE, 3);
        let world = World::build(params);
        let horizon = SimTime::ZERO + params.pcb_lifetime + Duration::from_days(2);
        let trust = bootstrap_trust(&world.core, horizon);
        let cfg = BeaconingConfig {
            interval: params.interval,
            pcb_lifetime: params.pcb_lifetime,
            dissemination_limit: 5,
            storage_limit: Some(STORAGE_LIMIT),
            algorithm: match variant {
                Variant::Diversity => Algorithm::Diversity(DiversityParams::default()),
                Variant::Verify | Variant::Par2 => Algorithm::Baseline,
            },
            verify_on_receive: variant != Variant::Diversity,
        };
        Beacon {
            variant,
            seed,
            world,
            trust,
            cfg,
            last: None,
        }
    }

    /// Simulated time per rep.
    pub fn window(&self) -> Duration {
        self.cfg.interval * INTERVALS
    }

    /// One beaconing run on `threads` threads with telemetry handle `tel`.
    pub fn beaconing(&self, threads: usize, tel: &mut Telemetry) -> BeaconingOutcome {
        run_core_beaconing_parallel(
            &self.world.core,
            &self.cfg,
            Duration::ZERO,
            self.window(),
            self.seed,
            threads,
            tel,
        )
    }

    fn digest(out: &BeaconingOutcome) -> Digest {
        let stored = out.servers.iter().flatten().map(|s| s.store().len() as u64);
        Digest {
            ops: out.beacons_delivered,
            fields: vec![("total_bytes", out.total_bytes()), ("stored", stored.sum())],
        }
    }
}

impl Workload for Beacon {
    fn prepare(&mut self) {
        // Free the previous outcome outside the timed region.
        self.last = None;
    }

    fn run(&mut self, spans: &mut Spans) -> Digest {
        let span = spans.enter("beaconing.run_core_beaconing_parallel");
        let out = self.beaconing(self.variant.threads(), &mut Telemetry::disabled());
        spans.exit(span);
        let digest = Self::digest(&out);
        self.last = Some(out);
        digest
    }

    fn verify(&mut self) -> Result<(), String> {
        let out = self.beaconing(self.variant.threads(), &mut Telemetry::disabled());
        let now = SimTime::ZERO + self.window();
        let full = (NUM_CORE - 1) * STORAGE_LIMIT;
        for server in out.servers.iter().flatten() {
            let store = server.store();
            if store.len() != full {
                return Err(format!(
                    "{} holds {} beacons, sized for {full}: the rep no longer saturates its stores",
                    server.isd_asn(),
                    store.len()
                ));
            }
            for origin in store.origins() {
                for b in store.beacons_of(origin, now) {
                    b.pcb
                        .validate(&self.trust, now)
                        .map_err(|e| format!("stored beacon of {origin} invalid: {e}"))?;
                }
            }
        }
        if self.variant == Variant::Par2 {
            let serial = self.beaconing(1, &mut Telemetry::disabled());
            if Self::digest(&serial) != Self::digest(&out) {
                return Err("2-thread outcome differs from the 1-thread outcome".into());
            }
        }
        Ok(())
    }
}
