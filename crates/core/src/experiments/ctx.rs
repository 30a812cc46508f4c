//! The one context every experiment runs in.

use scion_ingest::Ingested;
use scion_telemetry::{Telemetry, TelemetryConfig};

use crate::experiments::world::World;
use crate::experiments::{lossy, overload, scaling};
use crate::scale::{ExperimentScale, ScaleParams};

/// Everything an experiment's `run` is given: sizing, seed, topology
/// source, worker threads, sweep lists, and where its telemetry goes.
///
/// A plain struct — callers set fields (or chain the `with_*` helpers)
/// and call the module's `run(&mut ctx)`:
///
/// ```
/// use scion_core::experiments::{scionlab, RunCtx};
/// use scion_core::scale::ExperimentScale;
///
/// let mut ctx = RunCtx::new(ExperimentScale::Bench).with_seed(7);
/// let fig9 = scionlab::run_fig9(&mut ctx);
/// assert!(!fig9.interface_bps.is_empty());
/// ```
pub struct RunCtx {
    /// The named scale (`overload` sizes itself from the name, not from
    /// [`ScaleParams`]).
    pub scale: ExperimentScale,
    /// The scale's parameters, master seed already applied.
    pub params: ScaleParams,
    /// Worker threads of single-run experiments.
    pub threads: usize,
    /// An ingested topology replacing the generator's Internet
    /// (`--source` / `--ixp`); [`RunCtx::world`] builds on it.
    pub source: Option<Ingested>,
    /// Whether [`RunCtx::telemetry`] hands out recording handles.
    pub recording: bool,
    /// `lossy`: per-message loss rates swept, cleanest first.
    pub loss_rates: Vec<f64>,
    /// `overload`: offered loads swept, permille of capacity.
    pub loads_permille: Vec<u32>,
    /// `scaling`: worker-thread counts measured, one row each.
    pub thread_counts: Vec<usize>,
    /// Handles the experiment handed back through [`RunCtx::keep`], by
    /// dump label: `""` is dumped under `DIR/`, anything else under
    /// `DIR/<label>/`. Writing them is the caller's job.
    pub dumps: Vec<(String, Telemetry)>,
}

impl RunCtx {
    /// The context of a plain run at `scale`: built-in seed, synthetic
    /// world, one worker thread, disabled telemetry, default sweeps.
    pub fn new(scale: ExperimentScale) -> RunCtx {
        RunCtx {
            scale,
            params: scale.params(),
            threads: 1,
            source: None,
            recording: false,
            loss_rates: lossy::LOSS_RATES.to_vec(),
            loads_permille: overload::LOAD_PERMILLE.to_vec(),
            thread_counts: scaling::DEFAULT_THREAD_COUNTS.to_vec(),
            dumps: Vec::new(),
        }
    }

    /// Replaces the scale's master seed.
    pub fn with_seed(mut self, seed: u64) -> RunCtx {
        self.params.seed = seed;
        self
    }

    /// Sets the worker-thread count of single-run experiments.
    pub fn with_threads(mut self, threads: usize) -> RunCtx {
        self.threads = threads;
        self
    }

    /// Makes [`RunCtx::telemetry`] hand out recording handles.
    pub fn recording(mut self) -> RunCtx {
        self.recording = true;
        self
    }

    /// Builds the experiment world: on the ingested topology when there
    /// is one, from the generator otherwise. Built per call — only the
    /// experiments that run on a world pay for one.
    pub fn world(&self) -> World {
        match &self.source {
            Some(ingested) => World::from_internet(ingested.topology.to_topology(), self.params),
            None => World::build(self.params),
        }
    }

    /// A fresh telemetry handle: recording when the run dumps telemetry,
    /// the inert no-op handle otherwise.
    pub fn telemetry(&self) -> Telemetry {
        if self.recording {
            Telemetry::new(TelemetryConfig::default())
        } else {
            Telemetry::disabled()
        }
    }

    /// Hands a finished handle back for dumping under `label`.
    pub fn keep(&mut self, label: impl Into<String>, tel: Telemetry) {
        self.dumps.push((label.into(), tel));
    }

    /// The handle kept under `label`.
    ///
    /// # Panics
    /// When the experiment kept none under that label.
    pub fn dumped(&self, label: &str) -> &Telemetry {
        self.dumps
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, tel)| tel)
            .unwrap_or_else(|| panic!("no telemetry handle kept under '{label}'"))
    }
}
