//! The virtual-time time-series recorder.
//!
//! The evaluation's interesting behaviour lives in *time series* — queue
//! depth over the run, beacon-store occupancy as stores warm up, per-
//! interface send rates — not in end-of-run totals. The recorder stores
//! `(run, virtual time, metric id, label, value)` samples appended by a
//! sampler that the simulation driver fires from engine timer events on a
//! configurable virtual-time cadence (see
//! `scion_beaconing::driver`). Samples are kept in arrival order, which is
//! deterministic because the sampler itself is driven by the deterministic
//! event queue.

use scion_types::SimTime;
use serde::Serialize;

use crate::ids::MetricId;
use crate::metrics::Label;

/// One sample of one gauge at one virtual instant.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Sample {
    /// Which run of a multi-run experiment produced this sample
    /// (e.g. `"core_baseline"`); empty for single-run drivers.
    pub run: &'static str,
    /// Virtual time of the snapshot, in microseconds.
    pub t_us: u64,
    /// Metric name (the [`MetricId::name`] of the sampled gauge).
    pub id: &'static str,
    /// The AS / interface / link the sample is about.
    pub label: Label,
    /// The gauge value at the snapshot.
    pub value: f64,
}

/// Append-only store of virtual-time samples.
#[derive(Clone, Debug, Default)]
pub struct SeriesRecorder {
    samples: Vec<Sample>,
}

impl SeriesRecorder {
    /// An empty recorder.
    pub fn new() -> SeriesRecorder {
        SeriesRecorder::default()
    }

    /// Appends one sample.
    pub fn record(
        &mut self,
        run: &'static str,
        now: SimTime,
        id: MetricId,
        label: Label,
        value: f64,
    ) {
        self.samples.push(Sample {
            run,
            t_us: now.as_micros(),
            id: id.name(),
            label,
            value,
        });
    }

    /// All samples in recording order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples of one metric id, in time order (recording order).
    pub fn of(&self, id: MetricId) -> Vec<&Sample> {
        self.samples.iter().filter(|s| s.id == id.name()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids;
    use scion_types::Duration;

    #[test]
    fn records_in_order_and_filters_by_id() {
        let mut r = SeriesRecorder::new();
        let t0 = SimTime::ZERO;
        let t1 = SimTime::ZERO + Duration::from_secs(60);
        r.record("a", t0, ids::ENGINE_QUEUE_DEPTH, Label::Global, 1.0);
        r.record("a", t1, ids::ENGINE_QUEUE_DEPTH, Label::Global, 2.0);
        r.record("a", t1, ids::STORE_OCCUPANCY, Label::As(3), 5.0);
        assert_eq!(r.len(), 3);
        let depth = r.of(ids::ENGINE_QUEUE_DEPTH);
        assert_eq!(depth.len(), 2);
        assert_eq!(depth[0].t_us, 0);
        assert_eq!(depth[1].t_us, 60_000_000);
        assert_eq!(depth[1].value, 2.0);
        assert_eq!(depth[0].id, "engine.queue_depth");
        assert_eq!(r.of(ids::STORE_OCCUPANCY)[0].label, Label::As(3));
    }
}
