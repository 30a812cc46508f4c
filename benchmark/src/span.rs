//! Spans recorded from the benchmark's own files around calls into a layer.
//!
//! A span is a name, a start, an end and the span that was open when it
//! began. Spans stay in memory and are written out when the run ends. A
//! disabled recorder costs one branch per call, so the timed reps run the
//! same code as the traced pass.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

/// One recorded span; times are nanoseconds since the recorder was made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `dataplane.forward_wave`.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Handle returned by [`Spans::enter`], consumed by [`Spans::exit`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// Per-name totals derived from a recording.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans of this name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by direct children.
    pub self_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn disabled() -> Spans {
        Spans {
            epoch: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording recorder.
    pub fn enabled() -> Spans {
        Spans {
            epoch: Some(Instant::now()),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(epoch: Instant) -> u64 {
        epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let Some(epoch) = self.epoch else {
            return SpanId(None);
        };
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: Self::now_ns(epoch),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes `id`, which must be the innermost open span.
    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        let (Some(epoch), Some(idx)) = (self.epoch, id.0) else {
            return;
        };
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = Self::now_ns(epoch);
    }

    /// The recorded spans in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name. A span's self time is its
    /// duration minus the part its direct children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// [`Spans::totals`] as JSON, keyed by span name.
    pub fn totals_json(&self) -> Value {
        let totals = self.totals().into_iter().map(|(name, t)| {
            let v = serde_json::json!({
                "count": t.count,
                "total_ns": t.total_ns,
                "self_ns": t.self_ns
            });
            (name.to_string(), v)
        });
        Value::Object(totals.collect())
    }

    /// The recording as JSON: the per-name totals, then every span.
    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                serde_json::json!({
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent.map(|p| p as u64)
                })
            })
            .collect();
        Value::Object(vec![
            ("totals".to_string(), self.totals_json()),
            ("spans".to_string(), Value::Array(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut s = Spans::enabled();
        s.spans = vec![
            span("rep", 0, 100, None),
            span("layer.a", 10, 40, Some(0)),
            span("layer.b", 15, 25, Some(1)),
            span("layer.a", 50, 90, Some(0)),
        ];
        let t = s.totals();
        assert_eq!(
            t["rep"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        // Grandchildren are subtracted from their parent, not from `rep`.
        assert_eq!(
            t["layer.a"],
            NameTotals {
                count: 2,
                total_ns: 70,
                self_ns: 60
            }
        );
        assert_eq!(
            t["layer.b"],
            NameTotals {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
    }

    #[test]
    fn enter_exit_nest_and_disabled_records_nothing() {
        let mut s = Spans::enabled();
        let outer = s.enter("outer");
        let inner = s.enter("inner");
        s.exit(inner);
        s.exit(outer);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert!(s.spans()[0].end_ns >= s.spans()[1].end_ns);

        let mut off = Spans::disabled();
        let id = off.enter("x");
        off.exit(id);
        assert!(off.spans().is_empty());
    }
}
