//! The structured trace layer: typed lifecycle records with virtual
//! timestamps, collected into a bounded ring buffer.
//!
//! Tracing is designed for the PCB lifecycle the paper's §5 evaluation
//! reasons about: origination at a core AS, propagation hops, delivery,
//! store admission/eviction, and segment registration at path servers.
//! When tracing is off ([`TraceSink::disabled`]) the hot path pays exactly
//! one predictable branch: [`TraceSink::emit_with`] takes the record as a
//! closure, so a disabled sink never even constructs the record.
//!
//! The ring is a `Vec` that grows by `push` until it holds `capacity`
//! records — it is never sized up front: a full default ring is 84 MB and
//! most runs emit far fewer — and from then on the oldest record is
//! overwritten where it lies. Nothing is moved out and nothing is freed:
//! a record at capacity costs the one 80-byte store.

use scion_types::{IsdAsn, SimTime};
use serde::Serialize;

/// A typed lifecycle event. Numeric fields are dense topology indices
/// (`AsIndex.0`, `LinkIndex.0`, `IfId.0`).
#[derive(Clone, Debug, PartialEq, Serialize)]
#[serde(tag = "event")]
pub enum TraceEvent {
    /// A core AS originated a fresh zero-hop beacon.
    PcbOriginated {
        /// Originating core AS.
        node: u32,
        /// Interface the beacon left through.
        egress_if: u16,
        /// Per-(AS, interface) origination sequence number.
        seq: u32,
    },
    /// An AS extended a stored beacon and sent it onward.
    PcbPropagated {
        /// Propagating AS.
        node: u32,
        /// The beacon's originating AS.
        origin: IsdAsn,
        /// Interface the extended beacon left through.
        egress_if: u16,
        /// Hop count after extension.
        hops: u32,
    },
    /// A beacon arrived at an AS over a link.
    PcbDelivered {
        /// Receiving AS.
        node: u32,
        /// The beacon's originating AS.
        origin: IsdAsn,
        /// Link the beacon arrived over.
        link: u32,
        /// Hop count at delivery.
        hops: u32,
    },
    /// A received beacon was admitted to (or refreshed in) the store.
    BeaconStored {
        /// Storing AS.
        node: u32,
        /// The beacon's originating AS.
        origin: IsdAsn,
        /// Hop count of the stored beacon.
        hops: u32,
    },
    /// The per-origin storage limit evicted a beacon.
    BeaconEvicted {
        /// Evicting AS.
        node: u32,
        /// The beacon's originating AS.
        origin: IsdAsn,
        /// Hop count of the evicted beacon.
        hops: u32,
        /// True if evicted because it expired (vs crowded out).
        expired: bool,
    },
    /// A path segment was registered at a path server.
    SegmentRegistered {
        /// The path server that accepted the registration.
        server: IsdAsn,
        /// The segment's non-core terminal AS.
        terminal: IsdAsn,
        /// `"up"`, `"down"`, or `"core"`.
        seg_type: &'static str,
        /// Hop count of the segment.
        hops: u32,
    },
    /// A link became unusable (fault injection).
    LinkDown {
        /// The failed link.
        link: u32,
    },
    /// A link recovered (fault injection).
    LinkUp {
        /// The recovered link.
        link: u32,
    },
    /// A path server invalidated stored segments after a link failure.
    PathInvalidated {
        /// The path server that invalidated the segments.
        node: u32,
        /// Origin AS of the invalidated segments.
        origin: IsdAsn,
        /// The failed link that triggered the invalidation.
        link: u32,
    },
    /// A border router verified a packet's current hop-field MAC.
    MacVerified {
        /// Verifying AS.
        node: u32,
        /// True when the MAC was valid under the AS's forwarding key.
        ok: bool,
    },
    /// A packet crossed a border router: entered via `ingress_if`, left
    /// via `egress_if` with the PCFS pointer advanced.
    PacketForwarded {
        /// Forwarding AS.
        node: u32,
        /// Interface the packet arrived on (`IfId::NONE.0` at the source).
        ingress_if: u16,
        /// Interface the packet left through.
        egress_if: u16,
    },
    /// A packet reached its destination AS and was handed to the local
    /// dispatcher.
    PacketDelivered {
        /// Destination AS.
        node: u32,
        /// AS hops of the packet's path (source and destination included).
        hops: u32,
    },
    /// A border router dropped a packet.
    PacketDropped {
        /// Dropping AS.
        node: u32,
        /// Stable drop reason code (e.g. `"bad_mac"`, `"expired"`,
        /// `"link_down"`); the same codes key the `dataplane.drop.*`
        /// counters.
        reason: &'static str,
    },
    /// A border router emitted an SCMP error back toward the source.
    ScmpEmitted {
        /// Emitting AS.
        node: u32,
        /// The interface the error concerns.
        interface: u16,
        /// SCMP message kind (e.g. `"external_interface_down"`).
        kind: &'static str,
    },
    /// An endhost daemon received an SCMP error for one of its flows.
    ScmpReceived {
        /// Receiving (source endhost) AS.
        node: u32,
        /// The AS that raised the error.
        origin: IsdAsn,
        /// The interface the error concerns.
        interface: u16,
    },
    /// An endhost daemon switched a flow onto an alternate cached path
    /// after an SCMP notification (§4.1 fast failover).
    PathFailedOver {
        /// Source endhost AS.
        node: u32,
        /// Destination of the failed-over flow.
        dst: IsdAsn,
    },
    /// A previously failed path became usable again (failure marks
    /// expired or revoked segments were restored after their TTL).
    PathRestored {
        /// The AS whose path set recovered (endhost or path server).
        node: u32,
        /// Destination whose path was restored.
        dst: IsdAsn,
    },
    /// A path server shed requests under overload. Emitted aggregated —
    /// at most one record per (tick, class, reason) — so a flash crowd
    /// cannot flush the trace ring with per-request records.
    RequestShed {
        /// The shedding path server's AS.
        node: u32,
        /// Request class (`"lookup_miss"`, `"lookup_hit"`,
        /// `"registration"`, `"revocation"`).
        class: &'static str,
        /// Why (`"rate_limited"`, `"queue_full"`, `"evicted"`).
        reason: &'static str,
        /// Requests shed in this aggregation window.
        count: u64,
    },
    /// Utilization crossed the brownout threshold: the server now answers
    /// cache-miss lookups from stale-but-valid cache instead of fanning
    /// out upstream.
    BrownoutEntered {
        /// The path server's AS.
        node: u32,
        /// Queue occupancy at the transition, permille of capacity.
        utilization_permille: u32,
    },
    /// Utilization fell below the brownout exit threshold: fresh upstream
    /// fan-out resumes.
    BrownoutExited {
        /// The path server's AS.
        node: u32,
        /// Queue occupancy at the transition, permille of capacity.
        utilization_permille: u32,
    },
    /// The circuit breaker on upstream core-server lookups tripped open
    /// after consecutive failures; lookups short-circuit to degraded
    /// serving until a half-open probe succeeds.
    BreakerTripped {
        /// The path server's AS.
        node: u32,
        /// Consecutive-failure count that tripped it.
        failures: u32,
    },
}

/// A trace record: the event plus its virtual timestamp and run label.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TraceRecord {
    /// Run label (e.g. `"core_diversity"`).
    pub run: &'static str,
    /// Virtual timestamp, microseconds since the epoch.
    pub t_us: u64,
    /// The event itself.
    #[serde(flatten)]
    pub event: TraceEvent,
}

/// Ring-buffered sink of trace records.
#[derive(Clone, Debug)]
pub struct TraceSink {
    enabled: bool,
    capacity: usize,
    /// At most `capacity` records; in emission order until the ring is
    /// full, from then on rotated so that the oldest sits at `head`.
    records: Vec<TraceRecord>,
    /// Where the next record goes once the ring is full; 0 until then.
    head: usize,
    emitted: u64,
    dropped: u64,
}

/// Default ring capacity: enough for every PCB event of a small-scale run;
/// big runs wrap and keep the most recent window. The ring grows on
/// demand; completely full it holds 2^20 records of at most 80 bytes,
/// 84 MB.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

// A full ring's footprint is capacity x record size: a variant that widens
// the record has to show up here, not as a silently heavier run.
const _: () = assert!(std::mem::size_of::<TraceRecord>() <= 80);

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::disabled()
    }
}

impl TraceSink {
    /// A no-op sink: `emit_with` is a single branch, records are never
    /// constructed.
    pub fn disabled() -> TraceSink {
        TraceSink {
            enabled: false,
            capacity: 0,
            records: Vec::new(),
            head: 0,
            emitted: 0,
            dropped: 0,
        }
    }

    /// A recording sink keeping at most `capacity` records (oldest records
    /// are dropped first once full).
    pub fn ring(capacity: usize) -> TraceSink {
        TraceSink {
            enabled: true,
            capacity: capacity.max(1),
            records: Vec::new(),
            head: 0,
            emitted: 0,
            dropped: 0,
        }
    }

    /// True when this sink records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Emits a record; `build` runs only when the sink is enabled.
    #[inline]
    pub fn emit_with(
        &mut self,
        run: &'static str,
        now: SimTime,
        build: impl FnOnce() -> TraceEvent,
    ) {
        if !self.enabled {
            return;
        }
        let record = TraceRecord {
            run,
            t_us: now.as_micros(),
            event: build(),
        };
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else {
            self.records[self.head] = record;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
        self.emitted += 1;
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> + '_ {
        let (newer, older) = self.records.split_at(self.head);
        older.iter().chain(newer)
    }

    /// Total records ever emitted (including since-dropped ones).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Records dropped because the ring wrapped.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The parent commit's sink, verbatim: a `VecDeque` that pops its front
    /// to make room. Kept as the oracle for the ring overwritten in place.
    mod reference {
        use std::collections::VecDeque;

        use scion_types::SimTime;

        use super::super::{TraceEvent, TraceRecord};

        pub struct TraceSink {
            enabled: bool,
            capacity: usize,
            records: VecDeque<TraceRecord>,
            emitted: u64,
            dropped: u64,
        }

        impl TraceSink {
            pub fn ring(capacity: usize) -> TraceSink {
                TraceSink {
                    enabled: true,
                    capacity: capacity.max(1),
                    records: VecDeque::new(),
                    emitted: 0,
                    dropped: 0,
                }
            }

            pub fn emit_with(
                &mut self,
                run: &'static str,
                now: SimTime,
                build: impl FnOnce() -> TraceEvent,
            ) {
                if !self.enabled {
                    return;
                }
                if self.records.len() == self.capacity {
                    self.records.pop_front();
                    self.dropped += 1;
                }
                self.records.push_back(TraceRecord {
                    run,
                    t_us: now.as_micros(),
                    event: build(),
                });
                self.emitted += 1;
            }

            pub fn records(&self) -> impl Iterator<Item = &TraceRecord> + '_ {
                self.records.iter()
            }

            pub fn emitted(&self) -> u64 {
                self.emitted
            }

            pub fn dropped(&self) -> u64 {
                self.dropped
            }

            pub fn len(&self) -> usize {
                self.records.len()
            }

            pub fn is_empty(&self) -> bool {
                self.records.is_empty()
            }
        }
    }

    fn ev(seq: u32) -> TraceEvent {
        TraceEvent::PcbOriginated {
            node: 0,
            egress_if: 1,
            seq,
        }
    }

    #[test]
    fn disabled_sink_never_builds_records() {
        let mut sink = TraceSink::disabled();
        sink.emit_with("", SimTime::ZERO, || panic!("must not be called"));
        assert_eq!(sink.len(), 0);
        assert_eq!(sink.emitted(), 0);
    }

    #[test]
    fn ring_wraps_dropping_oldest() {
        let mut sink = TraceSink::ring(3);
        for seq in 0..5u32 {
            sink.emit_with("r", SimTime::from_micros(seq as u64), || ev(seq));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.emitted(), 5);
        assert_eq!(sink.dropped(), 2);
        let seqs: Vec<u32> = sink
            .records()
            .map(|r| match r.event {
                TraceEvent::PcbOriginated { seq, .. } => seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(sink.records().next().unwrap().t_us, 2);
    }

    proptest! {
        // Capacity 1, non-powers of two and several laps of the ring; the
        // two sinks are compared after every emit, so a wrong wrap shows at
        // the emit that makes it.
        #[test]
        fn ring_matches_the_deque_it_replaced(capacity in 1usize..=9, emits in 0u32..=40) {
            let mut ring = TraceSink::ring(capacity);
            let mut deque = reference::TraceSink::ring(capacity);
            prop_assert!(ring.is_empty() && deque.is_empty());
            for seq in 0..emits {
                let now = SimTime::from_micros(u64::from(seq) * 3);
                ring.emit_with("r", now, || ev(seq));
                deque.emit_with("r", now, || ev(seq));
                let kept: Vec<&TraceRecord> = ring.records().collect();
                let expected: Vec<&TraceRecord> = deque.records().collect();
                prop_assert_eq!(kept, expected, "capacity {} after emit {}", capacity, seq);
                prop_assert_eq!(ring.len(), deque.len());
                prop_assert_eq!(ring.is_empty(), deque.is_empty());
                prop_assert_eq!(ring.emitted(), deque.emitted());
                prop_assert_eq!(ring.dropped(), deque.dropped());
            }
        }
    }

    #[test]
    fn a_ring_is_not_sized_until_it_is_filled() {
        // `peak_live_mb` is gated and a full default ring is 84 MB.
        let mut sink = TraceSink::ring(DEFAULT_TRACE_CAPACITY);
        assert_eq!(sink.records.capacity(), 0);
        sink.emit_with("r", SimTime::ZERO, || ev(0));
        assert!(sink.records.capacity() < 64);
    }

    #[test]
    fn records_serialize_with_event_tag() {
        let mut sink = TraceSink::ring(8);
        sink.emit_with("core", SimTime::from_micros(7), || ev(1));
        let json = serde_json::to_string(sink.records().next().unwrap()).unwrap();
        assert!(json.contains("\"event\":\"PcbOriginated\""), "{json}");
        assert!(json.contains("\"t_us\":7"), "{json}");
        assert!(json.contains("\"run\":\"core\""), "{json}");
    }
}
