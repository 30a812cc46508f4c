//! The border router: stateless PCFS forwarding.
//!
//! §4.1, Mechanism 4: "SCION border routers are simple by design.
//! Packet-Carried Forwarding State (PCFS) removes the need for large
//! inter-domain forwarding tables on routers. Additionally, routers only
//! perform packet forwarding and no control-plane functionalities."
//!
//! [`forward`] is the entire per-packet pipeline of one AS: verify the
//! current hop field (MAC, expiry, ingress interface), decide, advance.
//! [`forward_instrumented`] is the same pipeline with full observability:
//! per-hop trace events, MAC-verify outcomes, per-interface counters, and
//! sampled wall-clock latency recorded into the telemetry handle — all
//! behind single-branch checks so a disabled handle stays free.
//!
//! Measured (benchmark kernels, 2-vCPU host, EXPERIMENTS.md "Forwarding hop
//! cost" and "Recording hop cost"): a hop through a disabled handle is
//! ~18 ns (`dataplane.forward_ns`), ~13 of them the MAC's six dependent
//! mixing rounds (`proto.hopfield_verify_ns`); a recording hop is ~48 ns
//! (`dataplane.forward_recording_ns`), and the ~30 ns between them are what
//! it records — two 80-byte trace records written in place, four or five
//! counter slots, two counted spans whose clock is read on one hop in 64 —
//! not the check.

use scion_proto::pcb::forwarding_key;
use scion_telemetry::trace::TraceEvent;
use scion_telemetry::{ids, phase, Label, MetricId, Telemetry};
use scion_types::{IfId, IsdAsn, SimTime};

use crate::packet::Packet;

/// What the router decided.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ForwardAction {
    /// Send out of the given egress interface toward the next AS.
    Egress(IfId),
    /// The packet has arrived: hand it to the local dispatcher.
    Deliver,
}

/// Why a packet was dropped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ForwardError {
    /// The current hop field does not belong to this AS — the path
    /// pointer is corrupt or the packet was mis-routed.
    WrongAs { expected: IsdAsn, got: IsdAsn },
    /// MAC verification failed: the hop field was altered (§2.3:
    /// "cryptographically protected, preventing path alteration").
    BadMac,
    /// The hop field's authorization has expired.
    Expired,
    /// The packet arrived on an interface other than the authorized one.
    WrongIngress { expected: IfId, got: IfId },
    /// The path pointer ran past the end.
    PathExhausted,
}

impl std::fmt::Display for ForwardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForwardError::WrongAs { expected, got } => {
                write!(f, "hop field for {got} processed at {expected}")
            }
            ForwardError::BadMac => write!(f, "hop field MAC invalid"),
            ForwardError::Expired => write!(f, "hop field expired"),
            ForwardError::WrongIngress { expected, got } => {
                write!(f, "arrived on {got}, authorized ingress is {expected}")
            }
            ForwardError::PathExhausted => write!(f, "path pointer past the end"),
        }
    }
}

impl std::error::Error for ForwardError {}

impl ForwardError {
    /// Stable drop-reason code, shared between [`TraceEvent::PacketDropped`]
    /// records and the `dataplane.drop.*` counter ids.
    pub fn reason(&self) -> &'static str {
        match self {
            ForwardError::WrongAs { .. } => "wrong_as",
            ForwardError::BadMac => "bad_mac",
            ForwardError::Expired => "expired",
            ForwardError::WrongIngress { .. } => "wrong_ingress",
            ForwardError::PathExhausted => "path_exhausted",
        }
    }

    /// The per-reason drop counter this error increments.
    pub fn metric_id(&self) -> MetricId {
        match self {
            ForwardError::WrongAs { .. } => ids::FWD_DROP_WRONG_AS,
            ForwardError::BadMac => ids::FWD_DROP_BAD_MAC,
            ForwardError::Expired => ids::FWD_DROP_EXPIRED,
            ForwardError::WrongIngress { .. } => ids::FWD_DROP_WRONG_INGRESS,
            ForwardError::PathExhausted => ids::FWD_DROP_PATH_EXHAUSTED,
        }
    }
}

/// Processes `packet` at the border router of `local_as`, having arrived
/// via `arrival_if` ([`IfId::NONE`] when coming from inside the AS, i.e.
/// from the source host). On success the path pointer is advanced past
/// this AS's hop.
pub fn forward(
    packet: &mut Packet,
    local_as: IsdAsn,
    arrival_if: IfId,
    now: SimTime,
) -> Result<ForwardAction, ForwardError> {
    forward_instrumented(
        packet,
        local_as,
        0,
        arrival_if,
        now,
        None,
        &mut Telemetry::disabled(),
    )
}

/// The full border-router pipeline of [`forward`] with observability:
///
/// * a [`TraceEvent::MacVerified`] record and a `macs_verified`/`rejected`
///   counter for every MAC check;
/// * on egress: [`TraceEvent::PacketForwarded`] plus per-AS and
///   per-interface packet/byte counters;
/// * on delivery: [`TraceEvent::PacketDelivered`] plus the
///   `hops_at_delivery` histogram;
/// * on every drop: [`TraceEvent::PacketDropped`] with the stable reason
///   code and the matching `dataplane.drop.*` counter;
/// * hot spans ([`scion_telemetry::Profiler::hot_span`]: every call
///   counted, one in [`scion_telemetry::HOT_SPAN_SAMPLE`] timed) into the
///   [`phase::FWD_FORWARD`] and [`phase::FWD_VERIFY`] profiler phases.
///
/// `node` is the dense topology index of `local_as`, used to label traces
/// and counters. `precomputed_mac` short-circuits the MAC check with a
/// result computed elsewhere (the batched verifier) — it skips that ~13 ns
/// and nothing else; the trace record and counters are still emitted
/// identically, which keeps the scalar and batched arms byte-identical on
/// the deterministic streams.
pub fn forward_instrumented(
    packet: &mut Packet,
    local_as: IsdAsn,
    node: u32,
    arrival_if: IfId,
    now: SimTime,
    precomputed_mac: Option<bool>,
    tel: &mut Telemetry,
) -> Result<ForwardAction, ForwardError> {
    let hop_span = tel.profile.hot_span(phase::FWD_FORWARD);

    let result = (|| {
        let &(owner, hf) = packet
            .path
            .current_hop()
            .ok_or(ForwardError::PathExhausted)?;
        if owner != local_as {
            return Err(ForwardError::WrongAs {
                expected: local_as,
                got: owner,
            });
        }
        let mac_ok = match precomputed_mac {
            Some(ok) => ok,
            None => {
                let span = tel.profile.hot_span(phase::FWD_VERIFY);
                let ok = hf.verify(forwarding_key(local_as));
                tel.profile.finish(span);
                ok
            }
        };
        tel.trace_event(now, || TraceEvent::MacVerified { node, ok: mac_ok });
        if mac_ok {
            tel.inc(ids::FWD_MACS_VERIFIED, Label::As(node), 1);
        } else {
            tel.inc(ids::FWD_MACS_REJECTED, Label::As(node), 1);
            return Err(ForwardError::BadMac);
        }
        if now >= hf.expiry {
            return Err(ForwardError::Expired);
        }
        if hf.ingress != arrival_if {
            return Err(ForwardError::WrongIngress {
                expected: hf.ingress,
                got: arrival_if,
            });
        }
        if packet.path.at_destination() {
            packet.path.current += 1; // consume the final hop
            return Ok(ForwardAction::Deliver);
        }
        packet.path.current += 1;
        Ok(ForwardAction::Egress(hf.egress))
    })();

    match &result {
        Ok(ForwardAction::Egress(egress)) => {
            let egress = *egress;
            let bytes = packet.wire_size();
            tel.trace_event(now, || TraceEvent::PacketForwarded {
                node,
                ingress_if: arrival_if.0,
                egress_if: egress.0,
            });
            tel.inc(ids::FWD_FORWARDED, Label::As(node), 1);
            tel.inc(ids::FWD_IFACE_PACKETS, Label::Iface(node, egress.0), 1);
            tel.inc(ids::FWD_IFACE_BYTES, Label::Iface(node, egress.0), bytes);
        }
        Ok(ForwardAction::Deliver) => {
            let hops = packet.path.hops.len() as u32;
            tel.trace_event(now, || TraceEvent::PacketDelivered { node, hops });
            tel.inc(ids::FWD_DELIVERED, Label::As(node), 1);
            tel.observe(ids::FWD_HOPS_AT_DELIVERY, Label::Global, f64::from(hops));
        }
        Err(e) => {
            let reason = e.reason();
            tel.trace_event(now, || TraceEvent::PacketDropped { node, reason });
            tel.inc(ids::FWD_DROPPED, Label::As(node), 1);
            tel.inc(e.metric_id(), Label::Global, 1);
        }
    }

    tel.profile.finish(hop_span);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use scion_proto::combine::EndToEndPath;
    use scion_types::{Asn, Duration, Isd};

    fn ia(asn: u64) -> IsdAsn {
        IsdAsn::new(Isd(1), Asn::from_u64(asn))
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(secs)
    }

    fn packet() -> Packet {
        Packet::along(
            &EndToEndPath {
                hops: vec![
                    (ia(1), IfId::NONE, IfId(1)),
                    (ia(2), IfId(3), IfId(4)),
                    (ia(3), IfId(5), IfId::NONE),
                ],
            },
            t(100),
            64,
        )
    }

    #[test]
    fn full_forwarding_pipeline() {
        let mut p = packet();
        // Source AS: packet comes from inside (no arrival interface).
        assert_eq!(
            forward(&mut p, ia(1), IfId::NONE, t(1)),
            Ok(ForwardAction::Egress(IfId(1)))
        );
        // Transit AS.
        assert_eq!(
            forward(&mut p, ia(2), IfId(3), t(1)),
            Ok(ForwardAction::Egress(IfId(4)))
        );
        // Destination AS.
        assert_eq!(
            forward(&mut p, ia(3), IfId(5), t(1)),
            Ok(ForwardAction::Deliver)
        );
        // Nothing left.
        assert_eq!(
            forward(&mut p, ia(3), IfId(5), t(1)),
            Err(ForwardError::PathExhausted)
        );
    }

    #[test]
    fn altered_hop_field_is_dropped() {
        let mut p = packet();
        // Attacker rewrites the egress interface to divert the packet.
        p.path.hops[0].1.egress = IfId(9);
        assert_eq!(
            forward(&mut p, ia(1), IfId::NONE, t(1)),
            Err(ForwardError::BadMac)
        );
    }

    #[test]
    fn expired_authorization_is_dropped() {
        let mut p = packet();
        assert_eq!(
            forward(&mut p, ia(1), IfId::NONE, t(100)),
            Err(ForwardError::Expired)
        );
    }

    #[test]
    fn wrong_ingress_is_dropped() {
        let mut p = packet();
        forward(&mut p, ia(1), IfId::NONE, t(1)).unwrap();
        // Packet shows up at AS 2 on interface 7 instead of 3.
        assert_eq!(
            forward(&mut p, ia(2), IfId(7), t(1)),
            Err(ForwardError::WrongIngress {
                expected: IfId(3),
                got: IfId(7)
            })
        );
    }

    #[test]
    fn misrouted_packet_is_detected() {
        let mut p = packet();
        assert!(matches!(
            forward(&mut p, ia(2), IfId(3), t(1)),
            Err(ForwardError::WrongAs { .. })
        ));
    }

    #[test]
    fn every_error_has_a_stable_reason_and_counter() {
        let errors = [
            ForwardError::WrongAs {
                expected: ia(1),
                got: ia(2),
            },
            ForwardError::BadMac,
            ForwardError::Expired,
            ForwardError::WrongIngress {
                expected: IfId(1),
                got: IfId(2),
            },
            ForwardError::PathExhausted,
        ];
        let reasons: Vec<&str> = errors.iter().map(|e| e.reason()).collect();
        assert_eq!(
            reasons,
            vec![
                "wrong_as",
                "bad_mac",
                "expired",
                "wrong_ingress",
                "path_exhausted"
            ]
        );
        for e in &errors {
            assert_eq!(
                e.metric_id().name(),
                format!("dataplane.drop.{}", e.reason())
            );
        }
    }

    #[test]
    fn instrumented_forward_records_traces_and_counters() {
        use scion_telemetry::TelemetryConfig;

        let mut tel = Telemetry::new(TelemetryConfig::default());
        let mut p = packet();
        forward_instrumented(&mut p, ia(1), 0, IfId::NONE, t(1), None, &mut tel).unwrap();
        forward_instrumented(&mut p, ia(2), 1, IfId(3), t(1), None, &mut tel).unwrap();
        assert_eq!(
            forward_instrumented(&mut p, ia(3), 2, IfId(5), t(1), None, &mut tel),
            Ok(ForwardAction::Deliver)
        );

        let count = |id| tel.metrics.counters().filter(|(i, _, _)| *i == id).count();
        assert_eq!(count(ids::FWD_FORWARDED), 2, "two egress hops");
        assert_eq!(count(ids::FWD_DELIVERED), 1);
        assert_eq!(count(ids::FWD_IFACE_PACKETS), 2);
        let events: Vec<&TraceEvent> = tel.traces.records().map(|r| &r.event).collect();
        assert_eq!(events.len(), 6, "MacVerified + outcome per hop: {events:?}");
        assert!(matches!(
            events[0],
            TraceEvent::MacVerified { node: 0, ok: true }
        ));
        assert!(matches!(
            events[1],
            TraceEvent::PacketForwarded { node: 0, .. }
        ));
        assert!(matches!(
            events[5],
            TraceEvent::PacketDelivered { node: 2, hops: 3 }
        ));
        // Every hop is a call of both phases; the first of each is timed.
        for name in [phase::FWD_FORWARD, phase::FWD_VERIFY] {
            let s = tel.profile.stats(name).unwrap();
            assert_eq!((s.calls, s.timed), (3, 1), "{name}");
        }
    }

    #[test]
    fn instrumented_drop_emits_reason_code() {
        use scion_telemetry::TelemetryConfig;

        let mut tel = Telemetry::new(TelemetryConfig::default());
        let mut p = packet();
        p.path.hops[0].1.egress = IfId(9); // tamper
        assert_eq!(
            forward_instrumented(&mut p, ia(1), 0, IfId::NONE, t(1), None, &mut tel),
            Err(ForwardError::BadMac)
        );
        let dropped: Vec<&TraceEvent> = tel
            .traces
            .records()
            .map(|r| &r.event)
            .filter(|e| matches!(e, TraceEvent::PacketDropped { .. }))
            .collect();
        assert!(
            matches!(
                dropped[..],
                [TraceEvent::PacketDropped {
                    node: 0,
                    reason: "bad_mac"
                }]
            ),
            "{dropped:?}"
        );
        let rejected: u64 = tel
            .metrics
            .counters()
            .filter(|(i, _, _)| *i == ids::FWD_MACS_REJECTED)
            .map(|(_, _, v)| v)
            .sum();
        assert_eq!(rejected, 1);
    }

    #[test]
    fn precomputed_mac_result_matches_inline_verification() {
        use scion_telemetry::TelemetryConfig;

        // Same packet forwarded with inline and precomputed MAC results
        // must produce identical actions, traces, and counters.
        let run = |precomputed: Option<bool>| {
            let mut tel = Telemetry::new(TelemetryConfig::default());
            let mut p = packet();
            let r = forward_instrumented(&mut p, ia(1), 0, IfId::NONE, t(1), precomputed, &mut tel);
            let traces: Vec<TraceRecordSnapshot> = tel
                .traces
                .records()
                .map(|r| (r.t_us, r.event.clone()))
                .collect();
            let counters: Vec<_> = tel.metrics.counters().collect();
            (r, traces, format!("{counters:?}"))
        };
        type TraceRecordSnapshot = (u64, TraceEvent);
        assert_eq!(run(None), run(Some(true)));
    }
}
