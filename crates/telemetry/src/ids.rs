//! Well-known metric ids, so instrument sites, reports, and documentation
//! agree on spelling. See README.md ("Telemetry & profiling") for the
//! catalogue with units.
//!
//! A [`MetricId`] is a dense index into one static name table, so the
//! registry addresses a metric by array index instead of comparing name
//! strings. The table below is declared in ascending (byte-wise) name
//! order: id order *is* name order, which is what keeps every export
//! sorted by `(name, label)`. A unit test holds the table to that.

use std::fmt;

/// A metric's identity: its position in the name table.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct MetricId(u16);

impl MetricId {
    /// The dotted metric name used in every export.
    #[inline]
    pub fn name(self) -> &'static str {
        NAMES[usize::from(self.0)]
    }

    /// Position in the name table (ascending with the name).
    #[inline]
    pub(crate) fn index(self) -> usize {
        usize::from(self.0)
    }

    /// The id at table position `index`.
    pub(crate) fn from_index(index: usize) -> MetricId {
        debug_assert!(index < NAMES.len());
        MetricId(index as u16)
    }
}

impl fmt::Display for MetricId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Debug for MetricId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Declares the id constants and the name table from one list, which
/// must be in ascending name order.
macro_rules! metric_ids {
    ($($(#[$doc:meta])* $konst:ident = $name:literal,)*) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        #[repr(u16)]
        enum Position { $($konst),* }
        $($(#[$doc])* pub const $konst: MetricId = MetricId(Position::$konst as u16);)*
        const NAMES: &[&str] = &[$($name),*];
        #[cfg(test)]
        pub(crate) const ALL: &[MetricId] = &[$($konst),*];
    };
}

metric_ids! {
    /// Counter (per AS): storage-limit evictions.
    STORE_EVICTIONS = "beacon_store.evictions",
    /// Counter (per AS): store inserts that changed state.
    STORE_INSERTS = "beacon_store.inserts",
    /// Gauge (per AS): beacons currently in the beacon store.
    STORE_OCCUPANCY = "beacon_store.occupancy",
    /// Counter (per AS): beacons delivered.
    BEACONS_DELIVERED = "beaconing.delivered",
    /// Counter (per AS): beacons dropped on receive (loop / invalid).
    BEACONS_DROPPED = "beaconing.dropped",
    /// Counter: beacons originated.
    BEACONS_ORIGINATED = "beaconing.originated",
    /// Histogram: age of a beacon at delivery, seconds.
    PCB_AGE_AT_DELIVERY = "beaconing.pcb_age_at_delivery_s",
    /// Histogram: hop count of delivered beacons.
    PCB_HOPS_AT_DELIVERY = "beaconing.pcb_hops_at_delivery",
    /// Counter (per AS): bytes of beacons sent.
    BEACONS_SENT_BYTES = "beaconing.sent_bytes",
    /// Counter (per AS): beacons sent (origination + propagation).
    BEACONS_SENT = "beaconing.sent_messages",
    /// Counter: BGP announcements received, summed over ASes.
    BGP_ANNOUNCES = "bgp.announces_received",
    /// Counter: BGP withdrawals received, summed over ASes.
    BGP_WITHDRAWS = "bgp.withdraws_received",
    /// Counter: sends/deliveries dropped because the link was already down.
    CHAOS_DELIVERIES_DROPPED = "chaos.deliveries_dropped",
    /// Counter: fault events applied to the link-state overlay
    /// (state-changing ones only; duplicate downs don't count).
    CHAOS_FAULT_EVENTS = "chaos.fault_events",
    /// Counter: in-flight messages cancelled because their link failed
    /// mid-flight.
    CHAOS_INFLIGHT_CANCELLED = "chaos.in_flight_cancelled",
    /// Gauge: links currently unusable (down or endpoint-AS down).
    CHAOS_LINKS_DOWN = "chaos.links_down",
    /// Gauge: fraction of probed AS pairs with >= 1 live path, in [0, 1].
    CHAOS_LIVE_PAIR_FRACTION = "chaos.live_pair_fraction",
    /// Counter: path-server segment invalidations triggered by faults.
    CHAOS_PATHS_INVALIDATED = "chaos.paths_invalidated",
    /// Counter: drops — hop-field MAC invalid (path alteration).
    FWD_DROP_BAD_MAC = "dataplane.drop.bad_mac",
    /// Counter: drops — hop-field authorization expired.
    FWD_DROP_EXPIRED = "dataplane.drop.expired",
    /// Counter: drops — the next link on the path is down (SCMP emitted).
    FWD_DROP_LINK_DOWN = "dataplane.drop.link_down",
    /// Counter: drops — the hop field names a nonexistent egress
    /// interface.
    FWD_DROP_NO_INTERFACE = "dataplane.drop.no_interface",
    /// Counter: drops — PCFS pointer ran past the end of the path.
    FWD_DROP_PATH_EXHAUSTED = "dataplane.drop.path_exhausted",
    /// Counter: drops — the packet's source AS is not in the topology.
    FWD_DROP_UNKNOWN_SOURCE = "dataplane.drop.unknown_source",
    /// Counter: drops — hop field owned by a different AS.
    FWD_DROP_WRONG_AS = "dataplane.drop.wrong_as",
    /// Counter: drops — packet arrived on an unauthorized interface.
    FWD_DROP_WRONG_INGRESS = "dataplane.drop.wrong_ingress",
    /// Histogram: AS hop count of delivered packets (deterministic —
    /// virtual quantity, safe for byte-identical dumps).
    FWD_HOPS_AT_DELIVERY = "dataplane.hops_at_delivery",
    /// Counter (per interface): packets sent out of an egress interface.
    FWD_IFACE_PACKETS = "dataplane.iface_packets",
    /// Counter (per interface): wire bytes sent out of an egress
    /// interface.
    FWD_IFACE_BYTES = "dataplane.iface_tx_bytes",
    /// Counter: hop-field MACs that failed verification.
    FWD_MACS_REJECTED = "dataplane.macs_rejected",
    /// Counter: hop-field MACs that verified successfully.
    FWD_MACS_VERIFIED = "dataplane.macs_verified",
    /// Counter: packets delivered to their destination AS.
    FWD_DELIVERED = "dataplane.packets_delivered",
    /// Counter: packets dropped anywhere on the forwarding path (the
    /// `dataplane.drop.*` counters break this down by reason).
    FWD_DROPPED = "dataplane.packets_dropped",
    /// Counter (per AS): packets a border router forwarded onward.
    FWD_FORWARDED = "dataplane.packets_forwarded",
    /// Counter: SCMP error messages emitted by border routers.
    FWD_SCMP_SENT = "dataplane.scmp_sent",
    /// Counter: SCMP revocation signals suppressed by the per-link rate
    /// limiter (dedup within the holdoff window).
    FWD_SCMP_SUPPRESSED = "dataplane.scmp_suppressed",
    /// Gauge: cumulative events popped by the engine.
    ENGINE_EVENTS = "engine.events_processed",
    /// Gauge: messages sent but not yet delivered.
    ENGINE_IN_FLIGHT = "engine.in_flight",
    /// Gauge: events pending in the engine queue (timers + deliveries).
    ENGINE_QUEUE_DEPTH = "engine.queue_depth",
    /// Counter: messages dropped on the wire by the stochastic loss model.
    LOSS_MESSAGES_DROPPED = "loss.messages_dropped",
    /// Counter: half-open recovery probes dispatched by the breaker.
    PS_BREAKER_PROBES = "pathserver.breaker_probes",
    /// Counter: upstream lookups short-circuited while the breaker was
    /// open.
    PS_BREAKER_SHORT_CIRCUITS = "pathserver.breaker_short_circuits",
    /// Counter: circuit-breaker trips on consecutive upstream failures.
    PS_BREAKER_TRIPS = "pathserver.breaker_trips",
    /// Counter: times brownout mode was entered.
    PS_BROWNOUT_ENTRIES = "pathserver.brownout_entries",
    /// Counter: times brownout mode was exited.
    PS_BROWNOUT_EXITS = "pathserver.brownout_exits",
    /// Counter: cache-miss lookups answered stale under brownout or an
    /// open circuit breaker.
    PS_BROWNOUT_STALE_SERVES = "pathserver.brownout_stale_serves",
    /// Counter: lookups answered from the cache.
    PS_CACHE_HITS = "pathserver.cache_hits",
    /// Counter: lookups that missed the cache.
    PS_CACHE_MISSES = "pathserver.cache_misses",
    /// Counter: lookups answered from the cache after expiry (stale-served
    /// `Degraded` answers when a fresh lookup exhausted its retries).
    PS_DEGRADED_SERVES = "pathserver.degraded_serves",
    /// Counter: lookups served by a path server.
    PS_LOOKUPS = "pathserver.lookups",
    /// Counter: lookups short-circuited by the negative cache.
    PS_NEGATIVE_HITS = "pathserver.negative_cache_hits",
    /// Counter: requests admitted to the path server's bounded queue.
    PS_OVERLOAD_ADMITTED = "pathserver.overload_admitted",
    /// Gauge: current depth of the bounded admission queue.
    PS_QUEUE_DEPTH = "pathserver.queue_depth",
    /// Counter: segment registrations at path servers.
    PS_REGISTRATIONS = "pathserver.registrations",
    /// Counter: path-server operations rejected with a typed
    /// `ServerError` instead of panicking (wrong role / wrong segment
    /// type).
    PS_REJECTED_OPS = "pathserver.rejected_ops",
    /// Counter: dataplane-driven revocation reactions executed at a path
    /// server (one per admitted SCMP signal, storms deduplicated).
    PS_REVOCATIONS = "pathserver.revocations",
    /// Counter: expired segments garbage-collected from authoritative
    /// stores on registration.
    PS_SEGMENTS_PURGED = "pathserver.segments_purged",
    /// Counter: revoked segments re-registered after their revocation TTL
    /// lapsed (expiry-driven path restoration).
    PS_SEGMENTS_RESTORED = "pathserver.segments_restored",
    /// Counter: segments pulled from a path server by revocations.
    PS_SEGMENTS_REVOKED = "pathserver.segments_revoked",
    /// Counter: queued requests evicted by higher-priority arrivals.
    PS_SHED_EVICTED = "pathserver.shed_evicted",
    /// Counter: requests shed because the bounded queue was full of
    /// equal-or-higher-priority work.
    PS_SHED_QUEUE_FULL = "pathserver.shed_queue_full",
    /// Counter: requests shed because the client's token bucket was
    /// empty.
    PS_SHED_RATE_LIMITED = "pathserver.shed_rate_limited",
    /// Histogram: time a request spent in the admission queue before
    /// service, in virtual microseconds.
    PS_TIME_IN_QUEUE_US = "pathserver.time_in_queue_us",
    /// Counter: flow ticks skipped because the daemon had no usable path.
    RECOVERY_NO_PATH = "recovery.no_path_drops",
    /// Counter: flows switched onto an alternate cached path on SCMP.
    RECOVERY_FAILOVERS = "recovery.path_failovers",
    /// Counter: flow paths restored after failure marks expired.
    RECOVERY_RESTORED = "recovery.paths_restored",
    /// Counter: path-server re-queries launched when every cached path of
    /// a flow was dead.
    RECOVERY_REQUERIES = "recovery.requeries",
    /// Counter: SCMP notifications processed by endhost daemons.
    RECOVERY_SCMP_RECEIVED = "recovery.scmp_received",
    /// Counter: acks received that settled a pending message.
    RELIABLE_ACKS = "reliable.acks_received",
    /// Counter: busy signals that re-armed a reliable sender's deadline
    /// on the penalized backoff schedule.
    RELIABLE_BUSY_BACKOFFS = "reliable.busy_backoffs",
    /// Counter: duplicate deliveries suppressed at receivers.
    RELIABLE_DUPLICATES = "reliable.duplicates_suppressed",
    /// Counter: messages abandoned after max retransmit attempts.
    RELIABLE_GIVE_UPS = "reliable.give_ups",
    /// Counter: retransmissions issued by the reliable channel.
    RELIABLE_RETRANSMITS = "reliable.retransmits",
    /// Counter: retransmit deadlines that fired (message still pending).
    RELIABLE_TIMEOUTS = "reliable.timeouts",
    /// Gauge (per interface): cumulative bytes sent, sampled over time.
    IFACE_BYTES = "traffic.iface_bytes",
    /// Gauge (per AS): cumulative bytes sent by the AS.
    NODE_BYTES = "traffic.node_bytes",
    /// Gauge: cumulative bytes sent network-wide.
    TOTAL_BYTES = "traffic.total_bytes",
    /// Gauge: cumulative messages sent network-wide.
    TOTAL_MESSAGES = "traffic.total_messages",
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_table_is_strictly_ascending() {
        for pair in NAMES.windows(2) {
            assert!(
                pair[0] < pair[1],
                "{} must sort before {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn every_constant_round_trips_through_the_table() {
        assert_eq!(ALL.len(), NAMES.len());
        for (position, &id) in ALL.iter().enumerate() {
            assert_eq!(id.index(), position);
            assert_eq!(MetricId::from_index(position), id);
            // Ascending names make the table searchable by name.
            assert_eq!(NAMES.binary_search(&id.name()), Ok(position));
        }
        assert_eq!(FWD_DELIVERED.name(), "dataplane.packets_delivered");
        assert_eq!(format!("{BEACONS_SENT}"), "beaconing.sent_messages");
        assert_eq!(format!("{BEACONS_SENT:?}"), "beaconing.sent_messages");
    }
}
