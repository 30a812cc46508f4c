//! Layer kernels: one layer's operation, on inputs harvested from a
//! workload's own state, timed from outside through public functions.
//!
//! Every kernel is timed in batches of at least [`BATCH`] of busy time, and
//! the smallest of [`BATCHES`] batches is reported — the same estimator as
//! the reps, for the same reason. None of these numbers is gated; each says
//! which end-to-end metric it should move in `README.md`.

use std::sync::Arc;
use std::time::{Duration as Wall, Instant};

use crate::adapter::{
    bootstrap_trust, combine_paths, egress_refs, forward_instrumented, forwarding_key,
    generate_internet, ids, phase, prune_to_top_degree, segment_uses_link, verify_signature,
    AsIndex, BeaconServer, BeaconStore, BeaconingOutcome, Duration, EgressRef, Engine,
    GeneratorConfig, IfId, IsdAsn, Label, LinkHistory, LinkId, LinkIndex, PathSegment, Pcb,
    Profiler, ScionDaemon, SegmentSet, SignDomain, SimTime, StoredBeacon, Telemetry,
    TelemetryConfig, TraceEvent, WorkerPool, World,
};
use crate::alloc;
use crate::span::Spans;
use crate::workloads::beacon::{self, Variant};
use crate::workloads::{scale, Beacon, Fwd, Lookup, Workload, TOPOLOGY_SEED};

/// Minimum busy time of one timed batch.
pub const BATCH: Wall = Wall::from_millis(10);
/// Batches per kernel; the fastest is reported.
pub const BATCHES: usize = 7;

/// A named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// `<crate>.<what>`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// `ns`, `us`, `ms`, `count`, `ratio`, or an end-to-end metric's unit.
    pub unit: &'static str,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Wall) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed())
}

/// Nanoseconds per operation. `once` performs some operations and returns
/// how many and how long they took; set-up it does around them is not
/// counted, which lets a kernel rebuild consumed inputs between rounds.
fn ns_per_op(mut once: impl FnMut() -> (u64, Wall)) -> f64 {
    (0..BATCHES)
        .map(|_| {
            let (mut ops, mut busy) = (0u64, Wall::ZERO);
            while busy < BATCH {
                let (n, d) = once();
                ops += n;
                busy += d;
            }
            busy.as_nanos() as f64 / ops as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Allocations per operation over one round of `once`.
fn allocs_per_op(once: impl FnOnce() -> u64) -> f64 {
    let (ops, snap) = alloc::counted(once);
    snap.count as f64 / ops as f64
}

struct Out(Vec<Metric>);

impl Out {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }
    fn ns(&mut self, name: &'static str, ns: f64) {
        self.push(name, ns, "ns");
    }
    fn us(&mut self, name: &'static str, ns: f64) {
        self.push(name, ns / 1e3, "us");
    }
    fn ms(&mut self, name: &'static str, ns: f64) {
        self.push(name, ns / 1e6, "ms");
    }
}

/// Runs every layer kernel on inputs built from `seed`.
pub fn run_all(seed: u64) -> Vec<Metric> {
    let mut out = Out(Vec::new());
    beaconing_kernels(seed, &mut out);
    forwarding_kernels(seed, &mut out);
    lookup_kernels(seed, &mut out);
    setup_kernels(&mut out);
    out.0
}

/// Every beacon every server stores at the end of a run, with its holder.
fn harvest_stored(out: &BeaconingOutcome, now: SimTime) -> Vec<(AsIndex, StoredBeacon)> {
    let mut stored = Vec::new();
    for server in out.servers.iter().flatten() {
        let mut origins = server.store().origins();
        origins.sort();
        for origin in origins {
            for b in server.store().beacons_of(origin, now) {
                stored.push((server.as_index(), b.clone()));
            }
        }
    }
    stored
}

fn links_of(pcb: &Pcb) -> Vec<LinkId> {
    pcb.interior_links()
        .into_iter()
        .map(|(a, b)| LinkId::new(a, b))
        .collect()
}

fn beaconing_kernels(seed: u64, out: &mut Out) {
    let mut wl = Beacon::build(Variant::Verify, seed);
    wl.run(&mut Spans::disabled());
    let mut outcome = wl.last.take().expect("run keeps its outcome");
    let (topo, trust, cfg) = (&wl.world.core, &wl.trust, wl.cfg);
    let now = SimTime::ZERO + wl.window();
    let stored = harvest_stored(&outcome, now);
    let ia_of = |idx: AsIndex| topo.node(idx).ia;
    let first_egress = |idx: AsIndex| topo.incident(idx).next().expect("core AS has a link").2;

    // crypto: one signature and one verification over a PCB-sized payload.
    let (holder, sample) = &stored[0];
    let payload = vec![0xA5u8; sample.pcb.wire_size() as usize];
    let key = trust.key_of(ia_of(*holder)).expect("holder has a key");
    let signature = key.sign(SignDomain::PcbAsEntry, &payload);
    out.ns(
        "crypto.sign_ns",
        ns_per_op(|| {
            let ((), d) = timed(|| {
                for _ in 0..256 {
                    std::hint::black_box(key.sign(SignDomain::PcbAsEntry, &payload));
                }
            });
            (256, d)
        }),
    );
    out.ns(
        "crypto.verify_ns",
        ns_per_op(|| {
            let ((), d) = timed(|| {
                for _ in 0..256 {
                    let ok = verify_signature(
                        key.public(),
                        SignDomain::PcbAsEntry,
                        &payload,
                        &signature,
                    );
                    assert!(std::hint::black_box(ok));
                }
            });
            (256, d)
        }),
    );

    // proto: extend every stored beacon at its holder; validate a 4-hop PCB.
    out.ns(
        "proto.pcb_extend_ns",
        ns_per_op(|| {
            let ((), d) = timed(|| {
                for (holder, b) in &stored {
                    let pcb = b.pcb.extend(
                        ia_of(*holder),
                        b.ingress_if,
                        first_egress(*holder),
                        Vec::new(),
                        trust,
                    );
                    std::hint::black_box(pcb);
                }
            });
            (stored.len() as u64, d)
        }),
    );
    let four_hop = four_hop_pcb(&wl, &stored);
    let validate_round = || {
        for _ in 0..64 {
            four_hop
                .validate(trust, now)
                .expect("harvested PCB validates");
        }
        64
    };
    out.ns("proto.pcb_validate_ns", ns_per_op(|| timed(validate_round)));
    out.push(
        "proto.pcb_validate_allocs",
        allocs_per_op(validate_round),
        "count",
    );

    // beaconing: receive path, store admission, one baseline interval.
    out.ns(
        "beaconing.handle_beacon_ns",
        ns_per_op(|| {
            let mut servers: Vec<Option<BeaconServer>> = topo
                .as_indices()
                .map(|idx| Some(BeaconServer::new(topo, idx, cfg)))
                .collect();
            let inputs: Vec<(AsIndex, Pcb, LinkIndex)> = stored
                .iter()
                .map(|(h, b)| (*h, b.pcb.clone(), b.ingress_link))
                .collect();
            let mut tel = Telemetry::disabled();
            let ((), d) = timed(|| {
                for (holder, pcb, via) in inputs {
                    let server = servers[holder.as_usize()].as_mut().expect("just built");
                    server
                        .handle_beacon_telemetry(pcb, via, topo, trust, now, &mut tel)
                        .expect("a stored beacon is accepted again");
                }
            });
            (stored.len() as u64, d)
        }),
    );
    out.ns(
        "beaconing.store_insert_ns",
        ns_per_op(|| {
            let mut store = BeaconStore::new(cfg.storage_limit);
            let inputs: Vec<StoredBeacon> = stored.iter().map(|(_, b)| b.clone()).collect();
            let ((), d) = timed(|| {
                for b in inputs {
                    std::hint::black_box(store.insert(b, now));
                }
            });
            (stored.len() as u64, d)
        }),
    );
    let egress: Vec<_> = topo
        .as_indices()
        .map(|idx| {
            let links: Vec<LinkIndex> = topo.incident(idx).map(|(li, ..)| li).collect();
            egress_refs(topo, idx, &links)
        })
        .collect();
    out.us(
        "beaconing.select_baseline_us",
        ns_per_op(|| interval_round(&mut outcome, &wl, &egress, now)),
    );

    // The diversity twin needs saturated diversity servers; an interval
    // changes their sent lists, so every round beacons afresh (untimed).
    let mut div = Beacon::build(Variant::Diversity, seed);
    let div_now = SimTime::ZERO + div.window();
    out.us(
        "beaconing.select_diversity_us",
        ns_per_op(|| {
            div.run(&mut Spans::disabled());
            let mut outcome = div.last.take().expect("run keeps its outcome");
            interval_round(&mut outcome, &div, &egress, div_now)
        }),
    );
    let max_geomean = 4.0;
    let mut history = LinkHistory::new();
    let scored: Vec<((IsdAsn, IsdAsn), Vec<LinkId>)> = stored
        .iter()
        .map(|(holder, b)| ((b.pcb.origin, ia_of(*holder)), links_of(&b.pcb)))
        .collect();
    for (pair, links) in &scored {
        history.record_dissemination(*pair, links, now + cfg.pcb_lifetime);
    }
    out.ns(
        "beaconing.diversity_score_ns",
        ns_per_op(|| {
            let ((), d) = timed(|| {
                for (pair, links) in &scored {
                    std::hint::black_box(history.diversity_score(*pair, links, max_geomean));
                }
            });
            (scored.len() as u64, d)
        }),
    );

    // simulator: push and pop real PCBs through the event queue; one
    // round trip through the worker pool.
    let msgs: Vec<(AsIndex, LinkIndex, Arc<Pcb>)> = stored
        .iter()
        .map(|(h, b)| (*h, b.ingress_link, Arc::new(b.pcb.clone())))
        .collect();
    let engine_round = || {
        let mut engine: Engine<Arc<Pcb>> = Engine::new();
        for (i, (to, via, pcb)) in msgs.iter().enumerate() {
            let latency = Duration::from_micros(1_000 + (i as u64 * 7_919) % 5_000);
            engine.send(latency, *to, *via, Arc::clone(pcb));
        }
        while let Some(event) = engine.pop() {
            std::hint::black_box(event);
        }
        msgs.len() as u64
    };
    out.ns(
        "simulator.engine_event_ns",
        ns_per_op(|| timed(engine_round)),
    );
    out.push(
        "simulator.engine_event_allocs",
        allocs_per_op(engine_round),
        "count",
    );
    let pool = WorkerPool::new(2);
    out.us(
        "simulator.pool_batch_us",
        ns_per_op(|| {
            let (_, d) = timed(|| {
                pool.run_ordered((0..64u64).collect(), |i, x| x.wrapping_mul(i as u64 + 1))
            });
            (1, d)
        }),
    );

    // The parallel driver's own phase profile, read by name. A phase the
    // program no longer records reads as 0.
    let mut tel = Telemetry::disabled();
    tel.profile = Profiler::enabled();
    let (_, wall) = timed(|| wl.beaconing(2, &mut tel));
    let share = |p: &str| {
        tel.profile
            .stats(p)
            .map_or(0.0, |s| s.total_ns as f64 / wall.as_nanos() as f64)
    };
    let (pop, shard, merge) = (
        share(phase::PAR_POP),
        share(phase::PAR_SHARD),
        share(phase::PAR_MERGE),
    );
    out.push("beaconing.pop_share", pop, "ratio");
    out.push("beaconing.shard_share", shard, "ratio");
    out.push("beaconing.merge_share", merge, "ratio");
    out.push("beaconing.phase_coverage", pop + shard + merge, "ratio");
}

/// One `run_interval` per server of `outcome`, each timed alone.
fn interval_round(
    outcome: &mut BeaconingOutcome,
    wl: &Beacon,
    egress: &[Vec<EgressRef>],
    now: SimTime,
) -> (u64, Wall) {
    let mut busy = Wall::ZERO;
    let mut calls = 0;
    for server in outcome.servers.iter_mut().flatten() {
        let links = &egress[server.as_index().as_usize()];
        let (_, d) = timed(|| server.run_interval(&wl.world.core, &wl.trust, now, links, true));
        busy += d;
        calls += 1;
    }
    (calls, busy)
}

/// A stored beacon extended along real links until it has four AS entries.
fn four_hop_pcb(wl: &Beacon, stored: &[(AsIndex, StoredBeacon)]) -> Pcb {
    let topo = &wl.world.core;
    let (at, longest) = stored
        .iter()
        .filter(|(_, b)| b.pcb.hop_count() < 4)
        .max_by_key(|(_, b)| b.pcb.hop_count())
        .expect("stores hold short beacons");
    let mut at = *at;
    let mut pcb = longest.pcb.clone();
    let mut ingress = longest.ingress_if;
    while pcb.hop_count() < 4 {
        let me = topo.node(at).ia;
        let (_, next, local_if, remote_if) = topo
            .incident(at)
            .find(|&(_, n, ..)| !pcb.contains_as(topo.node(n).ia) && topo.node(n).ia != me)
            .expect("a 12-core topology has a fresh neighbour");
        pcb = pcb.extend(me, ingress, local_if, Vec::new(), &wl.trust);
        (at, ingress) = (next, remote_if);
    }
    pcb
}

fn forwarding_kernels(seed: u64, out: &mut Out) {
    let mut wl = Fwd::build(false, seed);
    let now = wl.now;
    let n = wl.packets.len() as u64;

    out.ns(
        "proto.hopfield_verify_ns",
        ns_per_op(|| {
            let (hops, d) = timed(|| {
                let mut hops = 0u64;
                for p in &wl.packets {
                    for (ia, hf) in &p.path.hops {
                        std::hint::black_box(hf.verify(forwarding_key(*ia)));
                        hops += 1;
                    }
                }
                hops
            });
            (hops, d)
        }),
    );

    // One source-hop operation per packet, through either handle.
    let sources: Vec<(IsdAsn, u32)> = wl
        .packets
        .iter()
        .map(|p| {
            let idx = wl
                .world
                .core
                .by_address(p.source)
                .expect("source AS exists");
            (p.source, idx.0)
        })
        .collect();
    let mut source_hops = |tel: &mut Telemetry| {
        for p in &mut wl.packets {
            p.path.current = 0;
        }
        let ((), d) = timed(|| {
            for (p, &(ia, node)) in wl.packets.iter_mut().zip(&sources) {
                let r = forward_instrumented(p, ia, node, IfId::NONE, now, None, tel);
                std::hint::black_box(r.is_ok());
            }
        });
        (n, d)
    };
    let mut disabled = Telemetry::disabled();
    out.ns(
        "dataplane.forward_ns",
        ns_per_op(|| source_hops(&mut disabled)),
    );
    out.ns(
        "dataplane.forward_recording_ns",
        ns_per_op(|| source_hops(&mut Telemetry::new(TelemetryConfig::default()))),
    );

    let plain = wl.pass(&mut Telemetry::disabled(), &mut Spans::disabled());
    out.push(
        "dataplane.hops_per_pkt",
        plain.hop_ops as f64 / n as f64,
        "count",
    );
    out.push(
        "dataplane.drop_share",
        plain.dropped() as f64 / n as f64,
        "ratio",
    );
    let mut recording = Telemetry::new(TelemetryConfig::default());
    wl.pass(&mut recording, &mut Spans::disabled());
    out.push(
        "telemetry.trace_dropped",
        recording.traces.dropped() as f64,
        "count",
    );

    // telemetry: the three instrument calls the forwarding path makes.
    const CALLS: u64 = 100_000;
    let nodes = wl.world.core.num_ases() as u32;
    let inc = |tel: &mut Telemetry| {
        let ((), d) = timed(|| {
            for i in 0..CALLS as u32 {
                // Re-read the handle each call, as an instrument site does.
                std::hint::black_box(&mut *tel).inc(ids::FWD_FORWARDED, Label::As(i % nodes), 1);
            }
        });
        (CALLS, d)
    };
    let mut recording = Telemetry::new(TelemetryConfig::default());
    out.ns("telemetry.inc_ns", ns_per_op(|| inc(&mut recording)));
    out.ns(
        "telemetry.inc_disabled_ns",
        ns_per_op(|| inc(&mut disabled)),
    );
    out.ns(
        "telemetry.trace_event_ns",
        ns_per_op(|| {
            let ((), d) = timed(|| {
                for i in 0..CALLS as u32 {
                    recording.trace_event(now, || TraceEvent::PacketForwarded {
                        node: i % nodes,
                        ingress_if: 1,
                        egress_if: 2,
                    });
                }
            });
            (CALLS, d)
        }),
    );
}

fn lookup_kernels(seed: u64, out: &mut Out) {
    let mut wl = Lookup::build(seed);
    let now = wl.start();
    let hot: Vec<IsdAsn> = wl.destinations.iter().copied().take(256).collect();
    let off = &mut Spans::disabled();

    // One lookup answered from a cold and from a warm cache.
    let mut warm = wl.pristine_local.clone();
    let sets: Vec<SegmentSet> = hot
        .iter()
        .map(|&dst| Lookup::answer(&mut warm, &wl.pristine_core, dst, now, off).1)
        .collect();
    out.ns(
        "pathserver.lookup_hit_ns",
        ns_per_op(|| {
            let ((), d) = timed(|| {
                for &dst in &hot {
                    let (hit, set) = Lookup::answer(&mut warm, &wl.pristine_core, dst, now, off);
                    assert!(std::hint::black_box(hit));
                    std::hint::black_box(set);
                }
            });
            (hot.len() as u64, d)
        }),
    );
    out.ns(
        "pathserver.lookup_miss_ns",
        ns_per_op(|| {
            let mut cold = wl.pristine_local.clone();
            let ((), d) = timed(|| {
                for &dst in &hot {
                    let (hit, set) = Lookup::answer(&mut cold, &wl.pristine_core, dst, now, off);
                    assert!(!std::hint::black_box(hit));
                    std::hint::black_box(set);
                }
            });
            (hot.len() as u64, d)
        }),
    );

    // Writes against a fresh copy of the core server.
    out.ns(
        "pathserver.register_ns",
        ns_per_op(|| {
            let mut core = wl.pristine_core.clone();
            let segs: Vec<PathSegment> = wl.gen2.iter().take(256).flatten().cloned().collect();
            let n = segs.len() as u64;
            let ((), d) = timed(|| {
                for seg in segs {
                    core.register_down_segment(seg, now)
                        .expect("core server accepts down-segments");
                }
            });
            (n, d)
        }),
    );
    out.us(
        "pathserver.deregister_us",
        ns_per_op(|| {
            let mut core = wl.pristine_core.clone();
            let links = &wl.revoke_links[..4];
            let ((), d) = timed(|| {
                for &link in links {
                    std::hint::black_box(core.deregister_where(|s| segment_uses_link(s, link)));
                }
            });
            (links.len() as u64, d)
        }),
    );

    // Combination and resolution over the segments of real answers.
    let attempts: u64 = sets
        .iter()
        .map(|s| (s.up.len() * s.down.len() * (1 + s.core.len())) as u64)
        .sum();
    out.ns(
        "proto.combine_ns",
        ns_per_op(|| {
            let ((), d) = timed(|| {
                for set in &sets {
                    for u in &set.up {
                        for dn in &set.down {
                            std::hint::black_box(combine_paths(Some(u), None, Some(dn)).is_ok());
                            for c in &set.core {
                                let r = combine_paths(Some(u), Some(c), Some(dn));
                                std::hint::black_box(r.is_ok());
                            }
                        }
                    }
                }
            });
            (attempts, d)
        }),
    );
    let mut daemon = ScionDaemon::new();
    let mut found = 0u64;
    out.us(
        "endhost.resolve_us",
        ns_per_op(|| {
            let (paths, d) = timed(|| {
                let mut paths = 0u64;
                for (&dst, set) in hot.iter().zip(&sets) {
                    paths += daemon.resolve(dst, set, now) as u64;
                }
                paths
            });
            found = paths;
            (hot.len() as u64, d)
        }),
    );
    out.push(
        "endhost.paths_per_resolve",
        found as f64 / hot.len() as f64,
        "count",
    );

    let digest = wl.run(off);
    let hits = digest.get("hits").expect("lookup digest has hits");
    out.push(
        "pathserver.cache_hit_ratio",
        hits as f64 / digest.ops as f64,
        "ratio",
    );
}

fn setup_kernels(out: &mut Out) {
    let params = scale(beacon::NUM_ASES, beacon::NUM_CORE, 3);
    let generator = GeneratorConfig {
        num_ases: params.num_ases,
        seed: TOPOLOGY_SEED,
        ..GeneratorConfig::default()
    };
    let internet = generate_internet(&generator);
    out.ms(
        "topology.generate_ms",
        ns_per_op(|| (1, timed(|| generate_internet(&generator)).1)),
    );
    out.ms(
        "topology.prune_ms",
        ns_per_op(|| {
            (
                1,
                timed(|| prune_to_top_degree(&internet, params.num_core)).1,
            )
        }),
    );
    let mut world = World::build(params);
    out.ms(
        "core.world_build_ms",
        ns_per_op(|| {
            let (w, d) = timed(|| World::build(params));
            world = w;
            (1, d)
        }),
    );
    // The largest trust domain a workload bootstraps: the whole intra-ISD
    // view, one key pair and one certificate per AS.
    let horizon = SimTime::ZERO + Duration::from_days(2);
    out.ms(
        "crypto.trust_bootstrap_ms",
        ns_per_op(|| (1, timed(|| bootstrap_trust(&world.intra, horizon)).1)),
    );
}
