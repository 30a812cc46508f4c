//! The sender half of the reliable channel: pending-ack tracking and the
//! timeout/retransmit/backoff state machine.
//!
//! The channel is deliberately engine-agnostic: callers register each
//! send, deliver acks as they arrive, and ask for [`TimeoutAction`]s when
//! a deadline passes. The driver owns the actual wire (scheduling the
//! engine `Deliver` events and a wake-up timer at
//! [`ReliableSender::next_deadline`]); the channel owns *when* and *what*
//! to retransmit. What a resend needs — destination, link, the message
//! itself — rides in the payload `M`, so one wheel serves beacons,
//! segment registrations and path lookups alike; the variation between
//! them is a [`ReliableConfig`] value. Jitter is a pure function of
//! `(seed, id, attempt)` — no RNG state — so the backoff schedule of any
//! message is exactly reproducible regardless of what else the run does.

use std::collections::{BTreeMap, BTreeSet};

use scion_types::{splitmix64, Duration, SimTime};
use serde::Serialize;

/// A monotonically-assigned message id, unique per [`ReliableSender`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct MsgId(pub u64);

/// Tuning of the retransmit state machine.
#[derive(Clone, Copy, Debug)]
pub struct ReliableConfig {
    /// Timeout before the first retransmission.
    pub base_timeout: Duration,
    /// Backoff multiplier per attempt, in percent (200 = doubling).
    pub backoff_pct: u32,
    /// Upper bound on any single timeout.
    pub max_timeout: Duration,
    /// Additive jitter as a percentage of the computed timeout: attempt
    /// `k` of message `m` waits `timeout_k * (1 + u/100)` with
    /// `u = hash(seed, m, k) % (jitter_pct + 1)`.
    pub jitter_pct: u32,
    /// Total transmissions (including the first) before giving up.
    pub max_attempts: u32,
    /// Seed of the deterministic jitter hash.
    pub seed: u64,
    /// Multiplier (percent) applied on top of the normal backoff when the
    /// receiver says *busy*: an overloaded server that sheds a request
    /// must see the retry later than a lost packet would, or retries add
    /// load exactly when capacity is short. 400 = the busy retry waits 4×
    /// the normal timeout. Values under 100 are treated as 100.
    pub busy_penalty_pct: u32,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        // First retransmit after 500 ms (covers the 2×80 ms worst-case
        // RTT of the latency model plus jitter), doubling to a 60 s cap;
        // 6 attempts push the residual failure probability at 20% link
        // loss below 1e-4 per direction.
        ReliableConfig {
            base_timeout: Duration::from_millis(500),
            backoff_pct: 200,
            max_timeout: Duration::from_secs(60),
            jitter_pct: 25,
            max_attempts: 6,
            seed: 0,
            busy_penalty_pct: 400,
        }
    }
}

impl ReliableConfig {
    /// The path-lookup ladder: a lookup round-trip crosses at most a
    /// handful of inter-domain links (≤ 2 × 80 ms each way), so 1 s covers
    /// it with margin; three attempts doubling from there keep worst-case
    /// resolution under ~7 s, after which serving hour-stale paths beats
    /// serving nothing (paths live for hours, §4.1). No jitter, and a cap
    /// no lookup reaches: attempt `k` waits exactly `2^(k-1)` s, a busy
    /// signal 4× that.
    pub const LOOKUP: ReliableConfig = ReliableConfig {
        base_timeout: Duration::from_secs(1),
        backoff_pct: 200,
        max_timeout: Duration::from_secs(60),
        jitter_pct: 0,
        max_attempts: 3,
        seed: 0,
        busy_penalty_pct: 400,
    };

    /// The deadline offset armed after transmission `attempt` (1-based)
    /// of message `id`: exponential backoff plus deterministic jitter,
    /// capped at [`ReliableConfig::max_timeout`].
    pub fn timeout_for(&self, id: MsgId, attempt: u32) -> Duration {
        self.capped(self.uncapped_us(id, attempt))
    }

    /// The deadline offset armed after a *busy* signal for transmission
    /// `attempt` of message `id`: the normal exponential+jittered backoff
    /// stretched by [`ReliableConfig::busy_penalty_pct`], then capped.
    /// Still a pure function of `(seed, id, attempt)`.
    pub fn busy_timeout_for(&self, id: MsgId, attempt: u32) -> Duration {
        let penalty = self.busy_penalty_pct.max(100) as u64;
        self.capped(self.uncapped_us(id, attempt).saturating_mul(penalty) / 100)
    }

    /// Backoff and jitter before the cap, saturating.
    fn uncapped_us(&self, id: MsgId, attempt: u32) -> u64 {
        let mut us = self.base_timeout.as_micros();
        for _ in 1..attempt {
            us = us.saturating_mul(self.backoff_pct as u64) / 100;
        }
        if self.jitter_pct > 0 {
            let h =
                splitmix64(self.seed ^ id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ attempt as u64);
            let pct = h % (self.jitter_pct as u64 + 1);
            us = us.saturating_add(us.saturating_mul(pct) / 100);
        }
        us
    }

    fn capped(&self, us: u64) -> Duration {
        Duration::from_micros(us.min(self.max_timeout.as_micros()))
    }
}

/// What the driver must do when a deadline fires.
#[derive(Clone, Debug)]
pub enum TimeoutAction<M> {
    /// Put the payload back on the wire and keep waiting (the channel has
    /// already re-armed the next deadline).
    Retransmit { id: MsgId, payload: M },
    /// `max_attempts` exhausted: the message is abandoned and its state
    /// dropped. The payload is returned so callers can degrade gracefully
    /// (e.g. a path server noting a dead origin).
    GiveUp { id: MsgId, payload: M },
}

/// Counters of one sender's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct SenderStats {
    /// First transmissions registered.
    pub sent: u64,
    /// Retransmissions issued on timeout.
    pub retransmits: u64,
    /// Acks that matched a pending message.
    pub acked: u64,
    /// Deadlines that fired with the message still pending.
    pub timeouts: u64,
    /// Messages abandoned after `max_attempts`.
    pub give_ups: u64,
    /// Busy signals that re-armed a pending deadline on the penalized
    /// schedule.
    pub busy_backoffs: u64,
}

struct Pending<M> {
    payload: M,
    /// Transmissions so far (1 after `register`).
    attempts: u32,
    deadline: SimTime,
}

/// The sender-side reliable channel over one driver's engine.
pub struct ReliableSender<M> {
    cfg: ReliableConfig,
    next_id: u64,
    pending: BTreeMap<u64, Pending<M>>,
    /// Deadline index: `(deadline, id)`, kept in lockstep with `pending`.
    due: BTreeSet<(SimTime, u64)>,
    stats: SenderStats,
}

impl<M: Clone> ReliableSender<M> {
    pub fn new(cfg: ReliableConfig) -> ReliableSender<M> {
        ReliableSender {
            cfg,
            next_id: 0,
            pending: BTreeMap::new(),
            due: BTreeSet::new(),
            stats: SenderStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ReliableConfig {
        &self.cfg
    }

    /// Registers a fresh transmission, assigning its id and arming the
    /// first retransmit deadline. The caller performs the actual send.
    pub fn register(&mut self, now: SimTime, payload: M) -> MsgId {
        let id = MsgId(self.next_id);
        self.next_id += 1;
        let deadline = now + self.cfg.timeout_for(id, 1);
        self.pending.insert(
            id.0,
            Pending {
                payload,
                attempts: 1,
                deadline,
            },
        );
        self.due.insert((deadline, id.0));
        self.stats.sent += 1;
        id
    }

    /// Handles an incoming ack. Returns `true` when it settled a pending
    /// message (late/duplicate acks return `false` and change nothing).
    pub fn on_ack(&mut self, id: MsgId) -> bool {
        match self.pending.remove(&id.0) {
            Some(p) => {
                self.due.remove(&(p.deadline, id.0));
                self.stats.acked += 1;
                true
            }
            None => false,
        }
    }

    /// Pops every deadline at or before `now`, re-arming retransmissions
    /// and dropping give-ups. The driver executes the returned actions in
    /// order (the order is deterministic: by deadline, then id).
    pub fn due_actions(&mut self, now: SimTime) -> Vec<TimeoutAction<M>> {
        let mut out = Vec::new();
        while let Some(&(deadline, id)) = self.due.first() {
            if deadline > now {
                break;
            }
            self.due.pop_first();
            // `due` and `pending` move in lockstep, so the entry is there;
            // it is taken out and put back only on retransmit.
            let Some(mut p) = self.pending.remove(&id) else {
                continue;
            };
            self.stats.timeouts += 1;
            if p.attempts >= self.cfg.max_attempts {
                self.stats.give_ups += 1;
                out.push(TimeoutAction::GiveUp {
                    id: MsgId(id),
                    payload: p.payload,
                });
            } else {
                p.attempts += 1;
                p.deadline = now + self.cfg.timeout_for(MsgId(id), p.attempts);
                self.due.insert((p.deadline, id));
                self.stats.retransmits += 1;
                out.push(TimeoutAction::Retransmit {
                    id: MsgId(id),
                    payload: p.payload.clone(),
                });
                self.pending.insert(id, p);
            }
        }
        out
    }

    /// Handles an explicit *busy* rejection of message `id`: the pending
    /// deadline is re-armed on the penalized schedule
    /// ([`ReliableConfig::busy_timeout_for`]) so the retry lands after the
    /// overload, not during it. The attempt budget is untouched — the
    /// request was shed, not lost. Returns `true` when the message was
    /// pending (late/duplicate busy signals change nothing).
    pub fn on_busy(&mut self, id: MsgId, now: SimTime) -> bool {
        let Some(p) = self.pending.get_mut(&id.0) else {
            return false;
        };
        self.due.remove(&(p.deadline, id.0));
        p.deadline = now + self.cfg.busy_timeout_for(id, p.attempts);
        self.due.insert((p.deadline, id.0));
        self.stats.busy_backoffs += 1;
        true
    }

    /// The deadline armed for pending message `id`, for a driver that
    /// wakes once per deadline. `None` once it is acked or given up.
    pub fn deadline(&self, id: MsgId) -> Option<SimTime> {
        self.pending.get(&id.0).map(|p| p.deadline)
    }

    /// The earliest armed deadline, for scheduling the driver's wake-up
    /// timer. `None` when nothing is pending.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.due.first().map(|&(t, _)| t)
    }

    /// Messages still awaiting an ack.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn cfg_no_jitter() -> ReliableConfig {
        ReliableConfig {
            base_timeout: Duration::from_micros(100),
            backoff_pct: 200,
            max_timeout: Duration::from_micros(1_000),
            jitter_pct: 0,
            max_attempts: 3,
            seed: 7,
            busy_penalty_pct: 400,
        }
    }

    #[test]
    fn ack_settles_pending_and_late_acks_are_ignored() {
        let mut s: ReliableSender<&'static str> = ReliableSender::new(cfg_no_jitter());
        let id = s.register(t(0), "hello");
        assert_eq!(s.pending_len(), 1);
        assert!(s.on_ack(id));
        assert!(!s.on_ack(id), "second ack must be a no-op");
        assert_eq!(s.pending_len(), 0);
        assert_eq!(s.next_deadline(), None);
        assert!(s.due_actions(t(10_000)).is_empty());
        assert_eq!(s.stats().acked, 1);
        assert_eq!(s.stats().retransmits, 0);
    }

    #[test]
    fn deadline_is_the_one_armed_for_that_message() {
        let mut s: ReliableSender<u8> = ReliableSender::new(cfg_no_jitter());
        let a = s.register(t(0), 1);
        let b = s.register(t(50), 2);
        assert_eq!((s.deadline(a), s.deadline(b)), (Some(t(100)), Some(t(150))));
        assert_eq!(s.due_actions(t(100)).len(), 1);
        assert_eq!(s.deadline(a), Some(t(300)), "re-armed by the retransmit");
        assert!(s.on_ack(b));
        assert_eq!(s.deadline(b), None);
        s.due_actions(t(300));
        assert_eq!(s.deadline(a), Some(t(700)));
        s.due_actions(t(700));
        assert_eq!(s.deadline(a), None, "given up");
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let mut s: ReliableSender<u32> = ReliableSender::new(cfg_no_jitter());
        s.register(t(0), 99);
        // Attempt 1 at t=0; deadlines at 100, then +200, then give-up.
        let mut retransmits = 0;
        let mut gave_up = false;
        let mut now = 0;
        for _ in 0..10 {
            let Some(deadline) = s.next_deadline() else {
                break;
            };
            now = deadline.as_micros();
            for a in s.due_actions(t(now)) {
                match a {
                    TimeoutAction::Retransmit { payload, .. } => {
                        assert_eq!(payload, 99);
                        retransmits += 1;
                    }
                    TimeoutAction::GiveUp { payload, .. } => {
                        assert_eq!(payload, 99);
                        gave_up = true;
                    }
                }
            }
        }
        // max_attempts = 3: original + 2 retransmits, then the third
        // deadline abandons the message.
        assert_eq!(retransmits, 2);
        assert!(gave_up, "third timeout must give up");
        assert_eq!(s.pending_len(), 0);
        assert_eq!(s.stats().give_ups, 1);
        assert_eq!(s.stats().timeouts, 3);
        // Backoff doubled: deadlines at 100, 100+200, 300+400.
        assert_eq!(now, 700);
    }

    #[test]
    fn backoff_schedule_is_exactly_reproducible() {
        let cfg = ReliableConfig {
            jitter_pct: 50,
            seed: 42,
            ..cfg_no_jitter()
        };
        let schedule = |cfg: &ReliableConfig| -> Vec<u64> {
            (1..=6)
                .flat_map(|attempt| {
                    (0..4).map(move |id| cfg.timeout_for(MsgId(id), attempt).as_micros())
                })
                .collect()
        };
        assert_eq!(schedule(&cfg), schedule(&cfg.clone()));
        // Different seed, different jitter somewhere.
        let other = ReliableConfig { seed: 43, ..cfg };
        assert_ne!(schedule(&cfg), schedule(&other));
        // Jitter never exceeds jitter_pct on top of the base backoff.
        for attempt in 1..=6u32 {
            let base = cfg_no_jitter().timeout_for(MsgId(0), attempt).as_micros();
            let jittered = cfg.timeout_for(MsgId(0), attempt).as_micros();
            assert!(jittered >= base, "jitter is additive");
            assert!(jittered <= base + base / 2, "jitter capped at 50%");
        }
    }

    #[test]
    fn backoff_caps_at_max_timeout() {
        let cfg = ReliableConfig {
            base_timeout: Duration::from_micros(100),
            backoff_pct: 1_000,
            max_timeout: Duration::from_micros(500),
            jitter_pct: 0,
            max_attempts: 10,
            seed: 0,
            busy_penalty_pct: 400,
        };
        assert_eq!(cfg.timeout_for(MsgId(0), 1).as_micros(), 100);
        assert_eq!(cfg.timeout_for(MsgId(0), 2).as_micros(), 500);
        assert_eq!(cfg.timeout_for(MsgId(0), 9).as_micros(), 500);
    }

    #[test]
    fn busy_signal_backs_off_harder_than_a_timeout() {
        // Satellite: a shed request must retry *later* than a lost one —
        // the busy penalty stretches the armed deadline 4×.
        let mut s: ReliableSender<u8> = ReliableSender::new(cfg_no_jitter());
        let id = s.register(t(0), 1);
        assert_eq!(s.next_deadline(), Some(t(100)));
        // Busy response arrives at t=50: deadline re-arms at 50 + 4×100.
        assert!(s.on_busy(id, t(50)));
        assert_eq!(s.next_deadline(), Some(t(450)));
        assert_eq!(s.stats().busy_backoffs, 1);
        // The attempt budget is untouched: the full retransmit ladder
        // still runs after the penalized wait.
        let acts = s.due_actions(t(450));
        assert_eq!(acts.len(), 1);
        assert!(matches!(acts[0], TimeoutAction::Retransmit { .. }));
        // A busy for a settled message is a no-op.
        assert!(s.on_ack(id));
        assert!(!s.on_busy(id, t(500)));
        assert_eq!(s.stats().busy_backoffs, 1);
    }

    #[test]
    fn busy_penalty_is_deterministic_and_floored_at_normal_schedule() {
        let cfg = ReliableConfig {
            jitter_pct: 25,
            seed: 9,
            ..cfg_no_jitter()
        };
        // 4x the normal timeout, up to the 1 000 us cap: attempt three's
        // 400-500 us would wait 1 600-2 000 us uncapped.
        for attempt in 1..=3 {
            let normal = cfg.timeout_for(MsgId(3), attempt);
            let busy = cfg.busy_timeout_for(MsgId(3), attempt);
            assert_eq!(busy, (normal * 4).min(cfg.max_timeout));
        }
        assert_eq!(cfg.busy_timeout_for(MsgId(3), 3), cfg.max_timeout);
        // A penalty under 100% never schedules the busy retry *sooner*
        // than the normal timeout.
        let degenerate = ReliableConfig {
            busy_penalty_pct: 10,
            ..cfg_no_jitter()
        };
        assert_eq!(
            degenerate.busy_timeout_for(MsgId(0), 1),
            degenerate.timeout_for(MsgId(0), 1)
        );
    }

    #[test]
    fn ids_are_monotonic_and_deadlines_ordered() {
        let mut s: ReliableSender<u8> = ReliableSender::new(cfg_no_jitter());
        let a = s.register(t(0), 1);
        let b = s.register(t(5), 2);
        assert!(b.0 > a.0);
        // Earliest deadline is a's (registered earlier, same timeout).
        assert_eq!(s.next_deadline(), Some(t(100)));
        assert!(s.on_ack(a));
        assert_eq!(s.next_deadline(), Some(t(105)));
    }

    #[test]
    fn due_actions_pop_in_deadline_then_id_order() {
        let mut s: ReliableSender<u8> = ReliableSender::new(cfg_no_jitter());
        s.register(t(0), 0);
        s.register(t(0), 1);
        let acts = s.due_actions(t(100));
        assert_eq!(acts.len(), 2);
        let ids: Vec<u64> = acts
            .iter()
            .map(|a| match a {
                TimeoutAction::Retransmit { id, .. } | TimeoutAction::GiveUp { id, .. } => id.0,
            })
            .collect();
        assert_eq!(ids, vec![0, 1]);
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_micros(s * 1_000_000)
    }

    #[test]
    fn lookup_ladder_waits_one_two_four_seconds_then_gives_up() {
        let mut s: ReliableSender<u8> = ReliableSender::new(ReliableConfig::LOOKUP);
        let id = s.register(t(0), 4);
        assert_eq!(s.next_deadline(), Some(secs(1)));
        let acts = s.due_actions(secs(1));
        assert!(
            matches!(acts.as_slice(), [TimeoutAction::Retransmit { id: i, payload: 4 }] if *i == id)
        );
        assert_eq!(s.next_deadline(), Some(secs(3)));
        assert_eq!(s.due_actions(secs(3)).len(), 1);
        assert_eq!(s.next_deadline(), Some(secs(7)));
        let acts = s.due_actions(secs(7));
        assert!(
            matches!(acts.as_slice(), [TimeoutAction::GiveUp { id: i, payload: 4 }] if *i == id)
        );
        assert_eq!(s.pending_len(), 0);
        assert_eq!(s.stats().retransmits, 2);
        assert_eq!(s.stats().give_ups, 1);
        // The ladder is exact for every id: no jitter, and no cap reached.
        for id in 0..64 {
            for (attempt, want) in [(1, 1), (2, 2), (3, 4)] {
                let got = ReliableConfig::LOOKUP.timeout_for(MsgId(id), attempt);
                assert_eq!(got, Duration::from_secs(want));
            }
        }
    }

    #[test]
    fn lookup_busy_signal_re_arms_four_times_from_the_signal() {
        let mut s: ReliableSender<u8> = ReliableSender::new(ReliableConfig::LOOKUP);
        let id = s.register(t(0), 4);
        // The upstream sheds the lookup at 0.5 s: the retry waits 4 × 1 s
        // from the signal, not 1 s from the send.
        assert!(s.on_busy(id, t(500_000)));
        assert_eq!(s.next_deadline(), Some(t(4_500_000)));
        // The attempt budget did not shrink: the retransmit at 4.5 s is
        // attempt two, armed 2 s out, and attempt three follows.
        assert_eq!(s.due_actions(t(4_500_000)).len(), 1);
        assert_eq!(s.next_deadline(), Some(t(6_500_000)));
        assert!(matches!(
            s.due_actions(t(6_500_000)).as_slice(),
            [TimeoutAction::Retransmit { .. }]
        ));
        assert_eq!(s.stats().busy_backoffs, 1);
    }

    #[test]
    fn lookup_late_responses_are_ignored() {
        let mut s: ReliableSender<u8> = ReliableSender::new(ReliableConfig::LOOKUP);
        let id = s.register(t(0), 4);
        assert!(s.on_ack(id));
        assert!(!s.on_ack(id), "a late response settles nothing");
        assert!(!s.on_busy(id, t(10)), "nor does a late busy signal");
        assert_eq!(s.pending_len(), 0);
        assert!(s.due_actions(secs(10)).is_empty());
        assert_eq!(s.stats().acked, 1);
        assert_eq!(s.stats().busy_backoffs, 0);
    }

    /// The timeouts as they were computed before the cap moved to the
    /// final value: capped before the jitter, and the busy penalty applied
    /// on top of that.
    mod reference {
        use super::*;

        pub fn timeout_for(cfg: &ReliableConfig, id: MsgId, attempt: u32) -> u64 {
            let mut us = cfg.base_timeout.as_micros();
            for _ in 1..attempt {
                us = us.saturating_mul(cfg.backoff_pct as u64) / 100;
                if us >= cfg.max_timeout.as_micros() {
                    us = cfg.max_timeout.as_micros();
                    break;
                }
            }
            us = us.min(cfg.max_timeout.as_micros());
            if cfg.jitter_pct > 0 {
                let h = splitmix64(
                    cfg.seed ^ id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ attempt as u64,
                );
                us += us.saturating_mul(h % (cfg.jitter_pct as u64 + 1)) / 100;
            }
            us
        }

        pub fn busy_timeout_for(cfg: &ReliableConfig, id: MsgId, attempt: u32) -> u64 {
            timeout_for(cfg, id, attempt).saturating_mul(cfg.busy_penalty_pct.max(100) as u64) / 100
        }
    }

    proptest! {
        // No timeout exceeds `max_timeout`, jittered and penalised or not,
        // and below the cap nothing moved: wherever the value computed
        // without a cap stays under it, both functions answer as before.
        // A schedule that shrinks (`backoff_pct` < 100) from a base above
        // the cap was capped at its first step before; it is compared on
        // the bound only.
        fn prop_timeouts_never_exceed_the_cap_and_move_nowhere_below_it(
            base_us in 0u64..10_000_000,
            backoff_pct in 0u32..1_000,
            max_us in 0u64..1_000_000_000_000,
            jitter_pct in 0u32..200,
            busy_penalty_pct in 0u32..1_000,
            seed in any::<u64>(),
            id in any::<u64>(),
            attempt in 0u32..=64,
        ) {
            let cfg = ReliableConfig {
                base_timeout: Duration::from_micros(base_us),
                backoff_pct,
                max_timeout: Duration::from_micros(max_us),
                jitter_pct,
                max_attempts: 64,
                seed,
                busy_penalty_pct,
            };
            let uncapped = ReliableConfig { max_timeout: Duration::from_micros(u64::MAX), ..cfg };
            let id = MsgId(id);
            let (timeout, busy) = (cfg.timeout_for(id, attempt), cfg.busy_timeout_for(id, attempt));
            prop_assert!(timeout <= cfg.max_timeout, "{:?} > {:?}", timeout, cfg.max_timeout);
            prop_assert!(busy <= cfg.max_timeout, "{:?} > {:?}", busy, cfg.max_timeout);
            if backoff_pct < 100 && base_us > max_us {
                return Ok(());
            }
            if uncapped.timeout_for(id, attempt) < cfg.max_timeout {
                prop_assert_eq!(timeout.as_micros(), reference::timeout_for(&cfg, id, attempt));
            }
            if uncapped.busy_timeout_for(id, attempt) < cfg.max_timeout {
                prop_assert_eq!(busy.as_micros(), reference::busy_timeout_for(&cfg, id, attempt));
            }
        }

        // The wheel's conservation laws, checked after every operation of a
        // random register / ack / busy / pump sequence with non-decreasing
        // time, under the jittered default and the lookup ladder: every
        // send is acked, abandoned or pending; a settled id never shows in
        // an action again; no id is resent more than `max_attempts - 1`
        // times; a pump leaves no deadline at or before its `now`; and a
        // deadline is armed exactly while something is pending. Half the
        // pumps run at the earliest deadline, as the drivers do, so a
        // deadline is hit to the microsecond.
        fn prop_every_send_is_acked_abandoned_or_pending(
            lookup in any::<bool>(),
            seed in any::<u64>(),
            ops in proptest::collection::vec((0u8..5, 0u64..3_000_000, any::<u64>()), 0..96),
        ) {
            let cfg = if lookup {
                ReliableConfig::LOOKUP
            } else {
                ReliableConfig { seed, ..ReliableConfig::default() }
            };
            let mut s: ReliableSender<u64> = ReliableSender::new(cfg);
            let mut ids: Vec<MsgId> = Vec::new();
            let mut settled = std::collections::HashSet::new();
            let mut resends = std::collections::HashMap::<MsgId, u32>::new();
            let mut now = 0;
            for (op, dt, pick) in ops {
                now += dt;
                let pick = (!ids.is_empty()).then(|| ids[(pick % ids.len() as u64) as usize]);
                match (op, pick) {
                    (1, Some(id)) => {
                        let was_pending = !settled.contains(&id);
                        prop_assert_eq!(s.on_ack(id), was_pending);
                        settled.insert(id);
                    }
                    (2, Some(id)) => {
                        prop_assert_eq!(s.on_busy(id, t(now)), !settled.contains(&id));
                    }
                    (3 | 4, _) => {
                        if op == 4 {
                            let next = s.next_deadline().map_or(now, |d| d.as_micros());
                            now = now.max(next);
                        }
                        for action in s.due_actions(t(now)) {
                            let (id, payload, gave_up) = match action {
                                TimeoutAction::Retransmit { id, payload } => (id, payload, false),
                                TimeoutAction::GiveUp { id, payload } => (id, payload, true),
                            };
                            prop_assert!(!settled.contains(&id), "{:?} acted on once settled", id);
                            prop_assert_eq!(payload, id.0);
                            if gave_up {
                                settled.insert(id);
                            } else {
                                let n = resends.entry(id).or_default();
                                *n += 1;
                                prop_assert!(*n < cfg.max_attempts, "{:?} resent {} times", id, n);
                            }
                        }
                        prop_assert!(s.next_deadline().is_none_or(|d| d > t(now)));
                    }
                    _ => {
                        let id = s.register(t(now), s.stats().sent);
                        prop_assert!(!ids.contains(&id));
                        ids.push(id);
                    }
                }
                let st = s.stats();
                prop_assert_eq!(st.sent, st.acked + st.give_ups + s.pending_len() as u64);
                prop_assert_eq!(s.pending_len(), ids.len() - settled.len());
                prop_assert_eq!(s.next_deadline().is_some(), s.pending_len() > 0);
            }
        }
    }
}
