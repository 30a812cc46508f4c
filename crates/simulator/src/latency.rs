//! Per-link propagation latency model.
//!
//! The paper's overhead results are byte counts, not latency measurements,
//! but event *ordering* still matters (e.g. whether a PCB propagated this
//! interval reaches the neighbour before that neighbour's own interval timer
//! fires). We assign every inter-domain link a deterministic pseudo-random
//! propagation delay in a realistic inter-domain range and keep it fixed for
//! the run.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use scion_topology::{AsTopology, LinkIndex};
use scion_types::Duration;

/// Immutable per-link one-way propagation delays.
#[derive(Clone, Debug)]
pub struct LatencyModel {
    delays: Vec<Duration>,
}

impl LatencyModel {
    /// Default lower bound: 1 ms (metro cross-connect).
    pub const DEFAULT_MIN: Duration = Duration::from_millis(1);
    /// Default upper bound: 80 ms (intercontinental).
    pub const DEFAULT_MAX: Duration = Duration::from_millis(80);

    /// Draws a delay for every link of `topo` uniformly from
    /// `[min, max]`, deterministically from `seed`.
    pub fn uniform(topo: &AsTopology, seed: u64, min: Duration, max: Duration) -> LatencyModel {
        assert!(min <= max);
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x1a7e_4c1e);
        let delays = (0..topo.num_links())
            .map(|_| Duration::from_micros(rng.gen_range(min.as_micros()..=max.as_micros())))
            .collect();
        LatencyModel { delays }
    }

    /// Uniform model with the default inter-domain range.
    pub fn default_for(topo: &AsTopology, seed: u64) -> LatencyModel {
        Self::uniform(topo, seed, Self::DEFAULT_MIN, Self::DEFAULT_MAX)
    }

    /// Constant delay on every link (useful in unit tests).
    pub fn constant(topo: &AsTopology, delay: Duration) -> LatencyModel {
        LatencyModel {
            delays: vec![delay; topo.num_links()],
        }
    }

    /// One-way propagation delay of `link`.
    pub fn delay(&self, link: LinkIndex) -> Duration {
        self.delays[link.as_usize()]
    }

    /// The smallest delay of any link, or `None` for a linkless topology
    /// (no message can exist, which is not the same as a zero delay). This
    /// bounds the conservative lookahead of windowed execution: events
    /// less than `min_delay` apart cannot causally influence each other
    /// through the network.
    pub fn min_delay(&self) -> Option<Duration> {
        self.delays.iter().copied().min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_topology::{generate_internet, GeneratorConfig};

    #[test]
    fn deterministic_per_seed() {
        let t = generate_internet(&GeneratorConfig::small(100, 1));
        let a = LatencyModel::default_for(&t, 7);
        let b = LatencyModel::default_for(&t, 7);
        let c = LatencyModel::default_for(&t, 8);
        let all_eq_ab = t.link_indices().all(|li| a.delay(li) == b.delay(li));
        let any_ne_ac = t.link_indices().any(|li| a.delay(li) != c.delay(li));
        assert!(all_eq_ab);
        assert!(any_ne_ac);
    }

    #[test]
    fn delays_within_bounds() {
        let t = generate_internet(&GeneratorConfig::small(100, 1));
        let m = LatencyModel::uniform(&t, 1, Duration::from_millis(5), Duration::from_millis(10));
        for li in t.link_indices() {
            let d = m.delay(li);
            assert!(d >= Duration::from_millis(5) && d <= Duration::from_millis(10));
        }
    }

    #[test]
    fn min_delay_is_none_without_links() {
        let linkless = scion_topology::AsTopology::default();
        assert_eq!(LatencyModel::default_for(&linkless, 1).min_delay(), None);
        let t = generate_internet(&GeneratorConfig::small(50, 1));
        let m = LatencyModel::constant(&t, Duration::from_millis(3));
        assert_eq!(m.min_delay(), Some(Duration::from_millis(3)));
    }

    #[test]
    fn constant_model() {
        let t = generate_internet(&GeneratorConfig::small(50, 1));
        let m = LatencyModel::constant(&t, Duration::from_millis(3));
        assert!(t
            .link_indices()
            .all(|li| m.delay(li) == Duration::from_millis(3)));
    }
}
