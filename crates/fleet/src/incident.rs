//! The correlated incident plane: shared cross-entity failure events.
//!
//! The per-entity fault sources (`crate::faults`) draw *independent*
//! episodes — one machine crashes, one cluster drains, one pair browns
//! out — which gives detectors narrow blast radii. Real incidents are
//! correlated: a cluster drain displaces its traffic onto placement
//! neighbours, one WAN cut severs every cluster pair spanning two
//! regions, and an overload front sweeps a whole region at once. The
//! `IncidentPlane` draws those *shared* incidents from seeded episode
//! processes keyed by the incident's scope (cluster, region pair, or
//! region) and materialises them as deterministic per-entity answers.
//!
//! It is built only inside [`crate::faults::FaultPlane::new`], the one
//! per-shard materialisation of a scenario. The driver never queries it
//! directly: [`crate::faults::FaultPlane::disruption`] composes its
//! answers with the per-entity sources and owns the precedence rules,
//! and the autoscaler and load-balancer controllers read this same plane.
//!
//! The same determinism contract as the per-entity sources holds:
//! eligibility gates and trajectories derive from `(master seed, scope
//! key)` via labelled streams, never consume caller draws, and are
//! independent of query order — so every shard reconstructs identical
//! incident timelines and `--faults none` runs draw nothing at all.

use crate::control::CONTROL_WINDOW;
use crate::faults::{lazy_episode, EpisodeSpec, OverloadSpec, PartitionSpec, PartitionState};
use rpclens_cluster::faults::EpisodeProcess;
use rpclens_simcore::time::{SimDuration, SimTime};
use std::collections::{BTreeSet, HashMap};

/// Generator domains for the incident plane, disjoint from the fault
/// plane's `0xFA17_xxxx` family (and every other consumer of the master
/// seed). The shared gate label is XORed with each domain, mirroring
/// `crate::faults`.
const INCIDENT_DRAIN_LABEL: u64 = 0x1AC1_0001;
const INCIDENT_CUT_LABEL: u64 = 0x1AC1_0002;
const INCIDENT_FRONT_LABEL: u64 = 0x1AC1_0003;

/// Shared cross-entity incident sources. Scopes are structural — the
/// cluster's region membership decides who a drain displaces load onto
/// and which cluster pairs one WAN cut severs — so a single episode draw
/// fans out over many entities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncidentSpec {
    /// Whole-cluster drain incidents. While a cluster drains, its
    /// same-region placement neighbours absorb the displaced traffic as
    /// a utilization surge.
    pub drain: Option<EpisodeSpec>,
    /// Utilization multiplier on the same-region neighbours of a
    /// draining cluster (the displaced load landing on them).
    pub surge_factor: f64,
    /// Region-pair WAN cuts: one episode degrades *every* cluster pair
    /// spanning the two regions at once. Episodes alternate
    /// blackout/brownout on their ordinal, like per-pair partitions.
    pub wan_cut: Option<PartitionSpec>,
    /// Regional overload fronts: one episode surges every deployment
    /// site in the region, with load shedding past the spec's wait
    /// threshold.
    pub front: Option<OverloadSpec>,
}

impl IncidentSpec {
    /// Whether any incident source is active.
    pub fn strikes(&self) -> bool {
        self.drain.is_some() || self.wan_cut.is_some() || self.front.is_some()
    }
}

/// The per-shard materialisation of an [`IncidentSpec`].
///
/// Built from the master seed plus the topology's cluster→region map;
/// every query is a pure function of `(seed, scope key, now)`, so two
/// planes over the same spec answer identically regardless of query
/// order — the property `faults::plane_answers_are_independent_of_query_order`
/// pins for the composed plane.
#[derive(Debug)]
pub(crate) struct IncidentPlane {
    spec: IncidentSpec,
    seed: u64,
    /// Region of each cluster, indexed by cluster id.
    region_of: Vec<u16>,
    /// Clusters of each region (ascending), indexed by region id.
    members: Vec<Vec<u16>>,
    drain: HashMap<u16, Option<EpisodeProcess>>,
    cut: HashMap<u32, Option<EpisodeProcess>>,
    front: HashMap<u16, Option<EpisodeProcess>>,
}

impl IncidentPlane {
    /// Materialises a spec against the master seed and the cluster→region
    /// map (`region_of[c]` is the region of cluster `c`). Returns `None`
    /// when no incident source is active.
    pub(crate) fn new(spec: &IncidentSpec, seed: u64, region_of: Vec<u16>) -> Option<Self> {
        spec.strikes().then(|| {
            let regions = region_of
                .iter()
                .copied()
                .max()
                .map_or(0, |r| r as usize + 1);
            let mut members = vec![Vec::new(); regions];
            for (cluster, &region) in region_of.iter().enumerate() {
                members[region as usize].push(cluster as u16);
            }
            IncidentPlane {
                spec: *spec,
                seed,
                region_of,
                members,
                drain: HashMap::new(),
                cut: HashMap::new(),
                front: HashMap::new(),
            }
        })
    }

    /// Whether `cluster` is inside a drain incident at `now`.
    pub(crate) fn cluster_drained(&mut self, cluster: u16, now: SimTime) -> bool {
        self.spec
            .drain
            .is_some_and(|spec| drained(&mut self.drain, self.seed, &spec, cluster, now))
    }

    /// Connectivity of the cluster pair `a`–`b` at `now` under region-pair
    /// WAN cuts. Same-region pairs never cut; no path class is needed,
    /// since a datacenter lies inside one region and every cross-region
    /// path therefore rides the WAN.
    pub(crate) fn partition_state(&mut self, a: u16, b: u16, now: SimTime) -> PartitionState {
        let (Some(spec), Some(&ra), Some(&rb)) = (
            self.spec.wan_cut,
            self.region_of.get(a as usize),
            self.region_of.get(b as usize),
        ) else {
            return PartitionState::Connected;
        };
        if ra == rb {
            return PartitionState::Connected;
        }
        let (lo, hi) = if ra <= rb { (ra, rb) } else { (rb, ra) };
        let key = ((lo as u32) << 16) | hi as u32;
        PartitionState::of_episode(
            lazy_episode(
                &mut self.cut,
                key,
                INCIDENT_CUT_LABEL,
                self.seed,
                &spec.episodes,
            )
            .and_then(|p| p.active_episode(now)),
        )
    }

    /// The utilization surge multiplier on `cluster` at `now`, or `None`
    /// outside any incident: the strongest of the regional overload front
    /// and the neighbour surge from a same-region cluster drain (sources
    /// do not stack — see [`crate::faults::FaultPlane::disruption`]).
    pub(crate) fn overload_factor(&mut self, cluster: u16, now: SimTime) -> Option<f64> {
        let mut factor: Option<f64> = None;
        if let (Some(front), Some(&region)) =
            (self.spec.front, self.region_of.get(cluster as usize))
        {
            let process = lazy_episode(
                &mut self.front,
                region,
                INCIDENT_FRONT_LABEL,
                self.seed,
                &front.episodes,
            );
            if process.is_some_and(|p| p.active_at(now)) {
                factor = Some(front.util_factor);
            }
        }
        if self.neighbour_draining(cluster, now) {
            let surge = self.spec.surge_factor;
            factor = Some(factor.map_or(surge, |f| f.max(surge)));
        }
        factor
    }

    /// Whether any *other* cluster in `cluster`'s region is draining at
    /// `now` (its displaced load is what surges this cluster). Borrows
    /// the member list and the drain map as disjoint fields, so the scan
    /// allocates nothing.
    fn neighbour_draining(&mut self, cluster: u16, now: SimTime) -> bool {
        let (Some(spec), Some(&region)) = (self.spec.drain, self.region_of.get(cluster as usize))
        else {
            return false;
        };
        let (drain, seed) = (&mut self.drain, self.seed);
        self.members[region as usize]
            .iter()
            .filter(|&&peer| peer != cluster)
            .any(|&peer| drained(drain, seed, &spec, peer, now))
    }

    /// Boundary-sampled incident activity over `[0, duration)`, the
    /// manifest's incident rows: per configured kind (`cluster-drain`,
    /// `wan-cut`, `overload-front`), the scope entities (clusters, region
    /// pairs, or regions) struck by an episode seen at a control-window
    /// boundary, and the distinct episodes seen. Episode counts are lower
    /// bounds — episodes shorter than a window can fall between samples.
    pub(crate) fn summary(&mut self, duration: SimDuration) -> Vec<(String, u64, u64)> {
        let window = CONTROL_WINDOW.as_nanos();
        let boundaries: Vec<SimTime> = (0..=duration.as_nanos() / window)
            .map(|w| SimTime::from_nanos(w * window))
            .collect();
        // The distinct episodes of one scope entity seen at a boundary.
        let seen = |process: Option<&mut EpisodeProcess>| -> BTreeSet<u64> {
            process.map_or_else(BTreeSet::new, |p| {
                boundaries
                    .iter()
                    .filter_map(|&t| p.active_episode(t))
                    .collect()
            })
        };
        let regions: Vec<u16> = (0..self.members.len() as u16)
            .filter(|&r| !self.members[r as usize].is_empty())
            .collect();
        let (seed, spec) = (self.seed, self.spec);
        let mut rows = Vec::new();
        if let Some(drain) = spec.drain {
            let clusters = 0..self.region_of.len() as u16;
            let map = &mut self.drain;
            let sets =
                clusters.map(|c| seen(lazy_episode(map, c, INCIDENT_DRAIN_LABEL, seed, &drain)));
            rows.push(summary_row("cluster-drain", sets));
        }
        if let Some(PartitionSpec { episodes, .. }) = spec.wan_cut {
            let pairs = regions.iter().flat_map(|&a| {
                let above = regions.iter().filter(move |&&b| b > a);
                above.map(move |&b| ((a as u32) << 16) | b as u32)
            });
            let map = &mut self.cut;
            let sets =
                pairs.map(|k| seen(lazy_episode(map, k, INCIDENT_CUT_LABEL, seed, &episodes)));
            rows.push(summary_row("wan-cut", sets));
        }
        if let Some(OverloadSpec { episodes, .. }) = spec.front {
            let map = &mut self.front;
            let sets = regions
                .iter()
                .map(|&r| seen(lazy_episode(map, r, INCIDENT_FRONT_LABEL, seed, &episodes)));
            rows.push(summary_row("overload-front", sets));
        }
        rows
    }
}

/// One summary row from the episode sets of every scope entity.
fn summary_row(kind: &str, sets: impl Iterator<Item = BTreeSet<u64>>) -> (String, u64, u64) {
    let mut row = (kind.to_string(), 0, 0);
    for seen in sets {
        row.1 += u64::from(!seen.is_empty());
        row.2 += seen.len() as u64;
    }
    row
}

/// Whether the drain process of `cluster` is active at `now`, building
/// it lazily. A free function over the map alone so the neighbour scan
/// can hold the region's member list at the same time.
fn drained(
    map: &mut HashMap<u16, Option<EpisodeProcess>>,
    seed: u64,
    spec: &EpisodeSpec,
    cluster: u16,
    now: SimTime,
) -> bool {
    lazy_episode(map, cluster, INCIDENT_DRAIN_LABEL, seed, spec).is_some_and(|p| p.active_at(now))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpclens_cluster::faults::EpisodeParams;
    use rpclens_netsim::topology::Topology;

    /// Two regions of three clusters each.
    fn region_map() -> Vec<u16> {
        vec![0, 0, 0, 1, 1, 1]
    }

    fn spec() -> IncidentSpec {
        IncidentSpec {
            drain: Some(EpisodeSpec {
                eligible: 1.0,
                params: EpisodeParams {
                    up_mean: SimDuration::from_hours(4),
                    down_mean: SimDuration::from_secs(2_400),
                },
            }),
            surge_factor: 1.8,
            wan_cut: Some(PartitionSpec {
                episodes: EpisodeSpec {
                    eligible: 1.0,
                    params: EpisodeParams {
                        up_mean: SimDuration::from_hours(5),
                        down_mean: SimDuration::from_secs(1_800),
                    },
                },
                brownout_excess: SimDuration::from_millis(25),
            }),
            front: Some(OverloadSpec {
                episodes: EpisodeSpec {
                    eligible: 1.0,
                    params: EpisodeParams {
                        up_mean: SimDuration::from_hours(5),
                        down_mean: SimDuration::from_hours(2),
                    },
                },
                util_factor: 2.0,
                shed_wait: SimDuration::from_millis(15),
            }),
        }
    }

    fn instants() -> Vec<SimTime> {
        (0..2_000u64)
            .map(|i| SimTime::from_nanos(i * 43_000_000_000))
            .collect()
    }

    #[test]
    fn empty_spec_yields_no_plane() {
        let none = IncidentSpec {
            drain: None,
            surge_factor: 1.0,
            wan_cut: None,
            front: None,
        };
        assert!(!none.strikes());
        assert!(IncidentPlane::new(&none, 7, region_map()).is_none());
    }

    #[test]
    fn drains_surge_same_region_neighbours() {
        let spec = spec();
        let mut plane = IncidentPlane::new(&spec, 7, region_map()).unwrap();
        let mut surged_neighbour = false;
        for t in instants() {
            for c in 0..6u16 {
                if plane.cluster_drained(c, t) {
                    let region = region_map()[c as usize];
                    for peer in 0..6u16 {
                        if peer == c || region_map()[peer as usize] != region {
                            continue;
                        }
                        let f = plane.overload_factor(peer, t);
                        assert!(
                            f.is_some_and(|f| f >= spec.surge_factor),
                            "neighbour {peer} of draining {c} not surged at {t}: {f:?}"
                        );
                        surged_neighbour = true;
                    }
                }
            }
        }
        assert!(surged_neighbour, "no drain incident observed at all");
    }

    #[test]
    fn wan_cuts_strike_every_pair_across_the_region_pair() {
        let mut plane = IncidentPlane::new(&spec(), 7, region_map()).unwrap();
        let mut cut_seen = false;
        for t in instants() {
            // The region-pair key means every cluster pair spanning the
            // two regions reports the *same* state at the same instant.
            let states: Vec<PartitionState> = [(0u16, 3u16), (1, 4), (2, 5), (0, 5), (2, 3)]
                .iter()
                .map(|&(a, b)| plane.partition_state(a, b, t))
                .collect();
            assert!(
                states.windows(2).all(|w| w[0] == w[1]),
                "pairs disagree at {t}: {states:?}"
            );
            cut_seen |= states[0] != PartitionState::Connected;
        }
        assert!(cut_seen, "no wan cut observed");
    }

    /// The cut query takes no path class: in a real topology every
    /// non-WAN pair shares a datacenter, hence a region, and never cuts.
    #[test]
    fn same_region_and_non_wan_pairs_never_cut() {
        let mut plane = IncidentPlane::new(&spec(), 7, region_map()).unwrap();
        for t in instants() {
            assert_eq!(plane.partition_state(0, 1, t), PartitionState::Connected);
        }
        // In a real topology a non-WAN pair shares a datacenter, hence a
        // region, so it never cuts either.
        let topology = Topology::default_world(7);
        for a in topology.clusters() {
            for b in topology.clusters() {
                assert!(topology.path_class(a.id, b.id).is_wan() || a.region == b.region);
            }
        }
    }

    #[test]
    fn fronts_sweep_whole_regions() {
        let spec = spec();
        let mut plane = IncidentPlane::new(&spec, 7, region_map()).unwrap();
        let mut front_seen = false;
        for t in instants() {
            for region in 0..2u16 {
                let members: Vec<u16> = region_map()
                    .iter()
                    .enumerate()
                    .filter(|(_, &r)| r == region)
                    .map(|(c, _)| c as u16)
                    .collect();
                let factors: Vec<Option<f64>> = members
                    .iter()
                    .map(|&c| plane.overload_factor(c, t))
                    .collect();
                // When the front is up, every member is at least at the
                // front's factor (a concurrent neighbour drain may push
                // an individual member higher, never lower).
                let front_up = factors.iter().any(|f| {
                    f.is_some_and(|f| (f - spec.front.unwrap().util_factor).abs() < 1e-12)
                });
                if front_up {
                    front_seen = true;
                }
            }
        }
        assert!(front_seen, "no overload front observed");
    }

    #[test]
    fn incident_answers_are_order_independent() {
        let calls: Vec<(SimTime, u16)> = instants()
            .into_iter()
            .flat_map(|t| (0..6u16).map(move |c| (t, c)))
            .collect();
        let mut forward = IncidentPlane::new(&spec(), 7, region_map()).unwrap();
        let recorded: Vec<_> = calls
            .iter()
            .map(|&(t, c)| {
                let drained = forward.cluster_drained(c, t);
                let cut = forward.partition_state(c, 5 - c, t);
                (drained, cut, forward.overload_factor(c, t))
            })
            .collect();
        // Reversed calls, reversed pairs, and each call's queries reversed.
        let mut backward = IncidentPlane::new(&spec(), 7, region_map()).unwrap();
        for (&(t, c), expect) in calls.iter().zip(&recorded).rev() {
            let overload = backward.overload_factor(c, t);
            let cut = backward.partition_state(5 - c, c, t);
            let got = (backward.cluster_drained(c, t), cut, overload);
            assert_eq!(&got, expect, "cluster {c} at {t}");
        }
    }

    #[test]
    fn summary_reports_struck_entities_and_episodes() {
        let mut plane = IncidentPlane::new(&spec(), 7, region_map()).unwrap();
        let rows = plane.summary(SimDuration::from_hours(24));
        let [(drain, drain_struck, drain_eps), (cut, cut_struck, cut_eps), (front, front_struck, front_eps)] =
            &rows[..]
        else {
            panic!("one row per incident kind: {rows:?}");
        };
        assert_eq!(
            [drain, cut, front],
            ["cluster-drain", "wan-cut", "overload-front"]
        );
        assert!(*drain_struck > 0 && drain_eps >= drain_struck);
        // Two regions: exactly one region pair can be struck.
        assert!(*cut_struck <= 1);
        assert!(*front_struck <= 2);
        assert!(cut_eps + front_eps > 0, "no shared incidents at all");
    }
}
