//! The disruption plane: named fault scenarios and the one per-shard
//! plane that answers "what does this call meet at its server?".
//!
//! A [`FaultScenario`] names which failure sources are active and how
//! intense they are; [`FaultPlane`] is its single per-shard
//! materialisation. It holds lazily-built [`EpisodeProcess`] trajectories
//! keyed by entity (machine, cluster, WAN cluster pair, or deployment
//! site), the correlated incidents of `crate::incident`, and the
//! autoscaler's capacity timelines, and composes them in one query,
//! [`FaultPlane::disruption`], which owns every precedence rule. Both
//! halves are deterministic: entity eligibility and episode trajectories
//! derive from the master seed via labelled [`Prng`] streams and never
//! consume caller draws, so every simulation shard reconstructs identical
//! failure and controller timelines and fault-injected runs stay
//! bit-identical at any shard count (the same contract
//! `CongestionProcess` gives the network layer).
//!
//! The scenario also carries the *client-side response* to failures: the
//! deadline-draw range and the retry/backoff/budget configuration the
//! driver's resilience loop executes. See `docs/ROBUSTNESS.md`.

use crate::control::{step_capacity, AdmissionSpec, AutoscalerSpec, ControlSpec, CONTROL_WINDOW};
use crate::incident::{IncidentPlane, IncidentSpec};
use rpclens_cluster::faults::{EpisodeParams, EpisodeProcess};
use rpclens_netsim::congestion::CongestionParams;
use rpclens_netsim::topology::Topology;
use rpclens_rpcstack::deadline::DeadlinePolicy;
use rpclens_rpcstack::error::ErrorProfile;
use rpclens_rpcstack::retry::BackoffPolicy;
use rpclens_simcore::rng::Prng;
use rpclens_simcore::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// One failure source: which fraction of entities it can strike, and the
/// episode process governing each eligible entity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeSpec {
    /// Fraction of entities eligible for this failure source (the
    /// eligibility draw is deterministic per entity).
    pub eligible: f64,
    /// Episode process parameters for each eligible entity.
    pub params: EpisodeParams,
}

/// WAN partition source: eligible cluster pairs alternate between full
/// blackouts (targets unreachable) and brownouts (excess wire latency).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionSpec {
    /// Pair eligibility and episode process.
    pub episodes: EpisodeSpec,
    /// Excess one-way latency added during a brownout episode.
    pub brownout_excess: SimDuration,
}

impl PartitionSpec {
    /// Derives the brownout excess from the WAN congestion process
    /// instead of picking a fixed number: a brownout pins the path in
    /// its busy (congested) state, so each crossing gains the busy-state
    /// mean excess (`CongestionParams::congested_mean_excess_secs`)
    /// weighted by the residence the pin *adds* over the path's normal
    /// duty cycle, times the scenario's severity factor. At severity 2
    /// this lands within a millisecond of the old fixed 30 ms, but now
    /// tracks the congestion model if its parameters move.
    pub fn wan_derived(episodes: EpisodeSpec, severity: f64) -> Self {
        let wan = CongestionParams::wan();
        let added_residence = 1.0 - wan.congested_duty_cycle();
        let excess = wan.congested_mean_excess_secs() * added_residence * severity;
        PartitionSpec {
            episodes,
            brownout_excess: SimDuration::from_secs_f64(excess),
        }
    }
}

/// CPU-overload source: eligible deployment sites see their ambient
/// utilization surge, and queue waits beyond the shed threshold are
/// rejected with `NoResource` (load shedding).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadSpec {
    /// Site eligibility and surge episode process.
    pub episodes: EpisodeSpec,
    /// Multiplier applied to the site's ambient utilization during a
    /// surge (the result is clamped below saturation).
    pub util_factor: f64,
    /// Queue waits above this threshold are load-shed while surging.
    pub shed_wait: SimDuration,
}

/// Deadline behaviour: roots draw a log-uniform deadline budget and
/// children inherit the remainder per [`DeadlinePolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineSpec {
    /// Smallest root budget drawn.
    pub min_budget: SimDuration,
    /// Largest root budget drawn.
    pub max_budget: SimDuration,
    /// Propagation policy (hop margin, fail-fast floor).
    pub policy: DeadlinePolicy,
    /// Draw each root's budget from its entry method's *own* latency
    /// quantiles instead of the one global log-uniform range: the band
    /// is `[q50 × lo, q99 × hi]` of the method's compute distribution,
    /// with per-service-family headroom multipliers (latency-sensitive
    /// families get tight budgets, batch families loose ones), clamped
    /// to `[min_budget, max_budget]`. Still exactly one draw per root.
    pub per_family: bool,
}

/// Client retry behaviour: jittered exponential backoff gated by a
/// per-trace token-bucket `RetryBudget`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrySpec {
    /// Backoff policy (base, multiplier, cap, max attempts).
    pub backoff: BackoffPolicy,
    /// Tokens earned per successful call (`RetryBudget` ratio).
    pub budget_ratio: f64,
    /// Burst capacity of the per-trace budget (`RetryBudget` cap).
    pub budget_cap: f64,
}

/// A named fault scenario: which failure sources run and how clients
/// respond. `FaultScenario::none()` disables everything and is the
/// default — under it the driver's draw sequence is byte-identical to a
/// build without the fault plane, preserving the golden manifest digest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultScenario {
    /// Preset name (recorded in the run manifest).
    pub name: &'static str,
    /// Machine crash/restart churn (tasks `Unavailable` while down).
    pub machine_crash: Option<EpisodeSpec>,
    /// Whole-cluster drains (every site in the cluster `Unavailable`).
    pub cluster_drain: Option<EpisodeSpec>,
    /// WAN partitions/brownouts per cluster pair.
    pub wan_partition: Option<PartitionSpec>,
    /// CPU-overload surges with load shedding.
    pub overload: Option<OverloadSpec>,
    /// Root deadline draws and propagation.
    pub deadlines: Option<DeadlineSpec>,
    /// Client retries with budget and failover.
    pub retry: Option<RetrySpec>,
    /// Correlated cross-entity incidents (`crate::incident`): cluster
    /// drains surging their placement neighbours, region-pair WAN cuts,
    /// regional overload fronts.
    pub incidents: Option<IncidentSpec>,
    /// Closed-loop controllers (`crate::control`): autoscaler,
    /// load-balancer weight shift, bounded admission queues.
    pub control: Option<ControlSpec>,
}

impl FaultScenario {
    /// Every preset name accepted by [`FaultScenario::by_name`].
    pub const PRESETS: [&'static str; 6] = [
        "none",
        "chaos-smoke",
        "partition",
        "overload-collapse",
        "incident-smoke",
        "incident-open-loop",
    ];

    /// No faults at all; the pre-fault-plane simulator, bit for bit.
    pub fn none() -> Self {
        FaultScenario {
            name: "none",
            machine_crash: None,
            cluster_drain: None,
            wan_partition: None,
            overload: None,
            deadlines: None,
            retry: None,
            incidents: None,
            control: None,
        }
    }

    /// A little of everything, tuned so the aggregate error taxonomy
    /// still reconciles with Fig. 23 (cancellations lead, total error
    /// rate near 2%): rare machine crashes, an occasional cluster drain,
    /// WAN partition/brownout episodes, mild overload surges, drawn
    /// deadlines, and budgeted retries with failover.
    pub fn chaos_smoke() -> Self {
        FaultScenario {
            name: "chaos-smoke",
            machine_crash: Some(EpisodeSpec {
                eligible: 0.30,
                params: EpisodeParams {
                    up_mean: SimDuration::from_hours(6),
                    down_mean: SimDuration::from_secs(300),
                },
            }),
            cluster_drain: Some(EpisodeSpec {
                eligible: 0.10,
                params: EpisodeParams {
                    up_mean: SimDuration::from_hours(12),
                    down_mean: SimDuration::from_secs(900),
                },
            }),
            // Brownout severity 2x the WAN busy-state mean excess —
            // within a millisecond of the old fixed 30 ms, but derived.
            wan_partition: Some(PartitionSpec::wan_derived(
                EpisodeSpec {
                    eligible: 0.20,
                    params: EpisodeParams {
                        up_mean: SimDuration::from_hours(4),
                        down_mean: SimDuration::from_secs(180),
                    },
                },
                2.0,
            )),
            overload: Some(OverloadSpec {
                episodes: EpisodeSpec {
                    eligible: 0.10,
                    params: EpisodeParams {
                        up_mean: SimDuration::from_hours(6),
                        down_mean: SimDuration::from_secs(600),
                    },
                },
                util_factor: 1.6,
                shed_wait: SimDuration::from_millis(30),
            }),
            deadlines: Some(DeadlineSpec {
                min_budget: SimDuration::from_millis(250),
                max_budget: SimDuration::from_secs(30),
                policy: DeadlinePolicy::default(),
                per_family: true,
            }),
            retry: Some(RetrySpec {
                backoff: BackoffPolicy::default(),
                budget_ratio: 0.2,
                budget_cap: 2.0,
            }),
            incidents: None,
            control: None,
        }
    }

    /// WAN-focused scenario: frequent partition/brownout episodes across
    /// many cluster pairs, with deadlines and budgeted retries but no
    /// machine churn or overload.
    pub fn partition() -> Self {
        FaultScenario {
            name: "partition",
            machine_crash: None,
            cluster_drain: None,
            // Severity 4x: a WAN-stress scenario browns out at about
            // twice the balanced chaos preset's derived excess.
            wan_partition: Some(PartitionSpec::wan_derived(
                EpisodeSpec {
                    eligible: 0.60,
                    params: EpisodeParams {
                        up_mean: SimDuration::from_secs(5_400),
                        down_mean: SimDuration::from_secs(240),
                    },
                },
                4.0,
            )),
            overload: None,
            deadlines: Some(DeadlineSpec {
                min_budget: SimDuration::from_millis(50),
                max_budget: SimDuration::from_secs(5),
                policy: DeadlinePolicy::default(),
                per_family: false,
            }),
            retry: Some(RetrySpec {
                backoff: BackoffPolicy::default(),
                budget_ratio: 0.2,
                budget_cap: 2.0,
            }),
            incidents: None,
            control: None,
        }
    }

    /// The metastable-overload / retry-storm scenario: long, widespread
    /// CPU surges with aggressive load shedding. The tight per-trace
    /// retry budget (ratio 0.1, burst 1) is what keeps the retry storm
    /// clamped — the `retry-storm` detector verifies the amplification
    /// stays below the configured ratio.
    pub fn overload_collapse() -> Self {
        FaultScenario {
            name: "overload-collapse",
            machine_crash: None,
            cluster_drain: None,
            wan_partition: None,
            overload: Some(OverloadSpec {
                episodes: EpisodeSpec {
                    eligible: 0.50,
                    params: EpisodeParams {
                        up_mean: SimDuration::from_hours(2),
                        down_mean: SimDuration::from_secs(1_800),
                    },
                },
                util_factor: 2.2,
                shed_wait: SimDuration::from_millis(15),
            }),
            deadlines: Some(DeadlineSpec {
                min_budget: SimDuration::from_millis(50),
                max_budget: SimDuration::from_secs(10),
                policy: DeadlinePolicy::default(),
                per_family: false,
            }),
            retry: Some(RetrySpec {
                backoff: BackoffPolicy::default(),
                budget_ratio: 0.1,
                budget_cap: 1.0,
            }),
            incidents: None,
            control: None,
        }
    }

    /// The correlated-incident scenario with the fleet fighting back:
    /// cluster drains that surge their same-region neighbours, region-
    /// pair WAN cuts, and regional overload fronts, against an
    /// autoscaler, load-balancer weight shifts, and bounded admission
    /// queues. The digest-pinned companion to `chaos-smoke` for the
    /// incident layer (the `incident-smoke` row of crates/bench/DIGESTS).
    pub fn incident_smoke() -> Self {
        FaultScenario {
            name: "incident-smoke",
            machine_crash: None,
            cluster_drain: None,
            wan_partition: None,
            overload: None,
            deadlines: Some(DeadlineSpec {
                min_budget: SimDuration::from_millis(50),
                max_budget: SimDuration::from_secs(10),
                policy: DeadlinePolicy::default(),
                per_family: true,
            }),
            retry: Some(RetrySpec {
                backoff: BackoffPolicy::default(),
                budget_ratio: 0.2,
                budget_cap: 2.0,
            }),
            incidents: Some(IncidentSpec {
                drain: Some(EpisodeSpec {
                    eligible: 0.30,
                    params: EpisodeParams {
                        up_mean: SimDuration::from_hours(8),
                        down_mean: SimDuration::from_secs(2_700),
                    },
                }),
                surge_factor: 1.8,
                wan_cut: Some(PartitionSpec::wan_derived(
                    EpisodeSpec {
                        eligible: 0.60,
                        params: EpisodeParams {
                            up_mean: SimDuration::from_hours(6),
                            down_mean: SimDuration::from_secs(1_800),
                        },
                    },
                    2.0,
                )),
                front: Some(OverloadSpec {
                    episodes: EpisodeSpec {
                        eligible: 0.75,
                        params: EpisodeParams {
                            up_mean: SimDuration::from_hours(5),
                            down_mean: SimDuration::from_hours(2),
                        },
                    },
                    util_factor: 2.0,
                    shed_wait: SimDuration::from_millis(15),
                }),
            }),
            control: Some(ControlSpec {
                autoscaler: Some(AutoscalerSpec {
                    sustain_windows: 2,
                    step: 0.25,
                    max_factor: 2.5,
                }),
                lb_shift: true,
                admission: Some(AdmissionSpec {
                    shed_wait: SimDuration::from_millis(15),
                    abandon_wait: SimDuration::from_millis(60),
                    util_cap: 0.96,
                }),
            }),
        }
    }

    /// The same incident schedule as [`FaultScenario::incident_smoke`]
    /// with every controller disabled — the open-loop baseline the
    /// closed- vs open-loop comparison (and `docs/ROBUSTNESS.md`'s
    /// table) measures against. Incident trajectories depend only on
    /// `(seed, incident spec)`, so the two scenarios see bit-identical
    /// incident timelines.
    pub fn incident_open_loop() -> Self {
        FaultScenario {
            name: "incident-open-loop",
            control: None,
            ..Self::incident_smoke()
        }
    }

    /// Resolves a preset by name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "none" => Some(Self::none()),
            "chaos-smoke" => Some(Self::chaos_smoke()),
            "partition" => Some(Self::partition()),
            "overload-collapse" => Some(Self::overload_collapse()),
            "incident-smoke" => Some(Self::incident_smoke()),
            "incident-open-loop" => Some(Self::incident_open_loop()),
            _ => None,
        }
    }

    /// Whether this scenario is expected to reconcile with the paper's
    /// Fig. 23 error taxonomy. Only the balanced default chaos preset
    /// makes that promise; `partition` and `overload-collapse` are
    /// stress scenarios whose taxonomies *intentionally* deviate (that
    /// deviation is what their detectors exist to flag), so gating them
    /// on paper-shape reconciliation would be a category error.
    pub fn reconciles_taxonomy(&self) -> bool {
        self.name == "chaos-smoke"
    }

    /// Whether any causal failure source is active.
    pub fn injects_faults(&self) -> bool {
        self.machine_crash.is_some()
            || self.cluster_drain.is_some()
            || self.wan_partition.is_some()
            || self.overload.is_some()
            || self.deadlines.is_some()
            || self.incidents.is_some_and(|i| i.strikes())
    }

    /// The static error profile this scenario runs with: the full fleet
    /// default when no causal source is active, otherwise only the
    /// residual semantic classes (the mechanical classes — cancellation,
    /// deadline expiry, unavailability, resource exhaustion — are
    /// produced causally by the driver instead of drawn from a table).
    pub fn error_profile(&self) -> ErrorProfile {
        if self.injects_faults() {
            ErrorProfile::residual_default()
        } else {
            ErrorProfile::fleet_default()
        }
    }
}

impl Default for FaultScenario {
    fn default() -> Self {
        Self::none()
    }
}

/// Connectivity of one WAN cluster pair at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionState {
    /// Normal connectivity.
    Connected,
    /// Degraded: messages pass but carry excess latency.
    Brownout,
    /// Partitioned: targets across the pair are unreachable.
    Blackout,
}

impl PartitionState {
    /// Classifies the episode active on a partition process, if any.
    /// Episodes alternate blackout/brownout on their ordinal, so no
    /// generator draw is spent classifying them.
    pub(crate) fn of_episode(episode: Option<u64>) -> Self {
        match episode {
            Some(e) if e % 2 == 0 => PartitionState::Blackout,
            Some(_) => PartitionState::Brownout,
            None => PartitionState::Connected,
        }
    }
}

/// What one call meets at its server: the answer of
/// [`FaultPlane::disruption`], with every precedence rule applied.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Disruption {
    /// The target is causally `Unavailable` (blackout, drain, or crash).
    pub unavailable: bool,
    /// The unavailability covers the whole cluster (a blackout or a
    /// drain), so a retry fails over to another cluster.
    pub cluster_level: bool,
    /// Excess one-way latency a brownout adds to each wire crossing.
    pub brownout: SimDuration,
    /// Effective utilization surge on the server's pool after the
    /// autoscaler's capacity; `None` when the site is not overloaded.
    pub overload: Option<f64>,
    /// Ambient shedding threshold: queue waits past it are shed. Set
    /// only while overloaded with no admission queue.
    pub shed_wait: Option<SimDuration>,
    /// The bounded admission queue that decides the call. Set only
    /// while overloaded.
    pub admission: Option<AdmissionSpec>,
}

/// Stream labels separating the plane's generator domains from every
/// other consumer of the master seed (the driver uses `0xD21_4E12`, sites
/// use `0x5173_0000`, …). Each entity derives its eligibility gate and
/// its trajectory from *different* labels so the gate draw never shifts
/// the trajectory.
const CRASH_LABEL: u64 = 0xFA17_0001;
const DRAIN_LABEL: u64 = 0xFA17_0002;
const PARTITION_LABEL: u64 = 0xFA17_0003;
const OVERLOAD_LABEL: u64 = 0xFA17_0004;
const GATE_LABEL: u64 = 0xFA17_00FF;

/// The per-shard materialisation of a [`FaultScenario`]: per-entity
/// episodes, at most one correlated incident plane (`crate::incident`,
/// built only here), and the autoscaler's capacity timelines.
///
/// Episode processes and capacity timelines are built lazily the first
/// time an entity is queried; construction reads only `(master seed,
/// entity key)`, so two planes over the same scenario and seed answer
/// identically regardless of query order — the property the
/// `plane_answers_are_independent_of_query_order` test pins. Queries
/// never consume caller draws.
#[derive(Debug)]
pub struct FaultPlane {
    scenario: FaultScenario,
    seed: u64,
    crash: HashMap<u64, Option<EpisodeProcess>>,
    drain: HashMap<u16, Option<EpisodeProcess>>,
    partition: HashMap<u32, Option<EpisodeProcess>>,
    overload: HashMap<u32, Option<EpisodeProcess>>,
    incidents: Option<IncidentPlane>,
    capacity: HashMap<u16, CapacityTimeline>,
}

/// Per-cluster autoscaler state: the capacity factor of every control
/// window evaluated so far, extended lazily and deterministically.
#[derive(Debug, Default)]
struct CapacityTimeline {
    factors: Vec<f64>,
    streak: u32,
}

/// Lazily builds (or fetches) the episode process for one entity.
/// Ineligible entities are remembered as `None` so the gate draw happens
/// exactly once per entity. Shared with the incident plane
/// (`crate::incident`), whose generator domains are disjoint from the
/// per-entity fault labels above.
pub(crate) fn lazy_episode<'a, K: std::hash::Hash + Eq + Copy + Into<u64>>(
    map: &'a mut HashMap<K, Option<EpisodeProcess>>,
    key: K,
    domain: u64,
    seed: u64,
    spec: &EpisodeSpec,
) -> Option<&'a mut EpisodeProcess> {
    map.entry(key)
        .or_insert_with(|| {
            let key_bits = key.into();
            let mut gate = Prng::seed_from(seed)
                .stream(GATE_LABEL ^ domain)
                .stream(key_bits);
            if gate.next_f64() < spec.eligible {
                Some(EpisodeProcess::new(
                    spec.params,
                    Prng::seed_from(seed).stream(domain).stream(key_bits),
                ))
            } else {
                None
            }
        })
        .as_mut()
}

impl FaultPlane {
    /// Materialises a scenario against the master seed and the fleet
    /// topology (whose cluster→region map scopes the correlated
    /// incidents). Returns `None` when the scenario injects no causal
    /// faults — controllers then have nothing to react to — so the
    /// driver's hot path gates on plane presence alone.
    pub fn new(scenario: &FaultScenario, seed: u64, topology: &Topology) -> Option<Self> {
        scenario.injects_faults().then(|| FaultPlane {
            scenario: *scenario,
            seed,
            crash: HashMap::new(),
            drain: HashMap::new(),
            partition: HashMap::new(),
            overload: HashMap::new(),
            incidents: scenario.incidents.as_ref().and_then(|spec| {
                IncidentPlane::new(
                    spec,
                    seed,
                    topology.clusters().map(|c| c.region.0).collect(),
                )
            }),
            capacity: HashMap::new(),
        })
    }

    /// What a call from `client` to the task of `service` on machine
    /// `machine` of `server` meets at `now`; `wan` is the caller's path
    /// class for the pair. The one place the scenario's sources combine:
    ///
    /// - **Reachability**: a blackout from either plane beats any
    ///   brownout and is cluster-level — an incident blackout also turns
    ///   a machine crash into a cluster-level failure. When both planes
    ///   brown the path out, the larger excess applies.
    /// - **Drains**: a cluster is drained (a cluster-level failure) when
    ///   either plane drains it; an incident drain leaves a machine crash
    ///   the per-entity sources already found machine-level.
    /// - **Overload**: surge sources never stack — the strongest of the
    ///   per-site surge, the regional front and the neighbour surge
    ///   applies (each is already an absolute utilization multiplier).
    ///   The autoscaler's capacity divides it; an effective factor at or
    ///   below 1 is no overload at all.
    /// - **Shedding**: while overloaded, an admission queue decides the
    ///   call; without one, waits past the per-site surge's shed
    ///   threshold are shed, else past the regional front's.
    pub fn disruption(
        &mut self,
        service: u16,
        client: u16,
        server: u16,
        machine: usize,
        wan: bool,
        now: SimTime,
    ) -> Disruption {
        use PartitionState::{Blackout, Brownout};
        let mut d = Disruption::default();
        let cut = self.partition_state(client, server, wan, now);
        d.cluster_level = cut == Blackout || self.cluster_drained(server, now);
        d.unavailable = d.cluster_level || self.machine_crashed(service, server, machine, now);
        if let (Brownout, Some(spec)) = (cut, self.scenario.wan_partition) {
            d.brownout = spec.brownout_excess;
        }
        let mut overload = self.overload_factor(service, server, now);
        if let Some(incidents) = self.incidents.as_mut() {
            let cut = incidents.partition_state(client, server, now);
            if cut == Blackout || (!d.unavailable && incidents.cluster_drained(server, now)) {
                d.unavailable = true;
                d.cluster_level = true;
            }
            if let (Brownout, Some(spec)) = (cut, self.scenario.incidents.and_then(|i| i.wan_cut)) {
                d.brownout = d.brownout.max(spec.brownout_excess);
            }
            if let Some(f) = incidents.overload_factor(server, now) {
                overload = Some(overload.map_or(f, |g| g.max(f)));
            }
        }
        if let (Some(f), Some(_)) = (overload, self.scenario.control) {
            overload = Some(f / self.capacity_factor(server, now)).filter(|&f| f > 1.0);
        }
        d.overload = overload;
        d.admission = overload
            .and(self.scenario.control)
            .and_then(|c| c.admission);
        if overload.is_some() && d.admission.is_none() {
            let front = self.scenario.incidents.and_then(|i| i.front);
            d.shed_wait = self.scenario.overload.or(front).map(|spec| spec.shed_wait);
        }
        d
    }

    /// Whether the load balancer steers away from the `client`–`server`
    /// path during the control window containing `now`: the weight-shift
    /// controller runs and the path's region pair was cut or browned out
    /// at the window's opening boundary. Queried before the machine draw,
    /// so it stays apart from [`FaultPlane::disruption`].
    pub fn lb_avoids(&mut self, client: u16, server: u16, now: SimTime) -> bool {
        let lb_shift = self.scenario.control.is_some_and(|c| c.lb_shift);
        let Some(incidents) = self.incidents.as_mut().filter(|_| lb_shift) else {
            return false;
        };
        let window = CONTROL_WINDOW.as_nanos();
        let boundary = SimTime::from_nanos(now.as_nanos() / window * window);
        incidents.partition_state(client, server, boundary) != PartitionState::Connected
    }

    /// The autoscaler's capacity factor for `cluster` during the control
    /// window containing `now` (1.0 without an autoscaler or incidents to
    /// react to). Window `w`'s factor folds the incident overload
    /// condition at boundaries `0..=w`, so it is identical in every shard
    /// regardless of query order.
    pub fn capacity_factor(&mut self, cluster: u16, now: SimTime) -> f64 {
        let (Some(spec), Some(incidents)) = (
            self.scenario.control.and_then(|c| c.autoscaler),
            self.incidents.as_mut(),
        ) else {
            return 1.0;
        };
        let window = CONTROL_WINDOW.as_nanos();
        let w = (now.as_nanos() / window) as usize;
        let timeline = self.capacity.entry(cluster).or_default();
        while timeline.factors.len() <= w {
            let boundary = SimTime::from_nanos(timeline.factors.len() as u64 * window);
            let overloaded = incidents.overload_factor(cluster, boundary).is_some();
            timeline.streak = if overloaded { timeline.streak + 1 } else { 0 };
            let prev = timeline.factors.last().copied().unwrap_or(1.0);
            timeline
                .factors
                .push(step_capacity(&spec, prev, timeline.streak));
        }
        timeline.factors[w]
    }

    /// Boundary-sampled incident activity over `[0, duration)`: one
    /// `(kind, entities struck, distinct episodes)` row per configured
    /// incident kind (none without incidents).
    pub fn incident_summary(&mut self, duration: SimDuration) -> Vec<(String, u64, u64)> {
        self.incidents
            .as_mut()
            .map_or_else(Vec::new, |incidents| incidents.summary(duration))
    }

    /// Autoscaler activity over `[0, duration)`: `(cluster-windows above
    /// baseline capacity, peak capacity factor in permille)`. Evaluates
    /// every cluster's timeline to the end of the run.
    pub fn autoscaler_activity(&mut self, n_clusters: u16, duration: SimDuration) -> (u64, u64) {
        let end = SimTime::from_nanos(duration.as_nanos().saturating_sub(1));
        let mut scaled_windows = 0u64;
        let mut peak = 1.0f64;
        for c in 0..n_clusters {
            self.capacity_factor(c, end);
            if let Some(t) = self.capacity.get(&c) {
                scaled_windows += t.factors.iter().filter(|&&f| f > 1.0).count() as u64;
                peak = t.factors.iter().copied().fold(peak, f64::max);
            }
        }
        (scaled_windows, (peak * 1000.0).round() as u64)
    }

    /// Renders the controller timeline: one line per control window with
    /// the clusters holding added capacity and the degraded region pairs
    /// the balancer avoids. Windows with no controller activity are
    /// elided.
    pub fn render_timeline(&mut self, n_clusters: u16, duration: SimDuration) -> String {
        use std::fmt::Write as _;
        let window = CONTROL_WINDOW.as_nanos();
        let windows = (duration.as_nanos() / window) as usize;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "controller timeline ({} windows of {:.0} s):",
            windows,
            CONTROL_WINDOW.as_secs_f64()
        );
        let mut active_windows = 0usize;
        for w in 0..windows {
            let start = SimTime::from_nanos(w as u64 * window);
            let caps: Vec<String> = (0..n_clusters)
                .map(|c| (c, self.capacity_factor(c, start)))
                .filter(|&(_, f)| f > 1.0)
                .map(|(c, f)| format!("c{c}x{f:.2}"))
                .collect();
            let degraded: Vec<String> = (0..n_clusters)
                .flat_map(|a| (a + 1..n_clusters).map(move |b| (a, b)))
                .filter(|&(a, b)| self.lb_avoids(a, b, start))
                .map(|(a, b)| format!("{a}-{b}"))
                .collect();
            if caps.is_empty() && degraded.is_empty() {
                continue;
            }
            active_windows += 1;
            let _ = write!(out, "  w{w:>3}:");
            if !caps.is_empty() {
                let _ = write!(out, " capacity[{}]", caps.join(" "));
            }
            if !degraded.is_empty() {
                // Degraded pairs are region-keyed; report the count and
                // the first few cluster pairs as representatives.
                let first = degraded[..degraded.len().min(4)].join(" ");
                let _ = write!(out, " avoid[{} pairs: {first}…]", degraded.len());
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "  {active_windows} windows with controller activity");
        out
    }

    /// Whether the task of `service` on machine `machine` of `cluster` is
    /// inside a crash/restart episode at `now`.
    fn machine_crashed(
        &mut self,
        service: u16,
        cluster: u16,
        machine: usize,
        now: SimTime,
    ) -> bool {
        let Some(spec) = self.scenario.machine_crash else {
            return false;
        };
        let key = ((service as u64) << 24) | ((cluster as u64) << 8) | machine as u64;
        lazy_episode(&mut self.crash, key, CRASH_LABEL, self.seed, &spec)
            .is_some_and(|p| p.active_at(now))
    }

    /// Whether `cluster` is being drained at `now`.
    fn cluster_drained(&mut self, cluster: u16, now: SimTime) -> bool {
        let Some(spec) = self.scenario.cluster_drain else {
            return false;
        };
        lazy_episode(&mut self.drain, cluster, DRAIN_LABEL, self.seed, &spec)
            .is_some_and(|p| p.active_at(now))
    }

    /// Connectivity of the (unordered) cluster pair `a`–`b` at `now`.
    /// `wan` is the caller-computed path classification; non-WAN pairs
    /// never partition.
    fn partition_state(&mut self, a: u16, b: u16, wan: bool, now: SimTime) -> PartitionState {
        let Some(spec) = self.scenario.wan_partition.filter(|_| wan && a != b) else {
            return PartitionState::Connected;
        };
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let key = ((lo as u32) << 16) | hi as u32;
        PartitionState::of_episode(
            lazy_episode(
                &mut self.partition,
                key,
                PARTITION_LABEL,
                self.seed,
                &spec.episodes,
            )
            .and_then(|p| p.active_episode(now)),
        )
    }

    /// The utilization surge multiplier for the deployment site of
    /// `service` in `cluster` at `now`, or `None` outside any surge.
    fn overload_factor(&mut self, service: u16, cluster: u16, now: SimTime) -> Option<f64> {
        let spec = self.scenario.overload?;
        let key = ((service as u32) << 16) | cluster as u32;
        lazy_episode(
            &mut self.overload,
            key,
            OVERLOAD_LABEL,
            self.seed,
            &spec.episodes,
        )
        .is_some_and(|p| p.active_at(now))
        .then_some(spec.util_factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpclens_netsim::topology::ClusterId;

    fn topology() -> Topology {
        Topology::default_world(7)
    }

    fn plane_for(scenario: &FaultScenario) -> FaultPlane {
        FaultPlane::new(scenario, 7, &topology()).expect("scenario injects faults")
    }

    /// Chaos-smoke's per-entity sources under incident-smoke's incidents
    /// and controllers: no preset runs both planes, so this is the
    /// scenario every cross-plane query is tested on.
    fn combined() -> FaultScenario {
        let incident = FaultScenario::incident_smoke();
        FaultScenario {
            incidents: incident.incidents,
            control: incident.control,
            ..FaultScenario::chaos_smoke()
        }
    }

    /// One call of the cross-plane test grid:
    /// `(instant, service, client, server, machine, wan)`.
    type Call = (SimTime, u16, u16, u16, usize, bool);

    /// A day at 43 s steps, 64 services spread over cluster pairs.
    fn grid(topology: &Topology) -> Vec<Call> {
        let n = topology.num_clusters() as u16;
        let calls = (0..2_000u64).flat_map(|i| (0..64u16).map(move |e| (i, e)));
        calls
            .map(|(i, e)| {
                let (client, server) = (e % n, (e * 7 + 3) % n);
                let wan = topology.path_class(ClusterId(client), ClusterId(server));
                let t = SimTime::from_nanos(i * 43_000_000_000);
                (t, e, client, server, (e % 3) as usize, wan.is_wan())
            })
            .collect()
    }

    #[test]
    fn presets_resolve_by_name() {
        for name in FaultScenario::PRESETS {
            let s = FaultScenario::by_name(name).expect("preset resolves");
            assert_eq!(s.name, name);
        }
        assert!(FaultScenario::by_name("bogus").is_none());
    }

    #[test]
    fn none_scenario_has_no_plane_and_full_profile() {
        let none = FaultScenario::none();
        assert!(!none.injects_faults());
        assert!(FaultPlane::new(&none, 7, &topology()).is_none());
        assert_eq!(
            none.error_profile().rates(),
            ErrorProfile::fleet_default().rates()
        );
    }

    #[test]
    fn active_scenarios_shrink_to_residual_profile() {
        for name in ["chaos-smoke", "partition", "overload-collapse"] {
            let s = FaultScenario::by_name(name).unwrap();
            assert!(s.injects_faults(), "{name}");
            assert_eq!(
                s.error_profile().rates(),
                ErrorProfile::residual_default().rates(),
                "{name}"
            );
        }
    }

    /// Every query kind of the merged plane — per-entity, controller,
    /// and the composed disruption, which folds in the incident answers
    /// — answers the same when a second plane asks in reverse order,
    /// pairs reversed too: lazy construction must not depend on which
    /// entity was touched first. `incident::tests` checks the incident
    /// plane's own answers the same way.
    #[test]
    fn plane_answers_are_independent_of_query_order() {
        let grid = grid(&topology());
        let query = |plane: &mut FaultPlane, &(t, e, a, b, m, wan): &Call, reversed: bool| {
            let (x, y) = if reversed { (b, a) } else { (a, b) };
            (
                plane.machine_crashed(e, b, m, t),
                plane.cluster_drained(b, t),
                plane.partition_state(x, y, wan, t),
                plane.overload_factor(e, b, t),
                plane.capacity_factor(b, t),
                plane.lb_avoids(x, y, t),
                plane.disruption(e, a, b, m, wan, t),
            )
        };
        let mut forward = plane_for(&combined());
        let recorded: Vec<_> = grid.iter().map(|c| query(&mut forward, c, false)).collect();
        let mut backward = plane_for(&combined());
        for (call, expect) in grid.iter().zip(&recorded).rev() {
            assert_eq!(&query(&mut backward, call, true), expect, "{call:?}");
        }
    }

    /// The composed query against each source's own answer, closed-loop
    /// (incident-smoke's controllers) and open-loop. The per-pair WAN
    /// source is the partition preset's, whose brownout excess differs
    /// from the incident cut's. Every rule must also be seen to fire.
    #[test]
    fn disruption_applies_every_precedence_rule() {
        use PartitionState::{Blackout, Brownout};
        let closed = FaultScenario {
            wan_partition: FaultScenario::partition().wan_partition,
            ..combined()
        };
        let incidents = closed.incidents.unwrap();
        let fault_excess = closed.wan_partition.unwrap().brownout_excess;
        let cut_excess = incidents.wan_cut.unwrap().brownout_excess;
        let fault_shed = closed.overload.unwrap().shed_wait;
        assert_ne!(fault_excess, cut_excess);
        assert_ne!(fault_shed, incidents.front.unwrap().shed_wait);
        let grid = grid(&topology());
        let mut fired = std::collections::BTreeMap::<&str, u32>::new();
        let open = FaultScenario {
            control: None,
            ..closed
        };
        for scenario in [closed, open] {
            let mut plane = plane_for(&scenario);
            for &(t, e, a, b, m, wan) in &grid {
                let d = plane.disruption(e, a, b, m, wan, t);
                let cut = plane.partition_state(a, b, wan, t);
                let (drain, crash) = (
                    plane.cluster_drained(b, t),
                    plane.machine_crashed(e, b, m, t),
                );
                let surge = plane.overload_factor(e, b, t);
                let inc = plane.incidents.as_mut().unwrap();
                let (inc_cut, inc_drain) =
                    (inc.partition_state(a, b, t), inc.cluster_drained(b, t));
                let inc_surge = inc.overload_factor(b, t);
                let capacity = plane.capacity_factor(b, t);
                let blackout = cut == Blackout || inc_cut == Blackout;
                let (brown, inc_brown) = (cut == Brownout, inc_cut == Brownout);
                let mut rule = |name, hit: bool| *fired.entry(name).or_default() += u32::from(hit);

                // Either plane's blackout beats a brownout and either
                // plane's drain counts, both cluster-level; an incident
                // drain leaves a crash found first machine-level.
                assert_eq!(
                    d.unavailable,
                    blackout || drain || inc_drain || crash,
                    "{t}"
                );
                assert_eq!(
                    d.cluster_level,
                    blackout || drain || (inc_drain && !crash),
                    "{t}"
                );
                rule("blackout beats brownout", blackout && (brown || inc_brown));
                rule("drain from one plane only", drain != inc_drain);
                rule(
                    "incident blackout after a crash",
                    crash && inc_cut == Blackout,
                );
                // Two brownouts take the larger excess.
                let excess = |on, e| if on { e } else { SimDuration::ZERO };
                let brownout = excess(brown, fault_excess).max(excess(inc_brown, cut_excess));
                assert_eq!(d.brownout, brownout, "{t}");
                rule("two brownouts", brown && inc_brown);
                // Overload takes the max, never the product; the
                // autoscaler divides it, and a factor <= 1 is none.
                let strongest = match (surge, inc_surge) {
                    (Some(f), Some(g)) => Some(f.max(g)),
                    (f, g) => f.or(g),
                };
                let effective = match scenario.control {
                    Some(_) => strongest.map(|f| f / capacity).filter(|&f| f > 1.0),
                    None => strongest,
                };
                assert_eq!(d.overload, effective, "{t}");
                rule("two surges", surge.is_some() && inc_surge.is_some());
                rule(
                    "absorbed by the autoscaler",
                    strongest.is_some() && effective.is_none(),
                );
                // While overloaded, admission decides; without it the
                // fault overload spec's shed wait comes first.
                let admission = effective.and(scenario.control).and_then(|c| c.admission);
                let shed_wait = effective
                    .filter(|_| admission.is_none())
                    .map(|_| fault_shed);
                assert_eq!((d.admission, d.shed_wait), (admission, shed_wait), "{t}");
                rule(
                    "incident surge sheds at the fault wait",
                    shed_wait.is_some() && surge.is_none(),
                );
            }
        }
        assert!(
            fired.values().all(|&n| n > 0),
            "a rule never fired: {fired:?}"
        );
    }

    #[test]
    fn eligibility_fraction_is_respected() {
        let mut scenario = FaultScenario::chaos_smoke();
        scenario.machine_crash = Some(EpisodeSpec {
            eligible: 1.0,
            ..scenario.machine_crash.unwrap()
        });
        let mut plane = plane_for(&scenario);
        // With eligibility 1.0 every machine eventually crashes.
        let mut saw_crash = 0;
        for m in 0..64u64 {
            for i in 0..2_000u64 {
                if plane.machine_crashed(
                    (m % 8) as u16,
                    (m / 8) as u16,
                    (m % 3) as usize,
                    SimTime::from_nanos(i * 43_000_000_000),
                ) {
                    saw_crash += 1;
                    break;
                }
            }
        }
        assert!(saw_crash > 48, "only {saw_crash}/64 machines ever crashed");

        // With eligibility 0.0…01, practically none do.
        scenario.machine_crash = Some(EpisodeSpec {
            eligible: 1e-9,
            ..scenario.machine_crash.unwrap()
        });
        let mut plane = plane_for(&scenario);
        for m in 0..64u64 {
            assert!(!plane.machine_crashed(
                (m % 8) as u16,
                (m / 8) as u16,
                (m % 3) as usize,
                SimTime::from_nanos(86_400_000_000_000)
            ));
        }
    }

    #[test]
    fn non_wan_pairs_never_partition() {
        let scenario = FaultScenario::partition();
        let mut plane = plane_for(&scenario);
        for i in 0..1_000u64 {
            let t = SimTime::from_nanos(i * 86_400_000_000);
            assert_eq!(
                plane.partition_state(3, 4, false, t),
                PartitionState::Connected
            );
            assert_eq!(
                plane.partition_state(5, 5, true, t),
                PartitionState::Connected
            );
        }
    }

    #[test]
    fn partitions_include_both_blackouts_and_brownouts() {
        let scenario = FaultScenario::partition();
        let mut plane = plane_for(&scenario);
        let mut states = std::collections::BTreeSet::new();
        for a in 0..8u16 {
            for b in 40..48u16 {
                for i in 0..5_000u64 {
                    let t = SimTime::from_nanos(i * 17_280_000_000);
                    let s = plane.partition_state(a, b, true, t);
                    states.insert(format!("{s:?}"));
                }
            }
        }
        assert!(states.contains("Blackout"), "no blackout seen: {states:?}");
        assert!(states.contains("Brownout"), "no brownout seen: {states:?}");
    }
}
