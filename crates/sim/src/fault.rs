//! Deterministic fault injection: stragglers, degraded links, failures.
//!
//! A [`FaultPlan`] describes *what goes wrong* during a training run —
//! straggler devices computing slower than their peers, links flapping to a
//! fraction of their bandwidth, and transient device failures that force a
//! restart from the last checkpoint. Plans are seeded: materializing one is
//! a pure function of the seed, so the same plan produces bit-identical
//! simulated timelines on any platform and at any worker-pool size, and a
//! plan with no seed injects nothing at all (the no-fault path through the
//! executor is byte-identical to a fault-free simulator).
//!
//! Randomness comes from [`SplitMix64`] — a tiny std-only generator with
//! pinned outputs, so fault schedules never depend on a platform RNG.

use amped_core::FailureDomainTree;
use serde::{Deserialize, Serialize};

use crate::graph::{LinkClass, TaskKind};

/// The splitmix64 generator (Steele, Lea & Flood 2014): one 64-bit state,
/// full period, passes BigCrush. Used for every random draw in fault
/// injection so schedules are reproducible across platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// An exponential variate with the given mean (inverse-CDF sampling;
    /// `1 - u` keeps the argument of `ln` in `(0, 1]`).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }
}

/// One device computing slower than its peers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Straggler {
    /// Device index in the DP × PP grid.
    pub device: usize,
    /// Compute-duration multiplier (`1.5` = 50% slower; must be ≥ 1).
    pub slowdown: f64,
}

/// One link running degraded for a window of the iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFault {
    /// Sending device whose port degrades.
    pub device: usize,
    /// Which link class of that device is affected.
    pub link: LinkClass,
    /// Transfer-duration multiplier while the window is open (must be ≥ 1).
    pub factor: f64,
    /// Window start, seconds into the iteration.
    pub from_s: f64,
    /// Window end, seconds into the iteration (`f64::INFINITY` = for good).
    pub until_s: f64,
}

/// What goes wrong during a run, and how the run defends itself.
///
/// The plan stays inert until it is given a seed: [`FaultPlan::is_active`]
/// gates every injection site, so `FaultPlan::default()` (seed `None`)
/// leaves the simulator bit-identical to one that never heard of faults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Master seed; `None` disables all injection.
    pub seed: Option<u64>,
    /// Number of devices to pick (seeded-uniformly) as stragglers.
    #[serde(default)]
    pub random_stragglers: usize,
    /// Slowdown applied to randomly picked stragglers.
    #[serde(default = "default_straggler_slowdown")]
    pub straggler_slowdown: f64,
    /// Explicitly placed stragglers (applied before random picks).
    #[serde(default)]
    pub stragglers: Vec<Straggler>,
    /// Degraded/flapping link windows.
    #[serde(default)]
    pub link_faults: Vec<LinkFault>,
    /// Mean time between failures of one device, seconds. `None` = no
    /// transient failures.
    pub device_mtbf_s: Option<f64>,
    /// Seconds from a failure to resumed training (not counting rework).
    #[serde(default)]
    pub restart_s: f64,
    /// Checkpoint interval in seconds of useful work; `None` resolves to
    /// the Young/Daly optimum for the measured checkpoint cost.
    pub ckpt_interval_s: Option<f64>,
    /// Bandwidth at which checkpoint state drains to stable storage,
    /// bytes/s (per device).
    #[serde(default = "default_ckpt_write_bw")]
    pub ckpt_write_bytes_per_s: f64,
    /// Failure-domain hierarchy for correlated outages (rack/pod tiers).
    /// `None` = no correlated events at all.
    #[serde(default)]
    pub domain_tree: Option<FailureDomainTree>,
    /// Mean time between spot preemptions of one node, seconds. Requires
    /// a domain tree (for the node count); `None` = no preemptions.
    #[serde(default)]
    pub preemption_mtbf_s: Option<f64>,
    /// Seconds for lost capacity to regrow after a survivable outage.
    /// `Some` enables elastic shrink/regrow: outages whose blast radius
    /// leaves at least one DP replica intact shrink the run instead of
    /// killing it. `None` = every outage restarts from the checkpoint.
    #[serde(default)]
    pub regrow_delay_s: Option<f64>,
}

fn default_straggler_slowdown() -> f64 {
    1.5
}

fn default_ckpt_write_bw() -> f64 {
    2e9
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: None,
            random_stragglers: 0,
            straggler_slowdown: 1.5,
            stragglers: Vec::new(),
            link_faults: Vec::new(),
            device_mtbf_s: None,
            restart_s: 0.0,
            ckpt_interval_s: None,
            ckpt_write_bytes_per_s: 2e9,
            domain_tree: None,
            preemption_mtbf_s: None,
            regrow_delay_s: None,
        }
    }
}

impl FaultPlan {
    /// An inert plan (no seed, nothing injected).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An active plan with the given master seed and no faults configured
    /// yet.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed: Some(seed),
            ..FaultPlan::default()
        }
    }

    /// Whether the plan injects anything at all.
    pub fn is_active(&self) -> bool {
        self.seed.is_some()
    }

    /// Pick `count` distinct devices as stragglers at `slowdown`.
    pub fn with_random_stragglers(mut self, count: usize, slowdown: f64) -> Self {
        self.random_stragglers = count;
        self.straggler_slowdown = slowdown;
        self
    }

    /// Pin a specific device as a straggler.
    pub fn with_straggler(mut self, device: usize, slowdown: f64) -> Self {
        self.stragglers.push(Straggler { device, slowdown });
        self
    }

    /// Add a degraded-link window.
    pub fn with_link_fault(mut self, fault: LinkFault) -> Self {
        self.link_faults.push(fault);
        self
    }

    /// Enable transient device failures at the given per-device MTBF.
    pub fn with_device_mtbf(mut self, seconds: f64) -> Self {
        self.device_mtbf_s = Some(seconds);
        self
    }

    /// Set the restart cost after a failure.
    pub fn with_restart(mut self, seconds: f64) -> Self {
        self.restart_s = seconds;
        self
    }

    /// Fix the checkpoint interval instead of using Young/Daly.
    pub fn with_ckpt_interval(mut self, seconds: f64) -> Self {
        self.ckpt_interval_s = Some(seconds);
        self
    }

    /// Set the checkpoint write bandwidth in bytes/s per device.
    pub fn with_ckpt_write_bw(mut self, bytes_per_s: f64) -> Self {
        self.ckpt_write_bytes_per_s = bytes_per_s;
        self
    }

    /// Attach a failure-domain tree: rack/pod tiers with an outage rate
    /// start injecting correlated [`DomainEvent`]s.
    pub fn with_domain_tree(mut self, tree: FailureDomainTree) -> Self {
        self.domain_tree = Some(tree);
        self
    }

    /// Enable spot preemptions at the given per-node MTBF (needs a domain
    /// tree for the node count).
    pub fn with_preemption(mut self, mtbf_s: f64) -> Self {
        self.preemption_mtbf_s = Some(mtbf_s);
        self
    }

    /// Enable elastic shrink/regrow with the given capacity-regrow delay.
    pub fn with_regrow(mut self, delay_s: f64) -> Self {
        self.regrow_delay_s = Some(delay_s);
        self
    }

    /// Check every field.
    ///
    /// # Errors
    ///
    /// Returns [`amped_core::Error::InvalidConfig`] naming the offending
    /// field.
    pub fn validate(&self) -> amped_core::Result<()> {
        let bad = |reason: String| Err(amped_core::Error::invalid("fault-plan", reason));
        for s in &self.stragglers {
            if !(s.slowdown >= 1.0 && s.slowdown.is_finite()) {
                return bad(format!("straggler slowdown must be >= 1, got {}", s.slowdown));
            }
        }
        if self.random_stragglers > 0
            && !(self.straggler_slowdown >= 1.0 && self.straggler_slowdown.is_finite())
        {
            return bad(format!(
                "straggler slowdown must be >= 1, got {}",
                self.straggler_slowdown
            ));
        }
        for l in &self.link_faults {
            if !(l.factor >= 1.0 && l.factor.is_finite()) {
                return bad(format!("link fault factor must be >= 1, got {}", l.factor));
            }
            if !(l.from_s >= 0.0 && l.from_s.is_finite()) || l.until_s < l.from_s {
                return bad(format!(
                    "link fault window [{}, {}) is malformed",
                    l.from_s, l.until_s
                ));
            }
        }
        if let Some(m) = self.device_mtbf_s {
            if !(m > 0.0 && m.is_finite()) {
                return bad(format!("device mtbf must be positive, got {m}"));
            }
        }
        if !(self.restart_s >= 0.0 && self.restart_s.is_finite()) {
            return bad(format!("restart must be non-negative, got {}", self.restart_s));
        }
        if let Some(tau) = self.ckpt_interval_s {
            if !(tau > 0.0 && tau.is_finite()) {
                return bad(format!("checkpoint interval must be positive, got {tau}"));
            }
        }
        if !(self.ckpt_write_bytes_per_s > 0.0 && self.ckpt_write_bytes_per_s.is_finite()) {
            return bad(format!(
                "checkpoint write bandwidth must be positive, got {}",
                self.ckpt_write_bytes_per_s
            ));
        }
        if let Some(tree) = &self.domain_tree {
            tree.validate()?;
        }
        if let Some(m) = self.preemption_mtbf_s {
            if !(m > 0.0 && m.is_finite()) {
                return bad(format!("preemption mtbf must be positive, got {m}"));
            }
            if self.domain_tree.is_none() {
                return bad(
                    "preemption mtbf needs a domain tree for the node count".to_string(),
                );
            }
        }
        if let Some(d) = self.regrow_delay_s {
            if !(d >= 0.0 && d.is_finite()) {
                return bad(format!("regrow delay must be non-negative, got {d}"));
            }
        }
        Ok(())
    }

    /// Resolve the plan against a device grid: explicit stragglers land
    /// first, then `random_stragglers` distinct healthy devices are drawn
    /// from the seeded stream. A pure function of `(self, n_devices)` —
    /// this is what makes fault runs reproducible run to run.
    pub fn materialize(&self, n_devices: usize) -> FaultSchedule {
        let mut compute_slowdown = vec![1.0f64; n_devices];
        if !self.is_active() {
            return FaultSchedule {
                compute_slowdown,
                link_faults: Vec::new(),
            };
        }
        for s in &self.stragglers {
            if s.device < n_devices {
                compute_slowdown[s.device] = compute_slowdown[s.device].max(s.slowdown);
            }
        }
        if self.random_stragglers > 0 && n_devices > 0 {
            let healthy = compute_slowdown.iter().filter(|&&f| f == 1.0).count();
            let picks = self.random_stragglers.min(healthy);
            let mut rng = SplitMix64::new(self.seed.unwrap_or(0) ^ 0x5747_4C52_5354_4752);
            let mut placed = 0;
            while placed < picks {
                let d = (rng.next_u64() % n_devices as u64) as usize;
                if compute_slowdown[d] == 1.0 {
                    compute_slowdown[d] = self.straggler_slowdown;
                    placed += 1;
                }
            }
        }
        FaultSchedule {
            compute_slowdown,
            link_faults: self.link_faults.clone(),
        }
    }

    /// The seeded stream of correlated events this plan injects: rack and
    /// pod outages from the domain tree's per-tier rates, and spot
    /// preemptions of single nodes. A pure function of the seed and the
    /// tree — enumeration order never touches the per-tier generators, so
    /// the schedule is bit-identical at any worker-pool size. Inactive
    /// plans (no seed) and plans without a tree yield an empty stream.
    pub fn domain_events(&self) -> DomainEventStream {
        let mut tiers = Vec::new();
        if let (Some(seed), Some(tree)) = (self.seed, &self.domain_tree) {
            if let Some(mtbf) = tree.rack_mtbf_s {
                tiers.push(TierStream::new(
                    seed ^ 0x444F_4D4E_4F54_4745,
                    mtbf / tree.num_racks() as f64,
                    tree.num_racks(),
                    DomainTier::Rack,
                ));
            }
            if let Some(mtbf) = tree.pod_mtbf_s {
                tiers.push(TierStream::new(
                    seed ^ 0x444F_4D4E_4F54_4746,
                    mtbf / tree.num_pods() as f64,
                    tree.num_pods(),
                    DomainTier::Pod,
                ));
            }
            if let Some(mtbf) = self.preemption_mtbf_s {
                tiers.push(TierStream::new(
                    seed ^ 0x5052_4545_4D50_544E,
                    mtbf / tree.num_nodes as f64,
                    tree.num_nodes,
                    DomainTier::Node,
                ));
            }
        }
        DomainEventStream { tiers }
    }
}

/// Which level of the domain hierarchy an event strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DomainTier {
    /// A whole rack (PDU / ToR switch failure).
    Rack,
    /// A whole pod (aggregation-switch / cooling-loop failure).
    Pod,
    /// One node, preempted (spot capacity reclaimed).
    Node,
}

/// One correlated fault arrival materialized from a [`FailureDomainTree`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DomainEvent {
    /// Arrival time, seconds of wall clock since run start.
    pub at_s: f64,
    /// Which tier failed.
    pub tier: DomainTier,
    /// Index of the failed domain within its tier (rack index, pod index,
    /// or node index for preemptions).
    pub domain: usize,
}

impl DomainEvent {
    /// The half-open node range `[first, last)` this event takes down.
    pub fn node_span(&self, tree: &FailureDomainTree) -> (usize, usize) {
        let per = match self.tier {
            DomainTier::Rack => tree.nodes_per_rack,
            DomainTier::Pod => tree.nodes_per_pod(),
            DomainTier::Node => 1,
        };
        let first = self.domain * per;
        (first.min(tree.num_nodes), ((self.domain + 1) * per).min(tree.num_nodes))
    }

    /// Whether this is a spot preemption rather than a hardware outage.
    pub fn is_preemption(&self) -> bool {
        self.tier == DomainTier::Node
    }
}

/// One tier's independent Poisson stream: its own [`SplitMix64`] draws
/// inter-arrival gaps at the tier's aggregate rate, then picks the failed
/// domain uniformly. Keeping the generators per-tier means adding or
/// removing one tier never perturbs another's schedule.
#[derive(Debug, Clone)]
struct TierStream {
    rng: SplitMix64,
    mean_s: f64,
    num_domains: usize,
    next_at: f64,
    tier: DomainTier,
}

impl TierStream {
    fn new(seed: u64, mean_s: f64, num_domains: usize, tier: DomainTier) -> Self {
        let mut rng = SplitMix64::new(seed);
        let next_at = rng.exp(mean_s);
        TierStream { rng, mean_s, num_domains, next_at, tier }
    }
}

/// The merged, time-ordered stream of correlated events a [`FaultPlan`]
/// injects. Infinite while any tier is configured; ties between tiers
/// break in declaration order (rack, then pod, then preemption).
#[derive(Debug, Clone)]
pub struct DomainEventStream {
    tiers: Vec<TierStream>,
}

impl Iterator for DomainEventStream {
    type Item = DomainEvent;

    fn next(&mut self) -> Option<DomainEvent> {
        let mut pick = 0usize;
        for (i, t) in self.tiers.iter().enumerate().skip(1) {
            if t.next_at < self.tiers[pick].next_at {
                pick = i;
            }
        }
        let t = self.tiers.get_mut(pick)?;
        let at_s = t.next_at;
        let domain = (t.rng.next_u64() % t.num_domains.max(1) as u64) as usize;
        t.next_at = at_s + t.rng.exp(t.mean_s);
        Some(DomainEvent { at_s, tier: t.tier, domain })
    }
}

/// A [`FaultPlan`] resolved against a concrete device grid: the per-device
/// compute slowdowns and the link-degradation windows the executor consults
/// when pricing each task.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// Compute-duration multiplier per device (`1.0` = healthy).
    pub compute_slowdown: Vec<f64>,
    /// Degraded-link windows, checked against the task start time.
    pub link_faults: Vec<LinkFault>,
}

impl FaultSchedule {
    /// Adjust a task's base duration for faults active at time `now`.
    pub fn adjust(&self, kind: &TaskKind, base_s: f64, now: f64) -> f64 {
        match *kind {
            TaskKind::Compute { device, .. } => {
                base_s * self.compute_slowdown.get(device).copied().unwrap_or(1.0)
            }
            TaskKind::Transfer { src, link, .. } => {
                let mut d = base_s;
                for f in &self.link_faults {
                    if f.device == src && f.link == link && now >= f.from_s && now < f.until_s {
                        d *= f.factor;
                    }
                }
                d
            }
        }
    }

    /// Whether the schedule perturbs anything at all.
    pub fn is_noop(&self) -> bool {
        self.link_faults.is_empty() && self.compute_slowdown.iter().all(|&f| f == 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_first_outputs_are_pinned() {
        // Reference vectors for seed 0 (Vigna's splitmix64.c test values).
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn splitmix64_streams_differ_by_seed_and_repeat_by_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u), "{u}");
        }
    }

    #[test]
    fn exp_sample_mean_converges() {
        let mut rng = SplitMix64::new(11);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.exp(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "sample mean {mean}");
    }

    #[test]
    fn inactive_plan_materializes_to_a_noop() {
        let sched = FaultPlan::none()
            .with_random_stragglers(3, 2.0)
            .with_straggler(0, 4.0)
            .materialize(8);
        assert!(sched.is_noop());
    }

    #[test]
    fn materialize_is_deterministic_and_respects_counts() {
        let plan = FaultPlan::seeded(99).with_random_stragglers(3, 2.0);
        let a = plan.materialize(16);
        let b = plan.materialize(16);
        assert_eq!(a, b);
        assert_eq!(a.compute_slowdown.iter().filter(|&&f| f == 2.0).count(), 3);
        assert!(!a.is_noop());
        let other = FaultPlan::seeded(100).with_random_stragglers(3, 2.0).materialize(16);
        assert_ne!(a, other, "different seeds should usually pick differently");
    }

    #[test]
    fn explicit_stragglers_survive_random_picks() {
        let plan = FaultPlan::seeded(1)
            .with_straggler(5, 3.0)
            .with_random_stragglers(2, 1.5);
        let sched = plan.materialize(8);
        assert_eq!(sched.compute_slowdown[5], 3.0);
        assert_eq!(sched.compute_slowdown.iter().filter(|&&f| f == 1.5).count(), 2);
    }

    #[test]
    fn random_picks_cap_at_the_healthy_device_count() {
        let plan = FaultPlan::seeded(1).with_random_stragglers(100, 2.0);
        let sched = plan.materialize(4);
        assert!(sched.compute_slowdown.iter().all(|&f| f == 2.0));
    }

    #[test]
    fn adjust_applies_slowdowns_and_windows() {
        let sched = FaultSchedule {
            compute_slowdown: vec![1.0, 2.0],
            link_faults: vec![LinkFault {
                device: 0,
                link: LinkClass::Intra,
                factor: 4.0,
                from_s: 10.0,
                until_s: 20.0,
            }],
        };
        let c0 = TaskKind::Compute { device: 0, duration_s: 1.0 };
        let c1 = TaskKind::Compute { device: 1, duration_s: 1.0 };
        assert_eq!(sched.adjust(&c0, 1.0, 0.0), 1.0);
        assert_eq!(sched.adjust(&c1, 1.0, 0.0), 2.0);
        let t = TaskKind::Transfer {
            src: 0,
            dst: 1,
            bytes: 1.0,
            link: LinkClass::Intra,
        };
        assert_eq!(sched.adjust(&t, 1.0, 5.0), 1.0, "before the window");
        assert_eq!(sched.adjust(&t, 1.0, 15.0), 4.0, "inside the window");
        assert_eq!(sched.adjust(&t, 1.0, 20.0), 1.0, "window end is exclusive");
        let wrong_link = TaskKind::Transfer {
            src: 0,
            dst: 1,
            bytes: 1.0,
            link: LinkClass::Inter,
        };
        assert_eq!(sched.adjust(&wrong_link, 1.0, 15.0), 1.0);
    }

    #[test]
    fn validation_rejects_bad_fields() {
        assert!(FaultPlan::seeded(0).validate().is_ok());
        assert!(FaultPlan::seeded(0).with_straggler(0, 0.5).validate().is_err());
        assert!(FaultPlan::seeded(0).with_device_mtbf(0.0).validate().is_err());
        assert!(FaultPlan::seeded(0).with_restart(-1.0).validate().is_err());
        assert!(FaultPlan::seeded(0).with_ckpt_interval(0.0).validate().is_err());
        assert!(FaultPlan::seeded(0).with_ckpt_write_bw(0.0).validate().is_err());
        let bad_window = FaultPlan::seeded(0).with_link_fault(LinkFault {
            device: 0,
            link: LinkClass::Intra,
            factor: 2.0,
            from_s: 5.0,
            until_s: 1.0,
        });
        assert!(bad_window.validate().is_err());
    }

    #[test]
    fn domain_event_stream_is_seeded_ordered_and_tier_independent() {
        let tree = FailureDomainTree::new(16, 4, 2)
            .unwrap()
            .with_rack_mtbf(3.0e5)
            .with_pod_mtbf(4.0e5);
        let plan = FaultPlan::seeded(11)
            .with_domain_tree(tree.clone())
            .with_preemption(1.0e5);
        let a: Vec<DomainEvent> = plan.domain_events().take(256).collect();
        let b: Vec<DomainEvent> = plan.domain_events().take(256).collect();
        assert_eq!(a, b, "same seed + tree must reproduce the schedule");
        for w in a.windows(2) {
            assert!(w[0].at_s <= w[1].at_s, "stream must be time-ordered");
        }
        assert!(a.iter().any(|e| e.tier == DomainTier::Rack));
        assert!(a.iter().any(|e| e.tier == DomainTier::Pod));
        assert!(a.iter().any(|e| e.is_preemption()));
        for e in &a {
            let (n0, n1) = e.node_span(&tree);
            assert!(n0 < n1 && n1 <= 16, "{e:?} spans [{n0}, {n1})");
        }
        // Dropping one tier must not perturb the others' arrivals.
        let a_outages: Vec<DomainEvent> =
            a.iter().copied().filter(|e| !e.is_preemption()).collect();
        assert!(!a_outages.is_empty());
        let mut no_preempt = plan.clone();
        no_preempt.preemption_mtbf_s = None;
        let c: Vec<DomainEvent> =
            no_preempt.domain_events().take(a_outages.len()).collect();
        assert_eq!(c, a_outages);
        // A different seed draws a different schedule.
        let mut other = plan.clone();
        other.seed = Some(12);
        let d: Vec<DomainEvent> = other.domain_events().take(256).collect();
        assert_ne!(a, d);
    }

    #[test]
    fn inactive_or_treeless_plans_inject_no_domain_events() {
        let tree = FailureDomainTree::new(8, 4, 1).unwrap().with_rack_mtbf(1e5);
        let inert = FaultPlan::none().with_domain_tree(tree);
        assert_eq!(inert.domain_events().next(), None, "no seed, no events");
        assert_eq!(FaultPlan::seeded(3).domain_events().next(), None, "no tree, no events");
        // A tree with no tier rates and no preemption also yields nothing.
        let silent = FaultPlan::seeded(3)
            .with_domain_tree(FailureDomainTree::new(8, 4, 1).unwrap());
        assert_eq!(silent.domain_events().next(), None);
    }

    #[test]
    fn domain_validation_rejects_bad_fields() {
        let tree = FailureDomainTree::new(8, 4, 1).unwrap();
        assert!(FaultPlan::seeded(0)
            .with_domain_tree(tree.clone())
            .with_preemption(0.0)
            .validate()
            .is_err());
        assert!(FaultPlan::seeded(0).with_preemption(1e5).validate().is_err());
        assert!(FaultPlan::seeded(0).with_regrow(-1.0).validate().is_err());
        assert!(FaultPlan::seeded(0)
            .with_domain_tree(tree)
            .with_preemption(1e5)
            .with_regrow(600.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn serde_round_trip() {
        let plan = FaultPlan::seeded(7)
            .with_random_stragglers(2, 1.8)
            .with_device_mtbf(3.6e3)
            .with_restart(60.0);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        // Partial JSON fills defaults (seed omitted => inert).
        let partial: FaultPlan = serde_json::from_str("{\"random_stragglers\": 5}").unwrap();
        assert!(!partial.is_active());
        assert_eq!(partial.random_stragglers, 5);
    }
}
