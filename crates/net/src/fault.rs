//! Deterministic fault injection for the network simulator.
//!
//! A [`FaultPlan`] decides, for every packet/channel crossing, whether
//! the packet is dropped, duplicated, or delayed, and whether the
//! channel is inside a transient outage window. Decisions are pure
//! hashes of `(seed, packet id, hop, channel)` via splitmix64, so a
//! fault schedule is exactly reproducible from the seed and is
//! independent of event-processing order: replaying the same sends
//! yields bit-identical faults.
//!
//! Faults apply at channel granularity: a per-plan default
//! [`FaultRule`] can be overridden per channel, and outage windows
//! stall any packet that tries to cross the channel until the window
//! closes. Loopback (self-send) traffic never crosses a channel and is
//! never faulted.

use crate::topology::Channel;
use april_util::splitmix64;
use std::collections::{HashMap, HashSet};

/// Per-channel fault probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRule {
    /// Probability a packet crossing the channel is dropped.
    pub drop: f64,
    /// Probability a packet crossing the channel forks a duplicate.
    pub dup: f64,
    /// Probability a packet crossing the channel is delayed.
    pub delay: f64,
    /// Maximum extra delay in cycles (uniform in `1..=max_delay`).
    pub max_delay: u64,
}

impl FaultRule {
    /// A rule that never faults.
    pub const NONE: FaultRule = FaultRule {
        drop: 0.0,
        dup: 0.0,
        delay: 0.0,
        max_delay: 0,
    };

    /// Uniform loss: drop with probability `p`.
    pub fn drop(p: f64) -> FaultRule {
        FaultRule {
            drop: p,
            ..FaultRule::NONE
        }
    }

    /// Uniform duplication: fork with probability `p`.
    pub fn dup(p: f64) -> FaultRule {
        FaultRule {
            dup: p,
            ..FaultRule::NONE
        }
    }

    /// Uniform jitter: delay with probability `p` by up to `max` cycles.
    pub fn delay(p: f64, max: u64) -> FaultRule {
        FaultRule {
            delay: p,
            max_delay: max,
            ..FaultRule::NONE
        }
    }

    fn is_none(&self) -> bool {
        self.drop <= 0.0 && self.dup <= 0.0 && self.delay <= 0.0
    }
}

/// A transient link failure: the channel is unusable in `start..end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Outage {
    /// First cycle of the outage.
    pub start: u64,
    /// First cycle after the outage (packets resume crossing here).
    pub end: u64,
}

/// Counts of injected faults, for post-mortems and soak assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets removed from the network mid-flight.
    pub dropped: u64,
    /// Extra packet copies forked mid-flight.
    pub duplicated: u64,
    /// Channel crossings given extra latency.
    pub delayed: u64,
    /// Crossings stalled until an outage window closed.
    pub outage_stalls: u64,
    /// Packets silently swallowed by a fail-stopped link or node. The
    /// router does not know about fail-stop faults, so these losses
    /// look exactly like wedged protocol transactions from above —
    /// until a post-mortem diagnoses them.
    pub failstop_drops: u64,
    /// Packets with no alive route to their destination under the
    /// current quarantine (typed loss, recorded as a dead letter).
    pub dead_letters: u64,
}

impl FaultStats {
    /// Total number of injected fault events.
    pub fn total(&self) -> u64 {
        self.dropped
            + self.duplicated
            + self.delayed
            + self.outage_stalls
            + self.failstop_drops
            + self.dead_letters
    }
}

/// What the plan decided for one packet/channel crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Cross normally.
    Pass,
    /// Remove the packet from the network.
    Drop,
    /// Cross, and also fork an identical copy from the current node.
    Duplicate,
    /// Cross with this many extra cycles of header latency.
    Delay(u64),
    /// The channel is down; retry the crossing at this cycle.
    StallUntil(u64),
}

/// A deterministic, seeded schedule of network faults.
///
/// # Examples
///
/// ```
/// use april_net::fault::{FaultPlan, FaultRule};
///
/// let plan = FaultPlan::new(0x5eed).with_default_rule(FaultRule::drop(0.01));
/// assert!(!plan.is_inert());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    pub(crate) seed: u64,
    pub(crate) default_rule: FaultRule,
    pub(crate) per_channel: HashMap<Channel, FaultRule>,
    pub(crate) outages: HashMap<Channel, Vec<Outage>>,
    /// Permanent link kills: from the onset cycle on, every packet that
    /// tries to cross the channel is silently swallowed. Unlike an
    /// outage, a kill never ends and the router is not told about it —
    /// the protocol above experiences it as a wedge.
    pub(crate) link_kills: HashMap<Channel, u64>,
    /// Permanent node fail-stops: from the onset cycle on, every packet
    /// at, through, or destined to the node is silently swallowed.
    pub(crate) node_kills: HashMap<usize, u64>,
    /// Channels the router must avoid (the *known-dead* set derived by
    /// recovery). Quarantined channels are excluded from route search;
    /// destinations with no alive route become typed dead letters.
    pub(crate) quarantined_channels: HashSet<Channel>,
    /// Nodes the router must avoid routing through or to.
    pub(crate) quarantined_nodes: HashSet<usize>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults configured.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            default_rule: FaultRule::NONE,
            per_channel: HashMap::new(),
            outages: HashMap::new(),
            link_kills: HashMap::new(),
            node_kills: HashMap::new(),
            quarantined_channels: HashSet::new(),
            quarantined_nodes: HashSet::new(),
        }
    }

    /// Sets the rule applied to every channel without an override.
    pub fn with_default_rule(mut self, rule: FaultRule) -> FaultPlan {
        self.default_rule = rule;
        self
    }

    /// Overrides the rule for one channel.
    pub fn with_channel_rule(mut self, ch: Channel, rule: FaultRule) -> FaultPlan {
        self.per_channel.insert(ch, rule);
        self
    }

    /// Adds a transient outage window on one channel.
    pub fn with_outage(mut self, ch: Channel, start: u64, end: u64) -> FaultPlan {
        assert!(start < end, "empty outage window");
        self.outages
            .entry(ch)
            .or_default()
            .push(Outage { start, end });
        self
    }

    /// Schedules a permanent link kill: from cycle `onset` on, packets
    /// crossing `ch` are silently swallowed (a fail-stop fault the
    /// router does not know about).
    pub fn with_link_kill(mut self, ch: Channel, onset: u64) -> FaultPlan {
        self.link_kills.insert(ch, onset);
        self
    }

    /// Schedules a permanent node fail-stop: from cycle `onset` on,
    /// packets at, through, or destined to `node` are silently
    /// swallowed (including loopback traffic — the whole node is dead).
    pub fn with_node_kill(mut self, node: usize, onset: u64) -> FaultPlan {
        self.node_kills.insert(node, onset);
        self
    }

    /// Quarantines a channel: the router avoids it from now on
    /// (builder form of [`FaultPlan::quarantine_channel`]).
    pub fn with_quarantined_channel(mut self, ch: Channel) -> FaultPlan {
        self.quarantined_channels.insert(ch);
        self
    }

    /// Quarantines a node (builder form of
    /// [`FaultPlan::quarantine_node`]).
    pub fn with_quarantined_node(mut self, node: usize) -> FaultPlan {
        self.quarantined_nodes.insert(node);
        self
    }

    /// Marks a channel as known-dead: the router stops using it.
    pub fn quarantine_channel(&mut self, ch: Channel) {
        self.quarantined_channels.insert(ch);
    }

    /// Marks a node as known-dead: the router stops routing through or
    /// to it.
    pub fn quarantine_node(&mut self, node: usize) {
        self.quarantined_nodes.insert(node);
    }

    /// True if the fail-stop schedule has killed channel `ch` by `now`.
    pub fn link_killed(&self, ch: Channel, now: u64) -> bool {
        self.link_kills.get(&ch).is_some_and(|&onset| onset <= now)
    }

    /// True if the fail-stop schedule has killed `node` by `now`.
    pub fn node_killed(&self, node: usize, now: u64) -> bool {
        self.node_kills
            .get(&node)
            .is_some_and(|&onset| onset <= now)
    }

    /// True if channel `ch` is in the quarantine avoidance set.
    pub fn channel_quarantined(&self, ch: Channel) -> bool {
        self.quarantined_channels.contains(&ch)
    }

    /// True if `node` is in the quarantine avoidance set.
    pub fn node_quarantined(&self, node: usize) -> bool {
        self.quarantined_nodes.contains(&node)
    }

    /// True if any channel or node is quarantined (the router then
    /// switches from dimension-order to avoidance routing).
    pub fn has_quarantine(&self) -> bool {
        !self.quarantined_channels.is_empty() || !self.quarantined_nodes.is_empty()
    }

    /// True if the plan schedules any permanent fail-stop fault.
    pub fn has_fail_stop(&self) -> bool {
        !self.link_kills.is_empty() || !self.node_kills.is_empty()
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True if the plan can never inject a fault (fault-free baseline).
    pub fn is_inert(&self) -> bool {
        self.default_rule.is_none()
            && self.per_channel.values().all(FaultRule::is_none)
            && self.outages.is_empty()
            && !self.has_fail_stop()
            && !self.has_quarantine()
    }

    fn rule_for(&self, ch: Channel) -> FaultRule {
        self.per_channel
            .get(&ch)
            .copied()
            .unwrap_or(self.default_rule)
    }

    /// A unit-interval sample that is a pure function of its inputs.
    fn sample(&self, packet: u64, hop: u64, ch: Channel, salt: u64) -> f64 {
        let mut h = splitmix64(self.seed ^ splitmix64(packet));
        h = splitmix64(h ^ hop);
        h = splitmix64(h ^ channel_key(ch));
        h = splitmix64(h ^ salt);
        // 53 mantissa bits → uniform in [0, 1).
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Decides the fate of packet `packet` making its `hop`-th crossing,
    /// over channel `ch` at time `now`. `may_dup` is false for packets
    /// that are themselves duplicates (duplication does not compound).
    pub(crate) fn decide(
        &self,
        packet: u64,
        hop: u64,
        ch: Channel,
        now: u64,
        may_dup: bool,
    ) -> Verdict {
        if let Some(win) = self.outages.get(&ch) {
            if let Some(o) = win.iter().find(|o| o.start <= now && now < o.end) {
                return Verdict::StallUntil(o.end);
            }
        }
        let rule = self.rule_for(ch);
        if rule.is_none() {
            return Verdict::Pass;
        }
        if rule.drop > 0.0 && self.sample(packet, hop, ch, 0xd509) < rule.drop {
            return Verdict::Drop;
        }
        if may_dup && rule.dup > 0.0 && self.sample(packet, hop, ch, 0xd0b1) < rule.dup {
            return Verdict::Duplicate;
        }
        if rule.delay > 0.0
            && rule.max_delay > 0
            && self.sample(packet, hop, ch, 0xde1a) < rule.delay
        {
            let r = splitmix64(self.seed ^ splitmix64(packet ^ 0xde1a) ^ hop.wrapping_mul(0x9e37));
            return Verdict::Delay(1 + r % rule.max_delay);
        }
        Verdict::Pass
    }
}

/// Folds a channel into a stable 64-bit key for hashing.
fn channel_key(ch: Channel) -> u64 {
    let dir = ch.plus as u64;
    splitmix64((ch.node as u64) << 20 | (ch.dim as u64) << 1 | dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch(node: usize) -> Channel {
        Channel {
            node,
            dim: 0,
            plus: true,
        }
    }

    #[test]
    fn decisions_are_pure_functions() {
        let plan = FaultPlan::new(7).with_default_rule(FaultRule {
            drop: 0.1,
            dup: 0.1,
            delay: 0.2,
            max_delay: 8,
        });
        for p in 0..64 {
            for hop in 0..4 {
                let a = plan.decide(p, hop, ch(3), 100, true);
                let b = plan.decide(p, hop, ch(3), 100, true);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn seed_changes_the_schedule() {
        let mk = |seed| {
            let plan = FaultPlan::new(seed).with_default_rule(FaultRule::drop(0.3));
            (0..256)
                .map(|p| plan.decide(p, 0, ch(0), 0, true))
                .collect::<Vec<_>>()
        };
        assert_ne!(
            mk(1),
            mk(2),
            "distinct seeds should give distinct schedules"
        );
        assert_eq!(mk(9), mk(9));
    }

    #[test]
    fn rates_are_roughly_honored() {
        let plan = FaultPlan::new(0xfeed).with_default_rule(FaultRule::drop(0.25));
        let n = 10_000;
        let drops = (0..n)
            .filter(|&p| plan.decide(p, 0, ch(1), 0, true) == Verdict::Drop)
            .count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "drop rate {rate} far from 0.25");
    }

    #[test]
    fn channel_rules_override_default() {
        let plan = FaultPlan::new(5)
            .with_default_rule(FaultRule::NONE)
            .with_channel_rule(ch(2), FaultRule::drop(1.0));
        assert_eq!(plan.decide(0, 0, ch(2), 0, true), Verdict::Drop);
        assert_eq!(plan.decide(0, 0, ch(3), 0, true), Verdict::Pass);
    }

    #[test]
    fn outages_stall_until_end() {
        let plan = FaultPlan::new(5).with_outage(ch(1), 10, 20);
        assert_eq!(plan.decide(0, 0, ch(1), 9, true), Verdict::Pass);
        assert_eq!(plan.decide(0, 0, ch(1), 10, true), Verdict::StallUntil(20));
        assert_eq!(plan.decide(0, 0, ch(1), 19, true), Verdict::StallUntil(20));
        assert_eq!(plan.decide(0, 0, ch(1), 20, true), Verdict::Pass);
    }

    #[test]
    fn inert_plans_know_it() {
        assert!(FaultPlan::new(1).is_inert());
        assert!(!FaultPlan::new(1)
            .with_default_rule(FaultRule::dup(0.01))
            .is_inert());
        assert!(!FaultPlan::new(1).with_outage(ch(0), 0, 1).is_inert());
    }

    #[test]
    fn kills_honor_their_onset_cycle() {
        let plan = FaultPlan::new(1)
            .with_link_kill(ch(0), 100)
            .with_node_kill(3, 250);
        assert!(!plan.link_killed(ch(0), 99));
        assert!(plan.link_killed(ch(0), 100));
        assert!(plan.link_killed(ch(0), u64::MAX));
        assert!(!plan.link_killed(ch(1), u64::MAX));
        assert!(!plan.node_killed(3, 249));
        assert!(plan.node_killed(3, 250));
        assert!(!plan.node_killed(2, u64::MAX));
    }

    #[test]
    fn quarantine_flags_and_inertness() {
        let mut plan = FaultPlan::new(1);
        assert!(plan.is_inert() && !plan.has_quarantine());
        plan.quarantine_channel(ch(2));
        assert!(plan.has_quarantine() && plan.channel_quarantined(ch(2)));
        assert!(!plan.channel_quarantined(ch(3)));
        assert!(!plan.is_inert());
        let plan = FaultPlan::new(1).with_quarantined_node(5);
        assert!(plan.node_quarantined(5) && !plan.node_quarantined(4));
        assert!(!plan.is_inert());
        assert!(!FaultPlan::new(1).with_link_kill(ch(0), 0).is_inert());
        assert!(!FaultPlan::new(1).with_node_kill(0, 0).is_inert());
        assert!(FaultPlan::new(1).with_node_kill(0, 0).has_fail_stop());
    }

    #[test]
    fn duplicates_may_not_compound() {
        let plan = FaultPlan::new(3).with_default_rule(FaultRule::dup(1.0));
        assert_eq!(plan.decide(7, 0, ch(0), 0, true), Verdict::Duplicate);
        assert_eq!(plan.decide(7, 0, ch(0), 0, false), Verdict::Pass);
    }
}
