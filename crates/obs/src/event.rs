//! Structured trace events and lane encoding.

use april_util::wire::{Codec, Wire, WireError};

/// The component a lane belongs to. Together with a node index it
/// forms a [`lane`] id; each lane carries one deterministic event
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Component {
    /// An APRIL processor (traps, context switches, synchronization
    /// waits).
    Cpu = 0,
    /// A requester-side cache controller (misses, NACKs,
    /// retransmissions).
    Ctl = 1,
    /// A home-side directory (protocol transitions, NACKs,
    /// retransmissions).
    Dir = 2,
    /// The run-time software system (thread spawn/block/resume, lazy
    /// task creation).
    Runtime = 3,
    /// The interconnection network (hops, drops, duplicates, delays,
    /// outage stalls). A single lane; the node field is 0.
    Net = 4,
    /// Scheduler-internal events (watchdog arming and firing).
    /// Excluded from the cross-scheduler determinism contract
    /// — they describe the scheduler, not the simulated machine.
    Meta = 5,
    /// The recovery manager (checkpoints taken, rollbacks, quarantines,
    /// re-executions). Owned by the manager's own probe, outside the
    /// machine's trace: a recovered run's *machine* trace stays
    /// byte-identical to a fresh run from the same checkpoint.
    Recovery = 6,
    /// An open-loop traffic ingress point (request arrivals, retires,
    /// drops at an edge I/O-handler node). One lane per edge node.
    Request = 7,
}

impl Component {
    /// Short lower-case name used in exports (`"cpu"`, `"net"`, …).
    pub fn name(self) -> &'static str {
        match self {
            Component::Cpu => "cpu",
            Component::Ctl => "ctl",
            Component::Dir => "dir",
            Component::Runtime => "rt",
            Component::Net => "net",
            Component::Meta => "meta",
            Component::Recovery => "recovery",
            Component::Request => "request",
        }
    }

    fn from_bits(bits: u32) -> Component {
        match bits {
            0 => Component::Cpu,
            1 => Component::Ctl,
            2 => Component::Dir,
            3 => Component::Runtime,
            4 => Component::Net,
            6 => Component::Recovery,
            7 => Component::Request,
            _ => Component::Meta,
        }
    }
}

/// Packs a component and node index into a lane id. The node index
/// must fit in 24 bits (16M nodes — far beyond any simulated machine).
pub const fn lane(comp: Component, node: u32) -> u32 {
    ((comp as u32) << 24) | (node & 0x00ff_ffff)
}

/// The component of a lane id.
pub fn lane_component(lane: u32) -> Component {
    Component::from_bits(lane >> 24)
}

/// The node index of a lane id.
pub const fn lane_node(lane: u32) -> u32 {
    lane & 0x00ff_ffff
}

/// What happened. The payload registers `a`/`b` carry kind-specific
/// detail (addresses, packet ids, thread ids); the full schema is
/// documented in DESIGN.md §10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum EventKind {
    /// A processor took a trap other than full/empty or future touch.
    /// `a` = trap code, `b` = faulting address or service number.
    #[default]
    TrapTaken = 0,
    /// The run-time performed a context switch on this processor.
    ContextSwitch = 1,
    /// A full/empty synchronization fault. `a` = address, `b` = 1 for
    /// a store.
    FullEmptyWait = 2,
    /// A future touch (strict operand or address tag). `a` = register
    /// index.
    FutureTouch = 3,
    /// A cache miss. `a` = block address, `b` = 0 for a local fill,
    /// 1 for a remote transaction.
    CacheMiss = 4,
    /// The controller received a NACK from an overloaded home.
    /// `a` = block address.
    NackRecv = 5,
    /// A protocol message was retransmitted (controller request or
    /// directory demand). `a` = block address, `b` = retry count.
    Retransmit = 6,
    /// A directory entry changed protocol state. `a` = block address,
    /// `b` = encoded transition (see DESIGN.md §10).
    DirTransition = 7,
    /// The directory NACKed a request (waiter queue full).
    /// `a` = block address, `b` = requester.
    DirNack = 8,
    /// A packet header crossed one channel. `a` = packet id,
    /// `b` = channel source node.
    NetHop = 9,
    /// A packet was dropped by fault injection. `a` = packet id.
    NetDrop = 10,
    /// A packet was duplicated by fault injection. `a` = original id,
    /// `b` = duplicate id.
    NetDup = 11,
    /// A packet crossing was delayed by fault injection.
    /// `a` = packet id, `b` = extra cycles.
    NetDelay = 12,
    /// A packet crossing stalled on a link outage. `a` = packet id,
    /// `b` = cycle the outage ends.
    NetOutage = 13,
    // Tag 14 is retired (it named a scheduler that no longer exists)
    // and is never reused: tags are recorded in probe rings and JSONL.
    /// The forward-progress watchdog re-armed after observing
    /// progress ([`Component::Meta`]). `a` = new deadline.
    WatchdogArmed = 15,
    /// The forward-progress watchdog fired ([`Component::Meta`]).
    /// `a` = firing cycle.
    WatchdogFired = 16,
    /// The run-time created a thread. `a` = thread id, `b` = entry pc.
    ThreadSpawn = 17,
    /// A thread blocked on an unresolved future or full/empty wait.
    /// `a` = thread id, `b` = address.
    ThreadBlock = 18,
    /// A blocked thread was made runnable again. `a` = thread id,
    /// `b` = address.
    ThreadResume = 19,
    /// A lazy future (deferred task) was created. `a` = future
    /// address, `b` = owner node.
    LazyTask = 20,
    /// A packet was silently swallowed by a fail-stopped link or node.
    /// `a` = packet id, `b` = failure site (channel source node, or the
    /// dead node itself).
    NetFailStop = 21,
    /// A packet had no alive route under the quarantine and was
    /// recorded as a typed dead letter. `a` = packet id,
    /// `b` = unreachable destination.
    NetDeadLetter = 22,
    /// The recovery manager took a periodic checkpoint
    /// ([`Component::Recovery`]). `a` = checkpoint cycle, `b` = ring
    /// occupancy after insertion.
    CheckpointTaken = 23,
    /// The recovery manager rolled the machine back to a checkpoint
    /// ([`Component::Recovery`]). `a` = restored cycle, `b` = recovery
    /// attempt number (1-based).
    Rollback = 24,
    /// The recovery manager quarantined a channel or node
    /// ([`Component::Recovery`]). `a` = encoded target (channel:
    /// `node << 8 | dim << 1 | plus`; node: node index), `b` = 0 for a
    /// channel, 1 for a node.
    QuarantineApplied = 25,
    /// The recovery manager resumed execution after a rollback
    /// ([`Component::Recovery`]). `a` = resume cycle, `b` = the
    /// backed-off watchdog horizon now in force.
    ReExecute = 26,
    /// An open-loop request was injected into an edge node's ingress
    /// ring ([`Component::Request`]). `a` = request id, `b` = ring slot
    /// address.
    RequestArrive = 27,
    /// An open-loop request was retired by the service loop
    /// ([`Component::Request`]). `a` = request id, `b` = birth-to-retire
    /// latency in cycles.
    RequestRetire = 28,
    /// An open-loop request arrived to a full ingress ring and was
    /// dropped ([`Component::Request`]). `a` = request id, `b` = ring
    /// slot address that was still occupied.
    RequestDrop = 29,
}

impl EventKind {
    /// Decodes the wire discriminant of an [`Event`]'s kind.
    pub(crate) fn from_u8(tag: u8, at: usize) -> Result<EventKind, WireError> {
        Ok(match tag {
            0 => EventKind::TrapTaken,
            1 => EventKind::ContextSwitch,
            2 => EventKind::FullEmptyWait,
            3 => EventKind::FutureTouch,
            4 => EventKind::CacheMiss,
            5 => EventKind::NackRecv,
            6 => EventKind::Retransmit,
            7 => EventKind::DirTransition,
            8 => EventKind::DirNack,
            9 => EventKind::NetHop,
            10 => EventKind::NetDrop,
            11 => EventKind::NetDup,
            12 => EventKind::NetDelay,
            13 => EventKind::NetOutage,
            15 => EventKind::WatchdogArmed,
            16 => EventKind::WatchdogFired,
            17 => EventKind::ThreadSpawn,
            18 => EventKind::ThreadBlock,
            19 => EventKind::ThreadResume,
            20 => EventKind::LazyTask,
            21 => EventKind::NetFailStop,
            22 => EventKind::NetDeadLetter,
            23 => EventKind::CheckpointTaken,
            24 => EventKind::Rollback,
            25 => EventKind::QuarantineApplied,
            26 => EventKind::ReExecute,
            27 => EventKind::RequestArrive,
            28 => EventKind::RequestRetire,
            29 => EventKind::RequestDrop,
            tag => return Err(WireError::BadTag { at, tag }),
        })
    }

    /// Short stable name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TrapTaken => "trap",
            EventKind::ContextSwitch => "context_switch",
            EventKind::FullEmptyWait => "fe_wait",
            EventKind::FutureTouch => "future_touch",
            EventKind::CacheMiss => "cache_miss",
            EventKind::NackRecv => "nack_recv",
            EventKind::Retransmit => "retransmit",
            EventKind::DirTransition => "dir_transition",
            EventKind::DirNack => "dir_nack",
            EventKind::NetHop => "net_hop",
            EventKind::NetDrop => "net_drop",
            EventKind::NetDup => "net_dup",
            EventKind::NetDelay => "net_delay",
            EventKind::NetOutage => "net_outage",
            EventKind::WatchdogArmed => "watchdog_armed",
            EventKind::WatchdogFired => "watchdog_fired",
            EventKind::ThreadSpawn => "thread_spawn",
            EventKind::ThreadBlock => "thread_block",
            EventKind::ThreadResume => "thread_resume",
            EventKind::LazyTask => "lazy_task",
            EventKind::NetFailStop => "net_fail_stop",
            EventKind::NetDeadLetter => "net_dead_letter",
            EventKind::CheckpointTaken => "checkpoint_taken",
            EventKind::Rollback => "rollback",
            EventKind::QuarantineApplied => "quarantine_applied",
            EventKind::ReExecute => "re_execute",
            EventKind::RequestArrive => "request_arrive",
            EventKind::RequestRetire => "request_retire",
            EventKind::RequestDrop => "request_drop",
        }
    }
}

/// One structured trace event.
///
/// `(cycle, lane, seq)` is the canonical sort key: `seq` numbers every
/// emission on its lane (sampled out or not), so the key is unique and
/// the canonical order is identical across schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Event {
    /// Simulated cycle at which the event occurred.
    pub cycle: u64,
    /// Lane id (see [`lane`]).
    pub lane: u32,
    /// Emission number on this lane (monotonic, counts unsampled
    /// emissions too).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload register (kind-specific).
    pub a: u64,
    /// Second payload register (kind-specific).
    pub b: u64,
}

impl Event {
    /// The canonical sort key.
    pub fn key(&self) -> (u64, u32, u64) {
        (self.cycle, self.lane, self.seq)
    }
}

impl Wire for Event {
    /// The event's snapshot layout (DESIGN.md §11).
    ///
    /// # Examples
    ///
    /// ```
    /// use april_obs::{lane, Component, Event, EventKind};
    /// use april_util::wire::{ByteReader, ByteWriter, Wire};
    ///
    /// let mut e = Event {
    ///     cycle: 42,
    ///     lane: lane(Component::Cpu, 3),
    ///     seq: 7,
    ///     kind: EventKind::CacheMiss,
    ///     a: 0x100,
    ///     b: 1,
    /// };
    /// let mut w = ByteWriter::new();
    /// e.wire(&mut w).unwrap();
    /// let bytes = w.finish();
    /// let mut back = Event::default();
    /// back.wire(&mut ByteReader::new(&bytes)).unwrap();
    /// assert_eq!(back, e);
    /// ```
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        c.u64(&mut self.cycle)?;
        c.u32(&mut self.lane)?;
        c.u64(&mut self.seq)?;
        c.tag(
            &mut self.kind,
            |&k| k as u8,
            |t| EventKind::from_u8(t, 0).ok(),
        )?;
        c.u64(&mut self.a)?;
        c.u64(&mut self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use april_util::wire::{ByteReader, ByteWriter};

    #[test]
    fn lane_roundtrip() {
        for comp in [
            Component::Cpu,
            Component::Ctl,
            Component::Dir,
            Component::Runtime,
            Component::Net,
            Component::Meta,
            Component::Recovery,
            Component::Request,
        ] {
            let l = lane(comp, 1234);
            assert_eq!(lane_component(l), comp);
            assert_eq!(lane_node(l), 1234);
        }
    }

    #[test]
    fn lanes_order_by_component_then_node() {
        assert!(lane(Component::Cpu, 5) < lane(Component::Ctl, 0));
        assert!(lane(Component::Ctl, 1) < lane(Component::Ctl, 2));
    }

    #[test]
    fn every_kind_roundtrips_on_the_wire() {
        for tag in (0u8..=29).filter(|&t| t != 14) {
            let kind = EventKind::from_u8(tag, 0).unwrap();
            assert_eq!(kind as u8, tag);
            let e = Event {
                cycle: 1 + tag as u64,
                lane: lane(Component::Dir, tag as u32),
                seq: 99,
                kind,
                a: u64::MAX - tag as u64,
                b: tag as u64,
            };
            let mut w = ByteWriter::new();
            let mut sent = e;
            sent.wire(&mut w).unwrap();
            let bytes = w.finish();
            let mut r = ByteReader::new(&bytes);
            let mut back = Event::default();
            back.wire(&mut r).unwrap();
            assert_eq!(back, e);
            assert!(r.is_empty());
        }
        assert!(EventKind::from_u8(30, 0).is_err());
        assert!(EventKind::from_u8(14, 0).is_err(), "retired tag");
    }
}
