//! Open-loop traffic: deterministic request arrivals at edge nodes.
//!
//! Everything the closed-loop workloads (fib, queens, factor) measure
//! is *batch* behaviour; the paper's central claim — §8's utilization
//! model — is about a machine absorbing load it does not control. This
//! module turns designated *edge I/O-handler nodes* into ingress
//! points: a seeded generator (Poisson-like inter-arrival gaps, with
//! optional on/off burst phases) produces a fixed **arrival plan** at
//! machine construction, and both schedulers inject those requests
//! into per-edge-node ingress rings at exactly the planned cycles.
//! Injection is a functional memory write (edge-DMA, like the paper's
//! I/O handler tiles feeding the mesh): the slot word becomes the
//! request, visible to the consuming service loop on its next load,
//! with no protocol traffic — all *timing* of the service work itself
//! (cache misses, remote round trips, context switches) remains fully
//! simulated.
//!
//! Determinism contract: the plan is a pure function of
//! [`TrafficConfig`] plus machine geometry, injections happen at
//! plan-exact cycles under the lockstep and event-driven schedulers
//! alike, and every per-request observation (arrival, drop, retire
//! latency) is recorded into per-node state that merges
//! order-independently — so arrival traces and latency reports are
//! byte-identical across schedulers (DESIGN.md §15).

use crate::config::MachineConfig;
use april_core::word::Word;
use april_mem::femem::FeMemory;
use april_obs::{EventKind, Probe, QHist};
use april_util::rng::Rng;

/// The I/O register a service loop stores a request word to in order
/// to retire it (`stio rS, 7`): the machine timestamps the store,
/// computes birth→retire latency against the arrival plan, and records
/// it into the edge node's latency histogram.
pub const IO_RETIRE: u16 = 7;

/// The poison word: injected once into each edge node's ring after its
/// last planned arrival, telling the service loop to halt.
pub const POISON_WORD: u32 = 1;

/// The request word carried by ring slot `id`: `(id + 1) << 8`, so
/// every request is distinct from both the empty slot (0) and the
/// poison word (1).
pub fn request_word(id: u64) -> Word {
    Word(((id as u32) + 1) << 8)
}

/// Open-loop workload description, embedded in
/// [`MachineConfig::traffic`](crate::MachineConfig). All-scalar so the
/// machine configuration stays `Copy` and its `Debug` rendering (the
/// snapshot compatibility check) captures the workload exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Arrival-schedule seed. Every edge node derives an independent
    /// stream from it.
    pub seed: u64,
    /// Every `edge_every`-th node (0, `edge_every`, …) hosts an
    /// ingress ring. Clamped to at least 1.
    pub edge_every: u32,
    /// Requests offered to each edge node.
    pub requests_per_edge: u32,
    /// Mean inter-arrival gap in cycles during the on phase (the
    /// offered-load knob). Clamped to at least 1.
    pub mean_gap: u32,
    /// On/off burst phase length in cycles; 0 disables the off phase
    /// (pure Poisson-like arrivals).
    pub phase_len: u32,
    /// Off-phase mean-gap multiplier (≥ 1): arrivals thin out by this
    /// factor during off phases, giving the bursty on/off envelope.
    pub off_mul: u32,
    /// Byte offset of the ingress ring within the edge node's memory
    /// region.
    pub ring_offset: u32,
    /// Ring capacity in one-word slots; an arrival to a full ring is
    /// dropped. Clamped to at least 1.
    pub ring_slots: u32,
    /// Remote loads the generated service loop issues per request
    /// (the miss/sync-ratio knob: each one is a cache miss and usually
    /// a context switch).
    pub work_remote: u32,
    /// Local ALU delay-loop iterations the service loop burns per
    /// request.
    pub work_local: u32,
}

impl Default for TrafficConfig {
    fn default() -> TrafficConfig {
        TrafficConfig {
            seed: 0xA_9817_5EED,
            edge_every: 4,
            requests_per_edge: 64,
            mean_gap: 400,
            phase_len: 4096,
            off_mul: 3,
            ring_offset: 0x400,
            ring_slots: 8,
            work_remote: 2,
            work_local: 16,
        }
    }
}

/// The fully materialized arrival schedule: per edge node, the exact
/// cycle of every request's birth. Built once at machine construction
/// (both schedulers derive it from the same config by the same pure
/// code) and shared read-only thereafter.
#[derive(Debug, Clone)]
pub struct ArrivalPlan {
    tcfg: TrafficConfig,
    region_bytes: u32,
    /// `(node, birth cycles)` per edge node, ascending by node; the
    /// index into the cycle vector is the request id.
    per_node: Vec<(usize, Vec<u64>)>,
}

impl ArrivalPlan {
    /// Builds the plan for `cfg`, or `None` when the config carries no
    /// traffic description.
    pub fn build(cfg: &MachineConfig) -> Option<ArrivalPlan> {
        let t = cfg.traffic?;
        let n = cfg.num_nodes();
        let every = t.edge_every.max(1) as usize;
        let mean = t.mean_gap.max(1) as f64;
        let mut per_node = Vec::new();
        for node in (0..n).step_by(every) {
            let mut rng =
                Rng::seed_from(t.seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut at = 0u64;
            let mut arrivals = Vec::with_capacity(t.requests_per_edge as usize);
            for _ in 0..t.requests_per_edge {
                let off_phase = t.phase_len > 0 && (at / t.phase_len as u64) % 2 == 1;
                let m = if off_phase {
                    mean * t.off_mul.max(1) as f64
                } else {
                    mean
                };
                // Inverse-CDF exponential gap, floored to whole cycles
                // and at least 1 so arrivals are strictly ordered.
                let u = rng.gen_f64();
                at += (-(1.0 - u).ln() * m).floor() as u64 + 1;
                arrivals.push(at);
            }
            per_node.push((node, arrivals));
        }
        Some(ArrivalPlan {
            tcfg: t,
            region_bytes: cfg.region_bytes,
            per_node,
        })
    }

    /// The traffic configuration the plan was derived from.
    pub fn traffic_config(&self) -> &TrafficConfig {
        &self.tcfg
    }

    /// The edge nodes and their birth-cycle vectors, ascending by node.
    pub fn entries(&self) -> &[(usize, Vec<u64>)] {
        &self.per_node
    }

    /// Whether `node` hosts an ingress ring.
    pub fn is_edge(&self, node: usize) -> bool {
        self.arrivals(node).is_some()
    }

    /// `node`'s birth cycles (index = request id), if it is an edge.
    pub fn arrivals(&self, node: usize) -> Option<&[u64]> {
        self.per_node
            .binary_search_by_key(&node, |(n, _)| *n)
            .ok()
            .map(|i| self.per_node[i].1.as_slice())
    }

    /// The birth cycle of request `id` at `node`.
    pub fn birth(&self, node: usize, id: usize) -> u64 {
        self.arrivals(node).map_or(0, |a| a[id])
    }

    /// The byte address of `node`'s ring slot for write-cursor
    /// position `k` (the `k`-th successful injection).
    pub fn slot_addr(&self, node: usize, k: u64) -> u32 {
        let slots = self.tcfg.ring_slots.max(1) as u64;
        node as u32 * self.region_bytes + self.tcfg.ring_offset + 4 * (k % slots) as u32
    }

    /// The first cycle at which `node`'s poison injection is attempted
    /// (retried every cycle until the head slot is free).
    pub fn poison_at(&self, node: usize) -> u64 {
        self.arrivals(node)
            .and_then(|a| a.last().copied())
            .unwrap_or(0)
            + 1
    }

    /// Total requests offered across all edge nodes.
    pub fn total_offered(&self) -> u64 {
        self.per_node.iter().map(|(_, a)| a.len() as u64).sum()
    }

    /// The last planned arrival cycle across all edge nodes (a lower
    /// bound on the run length; drain time comes on top).
    pub fn horizon(&self) -> u64 {
        self.per_node
            .iter()
            .filter_map(|(_, a)| a.last().copied())
            .max()
            .unwrap_or(0)
    }
}

/// Per-edge-node traffic state, carried inside the node itself.
/// Counters, histogram, and the poison flag are machine state (snapshotted in
/// the per-node `SEC_TRAFFIC` section); the injection cursor is
/// derived from the plan and the restored clock, so restores recompute
/// it instead of trusting the snapshot.
#[derive(Debug, Default)]
pub struct NodeTraffic {
    /// Next un-injected index into the node's arrival vector. Derived
    /// state: recomputed on restore as the partition point of birth
    /// cycles ≤ now.
    pub(crate) cursor: usize,
    /// Requests successfully written into the ring (also the ring
    /// write cursor).
    pub(crate) injected: u64,
    /// Arrivals dropped because their slot was still occupied.
    pub(crate) dropped: u64,
    /// Requests retired by the service loop.
    pub(crate) retired: u64,
    /// Cycle of the latest retire (deterministic, unlike the final
    /// scheduler cycle; the throughput denominator).
    pub(crate) last_retire: u64,
    /// Whether the poison word has been placed after the last arrival.
    pub(crate) poison_sent: bool,
    /// Birth→retire latency in cycles, quantile-accurate to 1/16.
    pub(crate) latency: QHist,
    /// The node's [`april_obs::Component::Request`] trace lane.
    pub(crate) probe: Probe,
}

impl NodeTraffic {
    /// Recomputes the injection cursor for a machine restored at
    /// `now`: every arrival with a birth cycle ≤ now was already
    /// injected (or dropped) before the checkpoint.
    pub(crate) fn reset_cursor(&mut self, arrivals: &[u64], now: u64) {
        self.cursor = arrivals.partition_point(|&c| c <= now);
    }
}

/// Injects every arrival due at `now` into `node`'s ring, plus the
/// poison word once all arrivals are in and the head slot is free.
/// Writes go straight to `mem`. Pure per-node state-machine: given the
/// same plan and visit cycles, every scheduler performs the identical
/// writes and emits the identical probe events.
pub(crate) fn inject_due(
    plan: &ArrivalPlan,
    node: usize,
    tr: &mut NodeTraffic,
    now: u64,
    mem: &mut FeMemory,
) {
    let Some(arrivals) = plan.arrivals(node) else {
        return;
    };
    while tr.cursor < arrivals.len() && arrivals[tr.cursor] <= now {
        let id = tr.cursor as u64;
        let addr = plan.slot_addr(node, tr.injected);
        if mem.read(addr) != Word::ZERO {
            // Open-loop overload: the ring is full, the request is
            // lost. The write cursor does not advance.
            tr.dropped += 1;
            tr.probe.emit(now, EventKind::RequestDrop, id, addr as u64);
        } else {
            mem.set_word_state(addr, request_word(id), true);
            tr.injected += 1;
            tr.probe
                .emit(now, EventKind::RequestArrive, id, addr as u64);
        }
        tr.cursor += 1;
    }
    if tr.cursor == arrivals.len() && !tr.poison_sent && now >= plan.poison_at(node) {
        let addr = plan.slot_addr(node, tr.injected);
        if mem.read(addr) == Word::ZERO {
            mem.set_word_state(addr, Word(POISON_WORD), true);
            tr.poison_sent = true;
        }
    }
}

/// Records one retired request (`word` as stored to [`IO_RETIRE`]) at
/// cycle `now`: latency against the plan's birth cycle, counters, and
/// the retire trace event. Words that are not request words (below
/// 256) are ignored.
pub(crate) fn record_retire(
    plan: &ArrivalPlan,
    node: usize,
    tr: &mut NodeTraffic,
    word: u32,
    now: u64,
) {
    if word < 0x100 {
        return;
    }
    let id = (word >> 8) as u64 - 1;
    let Some(arrivals) = plan.arrivals(node) else {
        return;
    };
    if id as usize >= arrivals.len() {
        return;
    }
    let lat = now.saturating_sub(arrivals[id as usize]);
    tr.retired += 1;
    tr.last_retire = now;
    tr.latency.record(lat);
    tr.probe.emit(now, EventKind::RequestRetire, id, lat);
}

/// Generates the machine-level service-loop program for `cfg`'s
/// traffic description: every node boots at entry 0, reads its own id
/// from the I/O space, and either halts (non-edge nodes) or serves its
/// ingress ring — poll the head slot, perform `work_remote` remote
/// loads (each a simulated cache miss against a rotating window in a
/// distant node's region) and `work_local` ALU delay iterations,
/// clear the slot, retire via `stio rS, 7`, advance — until it
/// consumes the poison word. The program is pure APRIL assembly with
/// no run-time calls, so the plain trap-handling drivers
/// ([`crate::SwitchSpin`]) can run it on both schedulers.
///
/// # Panics
///
/// Panics if `cfg` carries no traffic description.
pub fn service_program(cfg: &MachineConfig) -> String {
    let t = cfg.traffic.expect("service_program needs cfg.traffic");
    let n = cfg.num_nodes();
    let region = cfg.region_bytes;
    let ring_bytes = 4 * t.ring_slots.max(1);
    // The remote-work window: a power-of-two span of a distant node's
    // region, past that node's own ring, walked request-by-request so
    // the service loop keeps missing instead of settling into a warm
    // cache.
    let work_off = (t.ring_offset + ring_bytes + 63) & !63;
    let mut win = 1u32;
    while win * 2 <= (region - work_off.min(region)) / 2 && win < (1 << 16) {
        win *= 2;
    }
    let win_mask = win.saturating_sub(1);
    let half = (n / 2).max(1);
    let remote_work = t.work_remote > 0 && n > 1;

    let mut p = String::new();
    p.push_str(&format!(
        "start:
    ldio 1, r10          ; fixnum node id (4*i)
    srl r10, 2, r10      ; i
    movi {every}, r11
    rem r10, r11, r11    ; edge iff i % edge_every == 0
    jne finish
    nop
    movi {region}, r12
    mul r10, r12, r13    ; own region base
    movi {ring_off}, r14
    add r13, r14, r1     ; r1 = slot pointer
    add r13, r14, r15    ; r15 = ring base
    movi {ring_bytes}, r14
    add r15, r14, r16    ; r16 = ring end
",
        every = t.edge_every.max(1),
        region = region,
        ring_off = t.ring_offset,
        ring_bytes = ring_bytes,
    ));
    if remote_work {
        p.push_str(&format!(
            "    movi {half}, r14
    add r10, r14, r14
    movi {n}, r18
    rem r14, r18, r14    ; a distant node
    mul r14, r12, r17
    movi {work_off}, r14
    add r17, r14, r17    ; r17 = remote work window base
",
        ));
    }
    p.push_str(
        "poll:
    ld r1+0, r3
    sub r3, 1, r4        ; cc: empty < 0, poison = 0, request > 0
    jlt poll
    nop
    jeq finish
    nop
",
    );
    if remote_work {
        p.push_str(&format!(
            "    srl r3, 8, r4        ; request id + 1
    movi 64, r14
    mul r4, r14, r4
    movi {win_mask}, r14
    and r4, r14, r4
    add r17, r4, r5      ; this request's remote window address
    movi {wr}, r2
rwork:
    ld r5+0, r6          ; remote load: miss, trap, context switch
    add r5, 64, r5
    sub r2, 1, r2
    jgt rwork
    nop
",
            wr = t.work_remote,
        ));
    }
    if t.work_local > 0 {
        p.push_str(&format!(
            "    movi {wl}, r2
lwork:
    sub r2, 1, r2
    jgt lwork
    nop
",
            wl = t.work_local,
        ));
    }
    p.push_str(
        "    movi 0, r4
    st r4, r1+0          ; consume the slot
    stio r3, 7           ; retire the request
    add r1, 4, r1
    sub r1, r16, r4
    jne poll
    nop
    add r15, 0, r1       ; wrap to ring base
    jmp poll
    nop
finish:
    halt
",
    );
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use april_net::topology::Topology;

    fn cfg(traffic: TrafficConfig) -> MachineConfig {
        MachineConfig {
            topology: Topology::new(2, 4),
            region_bytes: 0x10000,
            traffic: Some(traffic),
            ..MachineConfig::default()
        }
    }

    #[test]
    fn plan_is_deterministic_and_strictly_ordered() {
        let c = cfg(TrafficConfig::default());
        let a = ArrivalPlan::build(&c).unwrap();
        let b = ArrivalPlan::build(&c).unwrap();
        assert_eq!(a.entries(), b.entries());
        assert_eq!(a.entries().len(), 4, "16 nodes, every 4th is an edge");
        for (node, arrivals) in a.entries() {
            assert_eq!(arrivals.len(), 64);
            assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
            assert!(a.is_edge(*node));
        }
        assert!(!a.is_edge(1));
        assert_eq!(a.total_offered(), 4 * 64);
    }

    #[test]
    fn distinct_seeds_give_distinct_schedules() {
        let a = ArrivalPlan::build(&cfg(TrafficConfig::default())).unwrap();
        let b = ArrivalPlan::build(&cfg(TrafficConfig {
            seed: 7,
            ..TrafficConfig::default()
        }))
        .unwrap();
        assert_ne!(a.entries(), b.entries());
    }

    #[test]
    fn offered_load_scales_with_mean_gap() {
        let fast = ArrivalPlan::build(&cfg(TrafficConfig {
            mean_gap: 50,
            phase_len: 0,
            ..TrafficConfig::default()
        }))
        .unwrap();
        let slow = ArrivalPlan::build(&cfg(TrafficConfig {
            mean_gap: 800,
            phase_len: 0,
            ..TrafficConfig::default()
        }))
        .unwrap();
        assert!(fast.horizon() * 4 < slow.horizon());
    }

    #[test]
    fn slot_addresses_wrap_within_the_ring() {
        let t = TrafficConfig::default();
        let plan = ArrivalPlan::build(&cfg(t)).unwrap();
        let base = 4 * 0x10000 + t.ring_offset;
        assert_eq!(plan.slot_addr(4, 0), base);
        assert_eq!(plan.slot_addr(4, t.ring_slots as u64), base);
        assert_eq!(plan.slot_addr(4, 3), base + 12);
    }

    #[test]
    fn service_program_assembles() {
        let c = cfg(TrafficConfig::default());
        let src = service_program(&c);
        april_core::isa::asm::assemble(&src).expect("service program assembles");
        // And with the optional work stages disabled.
        let c2 = cfg(TrafficConfig {
            work_remote: 0,
            work_local: 0,
            ..TrafficConfig::default()
        });
        april_core::isa::asm::assemble(&service_program(&c2)).unwrap();
    }
}
