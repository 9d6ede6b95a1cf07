//! Machine-level observability plumbing of the ALEWIFE machine: probe
//! attachment, trace assembly, and the [`StatsReport`] builder.
//!
//! Reports are derived exclusively from deterministic component state
//! (cycle ledgers, protocol counters, network statistics) — never from
//! the scheduler's final clock — so the same workload yields a
//! byte-equal report under the lockstep and event-driven schedulers.
//! Traces likewise merge per-component probe rings whose contents are
//! bit-identical across schedulers (see DESIGN.md §10).

use crate::alewife::{Alewife, Node};
use crate::Machine;
use april_core::stats::CpuStats;
use april_mem::controller::CtlStats;
use april_mem::directory::DirStats;
use april_obs::{lane, Component, Probe, QHist, Section, StatsReport, Trace, TraceConfig};

/// Installs live probes on every node's processor, cache controller,
/// and directory, one lane per component per node.
pub(crate) fn attach_node_probes(nodes: &mut [Node], cfg: TraceConfig) {
    for (i, n) in nodes.iter_mut().enumerate() {
        let i = i as u32;
        n.cpu.attach_probe(Probe::new(lane(Component::Cpu, i), cfg));
        n.ctl.attach_probe(Probe::new(lane(Component::Ctl, i), cfg));
        n.dir.attach_probe(Probe::new(lane(Component::Dir, i), cfg));
        if let Some(tr) = n.traffic.as_deref_mut() {
            tr.probe = Probe::new(lane(Component::Request, i), cfg);
        }
    }
}

/// Appends every node-component probe to `trace` (the network and meta
/// probes are pushed by the caller, which owns them).
pub(crate) fn collect_node_traces(trace: &mut Trace, nodes: &[Node]) {
    for n in nodes {
        trace.push_probe(n.cpu.trace_probe());
        trace.push_probe(n.ctl.trace_probe());
        trace.push_probe(n.dir.trace_probe());
        if let Some(tr) = n.traffic.as_deref() {
            trace.push_probe(&tr.probe);
        }
    }
}

/// Builds the full metrics snapshot: machine-wide aggregates (the
/// paper's Table 4–7 style breakdowns — utilization, misses per 1k
/// cycles, context-switch frequency) followed by one section per node.
pub(crate) fn build_report(m: &Alewife) -> StatsReport {
    let (nodes, net) = (&m.nodes, &m.net);
    let cpus: Vec<CpuStats> = (0..nodes.len()).map(|i| m.cpu_stats(i)).collect();
    let mut report = StatsReport::new();

    let mut cpu = CpuStats::default();
    let mut ctl = CtlStats::default();
    let mut dir = DirStats::default();
    for (n, c) in nodes.iter().zip(&cpus) {
        cpu.merge(c);
        ctl.merge(&n.ctl.stats);
        dir.merge(&n.dir.stats);
    }
    let total = cpu.total();
    let per_1k = |count: u64| {
        if total == 0 {
            0.0
        } else {
            count as f64 * 1000.0 / total as f64
        }
    };

    let mut s = Section::new("machine");
    s.counter("nodes", nodes.len() as u64)
        .counter("total_cycles", total);
    report.push(s);

    let mut s = Section::new("cpu");
    s.counter("useful_cycles", cpu.useful_cycles)
        .counter("trap_cycles", cpu.trap_cycles)
        .counter("handler_cycles", cpu.handler_cycles)
        .counter("stall_cycles", cpu.stall_cycles)
        .counter("idle_cycles", cpu.idle_cycles)
        .counter("instructions", cpu.instructions)
        .counter("context_switches", cpu.context_switches)
        .counter("traps", cpu.traps)
        .counter("mem_ops", cpu.mem_ops)
        .counter("remote_misses", cpu.remote_misses)
        .counter("fe_traps", cpu.fe_traps)
        .counter("future_traps", cpu.future_traps)
        .gauge("utilization", cpu.utilization())
        .gauge("misses_per_1k_cycles", per_1k(cpu.remote_misses))
        .gauge("switches_per_1k_cycles", per_1k(cpu.context_switches));
    report.push(s);

    let mut s = Section::new("cache");
    let accesses = ctl.hits + ctl.local_fills + ctl.remote_txns;
    s.counter("hits", ctl.hits)
        .counter("local_fills", ctl.local_fills)
        .counter("remote_txns", ctl.remote_txns)
        .counter("invals", ctl.invals)
        .counter("downgrades", ctl.downgrades)
        .counter("writebacks", ctl.writebacks)
        .counter("retransmits", ctl.retransmits)
        .counter("nacks", ctl.nacks)
        .counter("stale_replies", ctl.stale_replies)
        .gauge(
            "miss_ratio",
            if accesses == 0 {
                0.0
            } else {
                (ctl.local_fills + ctl.remote_txns) as f64 / accesses as f64
            },
        );
    report.push(s);

    let mut s = Section::new("dir");
    s.counter("read_reqs", dir.read_reqs)
        .counter("write_reqs", dir.write_reqs)
        .counter("invals_sent", dir.invals_sent)
        .counter("wb_reqs_sent", dir.wb_reqs_sent)
        .counter("deferred", dir.deferred)
        .counter("nacks", dir.nacks)
        .counter("retransmits", dir.retransmits)
        .counter("stale_acks", dir.stale_acks)
        .counter("overflows", dir.overflows);
    report.push(s);

    let mut s = Section::new("net");
    s.counter("delivered", net.stats.delivered)
        .counter("total_latency", net.stats.total_latency)
        .counter("total_hops", net.stats.total_hops)
        .counter("busy_flit_cycles", net.stats.busy_flit_cycles)
        .gauge("avg_latency", net.stats.avg_latency())
        .gauge("avg_hops", net.stats.avg_hops())
        .hist("latency", *net.latency_hist())
        .hist("hops", *net.hops_hist());
    report.push(s);

    let mut s = Section::new("faults");
    s.counter("dropped", net.fault_stats.dropped)
        .counter("duplicated", net.fault_stats.duplicated)
        .counter("delayed", net.fault_stats.delayed)
        .counter("outage_stalls", net.fault_stats.outage_stalls)
        .counter("failstop_drops", net.fault_stats.failstop_drops)
        .counter("dead_letters", net.fault_stats.dead_letters);
    report.push(s);

    // Open-loop traffic (DESIGN.md §15): one machine-wide section
    // merging every edge node's counters and latency histogram.
    // Derived purely from per-node traffic state (`last_retire` is the
    // latest retirement's own cycle, not the scheduler clock), so the
    // section is part of the cross-scheduler determinism contract.
    if nodes.iter().any(|n| n.traffic.is_some()) {
        let mut offered = 0u64;
        let mut injected = 0u64;
        let mut dropped = 0u64;
        let mut retired = 0u64;
        let mut last_retire = 0u64;
        let mut latency = QHist::default();
        for n in nodes.iter().filter_map(|n| n.traffic.as_deref()) {
            offered += n.injected + n.dropped;
            injected += n.injected;
            dropped += n.dropped;
            retired += n.retired;
            last_retire = last_retire.max(n.last_retire);
            latency.merge(&n.latency);
        }
        let mut s = Section::new("traffic");
        s.counter("offered", offered)
            .counter("injected", injected)
            .counter("dropped", dropped)
            .counter("retired", retired)
            .counter("last_retire_cycle", last_retire)
            .gauge(
                "throughput_per_kcycle",
                if last_retire == 0 {
                    0.0
                } else {
                    retired as f64 * 1000.0 / last_retire as f64
                },
            )
            .qhist("latency", latency);
        report.push(s);
    }

    for (i, (n, c)) in nodes.iter().zip(&cpus).enumerate() {
        let mut s = Section::new(format!("node{i}"));
        s.counter("instructions", c.instructions)
            .counter("useful_cycles", c.useful_cycles)
            .counter("idle_cycles", c.idle_cycles)
            .counter("context_switches", c.context_switches)
            .counter("remote_misses", c.remote_misses)
            .counter("cache_hits", n.ctl.stats.hits)
            .counter("local_fills", n.ctl.stats.local_fills)
            .counter("remote_txns", n.ctl.stats.remote_txns)
            .counter("dir_read_reqs", n.dir.stats.read_reqs)
            .counter("dir_write_reqs", n.dir.stats.write_reqs)
            .gauge("utilization", c.utilization());
        report.push(s);
    }
    report
}
