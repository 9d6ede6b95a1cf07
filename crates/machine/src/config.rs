//! Machine configuration.

use crate::traffic::TrafficConfig;
use crate::watchdog::WatchdogConfig;
use april_core::cpu::CpuConfig;
use april_mem::cache::CacheConfig;
use april_mem::controller::CtlConfig;
use april_mem::directory::DirConfig;
use april_net::network::NetConfig;
use april_net::topology::Topology;

/// Configuration of a full ALEWIFE machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Network topology (number of nodes = `topology.num_nodes()`).
    pub topology: Topology,
    /// Per-node processor configuration.
    pub cpu: CpuConfig,
    /// Per-node cache geometry.
    pub cache: CacheConfig,
    /// Controller timing and retransmission policy.
    pub ctl: CtlConfig,
    /// Directory policy (waiter queue bound, retransmission).
    pub dir: DirConfig,
    /// Network timing.
    pub net: NetConfig,
    /// Forward-progress watchdog policy.
    pub watchdog: WatchdogConfig,
    /// Bytes of globally shared memory owned by each node; global
    /// addresses are region-partitioned, so address `a`'s home is
    /// `a / region_bytes`.
    pub region_bytes: u32,
    /// Memory access latency charged at the home node before a
    /// data-bearing protocol reply is injected (Table 4: 10 cycles).
    pub mem_latency: u64,
    /// Force the strict cycle-by-cycle advance loop instead of the
    /// event-driven skip: every cycle is visited and no CPU ever parks.
    /// The two are cycle-exact equivalents (see DESIGN.md §8); this
    /// flag exists so the equivalence is testable and so anomalies can
    /// be bisected against the reference path.
    pub lockstep: bool,
    /// Use the pre-decoded bytecode fast path (DESIGN.md §13): the
    /// loaded program is lowered once into flat [`april_core::DecodedProgram`]
    /// ops and straight-line safe runs are executed in batches without
    /// per-instruction IRQ/frame/trap re-checks. Cycle-exact with the
    /// interpreter (`decode: false`); defaults on, overridable with the
    /// `APRIL_DECODE=0` environment variable. The decoded image is
    /// derived state — rebuilt on load/restore, never snapshotted.
    pub decode: bool,
    /// Open-loop traffic description (DESIGN.md §15): when set, edge
    /// I/O-handler nodes receive a seeded, deterministic open-arrival
    /// request stream injected by the machine itself. `None` (the
    /// default) leaves the machine purely program-driven.
    pub traffic: Option<TrafficConfig>,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            topology: Topology::new(2, 4),
            cpu: CpuConfig::default(),
            cache: CacheConfig::default(),
            ctl: CtlConfig::default(),
            dir: DirConfig::default(),
            net: NetConfig::default(),
            watchdog: WatchdogConfig::default(),
            region_bytes: 1 << 20,
            mem_latency: 10,
            lockstep: false,
            decode: decode_default(),
            traffic: None,
        }
    }
}

/// Default for [`MachineConfig::decode`]: on, unless `APRIL_DECODE=0`
/// is set in the environment (the CI equivalence suite uses this to
/// keep the legacy interpreter path honest).
fn decode_default() -> bool {
    std::env::var("APRIL_DECODE").map_or(true, |v| v != "0")
}

impl MachineConfig {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.topology.num_nodes()
    }

    /// Total globally shared memory in bytes.
    pub fn total_mem_bytes(&self) -> usize {
        self.num_nodes() * self.region_bytes as usize
    }

    /// The home node of byte address `addr`.
    pub fn home_of(&self, addr: u32) -> usize {
        ((addr / self.region_bytes) as usize).min(self.num_nodes() - 1)
    }

    /// The base address of `node`'s memory region.
    pub fn region_base(&self, node: usize) -> u32 {
        node as u32 * self.region_bytes
    }

    /// Cache block size in words (for message sizing).
    pub fn block_words(&self) -> u32 {
        self.cache.block_bytes / 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_partitioning() {
        let cfg = MachineConfig {
            region_bytes: 0x1000,
            ..MachineConfig::default()
        };
        assert_eq!(cfg.home_of(0), 0);
        assert_eq!(cfg.home_of(0xfff), 0);
        assert_eq!(cfg.home_of(0x1000), 1);
        assert_eq!(cfg.region_base(3), 0x3000);
    }

    #[test]
    fn home_clamps_to_last_node() {
        let cfg = MachineConfig {
            region_bytes: 0x1000,
            ..MachineConfig::default()
        };
        assert_eq!(cfg.home_of(u32::MAX), cfg.num_nodes() - 1);
    }
}
