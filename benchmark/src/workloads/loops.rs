//! The three assembly-loop workloads on the sequential machine:
//! `stall_heavy_16node`, `compute_16node` and `fanin_1089node`.

use super::{footprint_layers, run_machine, stats_layers, Batch, Layers, Opts, Outcome};
use crate::measure::{digest, quiet_s, Stopwatch};
use crate::trace::Tracer;
use april_core::isa::asm::assemble;
use april_core::isa::Reg;
use april_core::word::Word;
use april_machine::{Alewife, Machine, MachineConfig, Topology};
use april_mem::femem::FeMemory;
use april_mem::DirectoryKind;
use april_net::network::NetConfig;
use april_obs::TraceConfig;
use april_util::rng::Rng;

/// Address of the shared block region, homed at node 0.
const SHARED: u32 = 0x200;

/// Seeded fixnums small enough that no workload overflows one.
pub fn seeded_values(seed: u64, n: usize) -> Vec<i32> {
    let mut rng = Rng::seed_from(seed);
    (0..n).map(|_| rng.gen_below(1000) as i32).collect()
}

/// Places `values[i]` in node `i`'s word of the shared region.
pub fn place_words(mem: &mut FeMemory, values: &[i32]) {
    for (i, v) in values.iter().enumerate() {
        mem.write(SHARED + 4 * i as u32, Word::fixnum(*v));
    }
}

/// The increment oracle: node `i`'s word holds `values[i] + iters`.
pub fn check_words(mem: &FeMemory, values: &[i32], iters: u32) -> Option<String> {
    values.iter().enumerate().find_map(|(i, v)| {
        let got = mem.read(SHARED + 4 * i as u32).as_fixnum();
        let want = v + iters as i32;
        (got != Some(want)).then(|| format!("node {i}: word holds {got:?}, expected {want}"))
    })
}

enum Kind {
    /// Every node increments its own word of one block region homed at
    /// node 0 and flushes the line after every store: each iteration is
    /// a remote read miss plus a write-upgrade miss.
    StallHeavy { iters: u32 },
    /// A 32-op straight-line ALU body per loop trip, no memory traffic.
    Compute { iters: u32 },
    /// Every node reads the same `blocks` blocks homed at node 0 and
    /// sums them: each block's sharer set grows to the whole machine.
    FanIn { blocks: usize },
}

pub struct Loop {
    kind: Kind,
    cfg: MachineConfig,
    /// Initial words (`StallHeavy`, `FanIn`) or registers (`Compute`).
    values: Vec<i32>,
}

pub fn stall_heavy(o: &Opts) -> Loop {
    let cfg = MachineConfig {
        topology: Topology::new(2, 4),
        mem_latency: 250,
        net: NetConfig {
            hop_latency: 16,
            loopback_latency: 1,
        },
        ..MachineConfig::default()
    };
    Loop {
        kind: Kind::StallHeavy {
            iters: if o.smoke { 20 } else { 2000 },
        },
        values: seeded_values(o.seed, cfg.num_nodes()),
        cfg,
    }
}

pub fn compute(o: &Opts) -> Loop {
    Loop {
        kind: Kind::Compute {
            iters: if o.smoke { 1000 } else { 150_000 },
        },
        cfg: MachineConfig {
            topology: Topology::new(2, 4),
            ..MachineConfig::default()
        },
        values: seeded_values(o.seed, 4),
    }
}

pub fn fanin(o: &Opts) -> Loop {
    let mut cfg = MachineConfig {
        topology: Topology::new(2, if o.smoke { 9 } else { 33 }),
        region_bytes: 0x1_0000,
        ..MachineConfig::default()
    };
    cfg.dir.kind = DirectoryKind::LimitedPtr { ptrs: 8 };
    let blocks = 1;
    Loop {
        kind: Kind::FanIn { blocks },
        cfg,
        values: seeded_values(o.seed, blocks),
    }
}

const COMPUTE_BODY: &str = "add r1, 4, r1\nxor r2, r1, r2\nsub r3, 4, r3\nadd r4, r2, r4\n";

impl Loop {
    fn source(&self) -> String {
        match self.kind {
            Kind::StallHeavy { iters } => format!(
                "
                .entry main
                main:
                    ldio 1, r8         ; node id (fixnum == 4*id: byte offset!)
                    movi {SHARED}, r9
                    add r9, r8, r9     ; my word within the shared region
                    movi {iters}, r10
                loop:
                    ld r9+0, r11       ; remote read miss
                    add r11, 4, r11    ; increment (fixnum +1)
                    st r11, r9+0       ; write-upgrade miss
                    flush r9+0         ; evict: the next ld misses again
                    sub r10, 1, r10
                    jne loop
                    nop
                    halt
                "
            ),
            Kind::Compute { iters } => {
                let init: String = (1..=4)
                    .map(|r| format!("movi {}, r{r}\n", 4 * self.values[r - 1]))
                    .collect();
                let body = COMPUTE_BODY.repeat(8);
                format!(
                    "
                    .entry main
                    main:
                        {init}
                        movi {iters}, r10
                    loop:
                        {body}
                        sub r10, 1, r10
                        jne loop
                        nop
                        halt
                    "
                )
            }
            Kind::FanIn { blocks } => {
                let mut s = String::from(
                    "
                    .entry main
                    main:
                        ldio 1, r8         ; node id (fixnum == 4*id)
                        add r8, r8, r8
                        add r8, r8, r8     ; 16*id: one whole block per node
                        movi 0x1000, r9
                        add r9, r8, r9     ; my private block
                        movi 4, r10
                        st r10, r9+0
                        movi 0x200, r4
                    ",
                );
                for i in 0..blocks {
                    s.push_str(&format!("ld r4+{}, r11\nadd r12, r11, r12\n", 16 * i));
                }
                s.push_str("halt\n");
                s
            }
        }
    }

    /// What every node must hold when the run ends.
    fn oracle(&self, m: &Alewife) -> Option<String> {
        match self.kind {
            Kind::StallHeavy { iters } => check_words(m.mem(), &self.values, iters),
            Kind::Compute { iters } => {
                let mut r: Vec<u32> = self.values.iter().map(|v| 4 * *v as u32).collect();
                for _ in 0..iters as u64 * 8 {
                    r[0] = r[0].wrapping_add(4);
                    r[1] ^= r[0];
                    r[2] = r[2].wrapping_sub(4);
                    r[3] = r[3].wrapping_add(r[1]);
                }
                (0..m.num_procs()).find_map(|i| {
                    let got: Vec<u32> = (1..=4).map(|k| m.cpu(i).get_reg(Reg::L(k)).0).collect();
                    (got != r).then(|| format!("node {i}: r1..r4 = {got:x?}, expected {r:x?}"))
                })
            }
            Kind::FanIn { .. } => {
                let want: i32 = self.values.iter().sum();
                (0..m.num_procs()).find_map(|i| {
                    let got = m.cpu(i).get_reg(Reg::L(12)).as_fixnum();
                    (got != Some(want)).then(|| format!("node {i}: sum {got:?}, expected {want}"))
                })
            }
        }
    }

    fn build(&self, tr: &mut Tracer) -> Alewife {
        let span = tr.begin("core.assemble");
        let prog = assemble(&self.source()).expect("workload assembles");
        tr.end(span);
        let span = tr.begin("machine.construct");
        let m = Alewife::new(self.cfg, prog);
        tr.end(span);
        m
    }

    fn boot(&self, m: &mut Alewife, tr: &mut Tracer) {
        let span = tr.begin("machine.boot");
        match self.kind {
            Kind::StallHeavy { .. } => place_words(m.mem_mut(), &self.values),
            Kind::FanIn { .. } => {
                for (i, v) in self.values.iter().enumerate() {
                    m.mem_mut().write(SHARED + 16 * i as u32, Word::fixnum(*v));
                }
            }
            Kind::Compute { .. } => {}
        }
        m.boot_all();
        tr.end(span);
    }
}

impl Batch for Loop {
    type Ready = Alewife;
    type Done = Alewife;

    fn setup(&self, tr: &mut Tracer) -> Alewife {
        let mut m = self.build(tr);
        self.boot(&mut m, tr);
        m
    }

    fn run(&self, m: Alewife, tr: &mut Tracer) -> Alewife {
        run_machine(m, tr)
    }

    fn check(&self, m: Alewife, tr: &mut Tracer, layers: &mut Layers) -> Outcome {
        let json = stats_layers(&m.stats_report(), tr, layers);
        footprint_layers(m.nodes.iter(), m.mem(), layers);
        let failure = m
            .fault()
            .map(|f| format!("machine fault: {f}"))
            .or_else(|| self.oracle(&m));
        Outcome {
            nodes: m.num_procs(),
            cycles: m.now(),
            instrs: m.total_stats().instructions,
            digest: digest(json.as_bytes()),
            failure,
        }
    }

    /// `stall_heavy_16node` only: the same run with the simulator's own
    /// event probes attached (april-obs), against the untraced wall.
    fn extras(&self, untraced_wall_s: f64, layers: &mut Layers) {
        if !matches!(self.kind, Kind::StallHeavy { .. }) {
            return;
        }
        let mut off = Tracer::off();
        let mut walls = Vec::new();
        for _ in 0..5 {
            let mut m = self.build(&mut off);
            m.attach_tracer(TraceConfig::default());
            self.boot(&mut m, &mut off);
            let watch = Stopwatch::start();
            let m = run_machine(m, &mut off);
            let wall = watch.stop();
            walls.push(wall);
            layers.put(
                "obs.traced_cycles_per_s",
                m.now() as f64 / wall.calibrated_s(),
            );
            layers.put("obs.trace_events", m.collect_trace().emitted() as f64);
        }
        layers.put("obs.trace_slowdown", quiet_s(&walls) / untraced_wall_s);
    }
}
