//! The §8 open-loop referee (DESIGN.md §15): the machine as a server
//! under seeded open arrivals, checked against the Section 8 model.
//! The most-saturated point calibrates the model from the machine's
//! own cycle ledger — useful work per request `W`, remote misses per
//! useful cycle `m`, non-useful cycles per miss `t_eff` — and every
//! below-knee point's throughput-derived utilization (`X·W`) must
//! match `open_loop_utilization(λ·W, m, t_eff, c)` within
//! [`TOLERANCE`]: predictive everywhere but the calibration point.

use april::core::isa::asm::assemble;
use april::machine::driver::{drive_sequential, SwitchSpin};
use april::machine::{
    service_program, Alewife, ArrivalPlan, Machine, MachineConfig, TrafficConfig,
};
use april::model::{open_loop_knee, open_loop_utilization};
use april::net::topology::Topology;

/// Absolute utilization error allowed between measurement and model.
const TOLERANCE: f64 = 0.15;
const REQUESTS: u32 = 256;
/// Mean inter-arrival gaps spanning the knee, lightest load first:
/// with ~83 useful cycles per request plus two remote misses of stall,
/// per-edge saturation lands between the 150- and 75-cycle gaps.
const GAPS: [u32; 6] = [1200, 600, 300, 150, 75, 40];

fn cfg(mean_gap: u32) -> MachineConfig {
    MachineConfig {
        topology: Topology::new(2, 2),
        region_bytes: 1 << 16,
        traffic: Some(TrafficConfig {
            edge_every: 2, // nodes 0 and 2 of the 2x2 mesh
            requests_per_edge: REQUESTS,
            mean_gap,
            phase_len: 0, // pure Poisson-like arrivals: clean knee
            off_mul: 1,
            ..TrafficConfig::default() // 2 remote loads + 16 ALU iterations per request
        }),
        ..MachineConfig::default()
    }
}

struct Point {
    mean_gap: u32,
    /// Offered and achieved rate per edge node (requests/cycle).
    lambda: f64,
    xput: f64,
    p999: u64,
    /// Machine-wide cycle-ledger buckets (for calibration).
    retired: u64,
    useful: u64,
    nonuseful: u64,
    remote_misses: u64,
}

fn run_point(mean_gap: u32) -> Point {
    let c = cfg(mean_gap);
    let plan = ArrivalPlan::build(&c).expect("traffic configured");
    let edges = plan.entries().len() as f64;
    let prog = assemble(&service_program(&c)).expect("service program assembles");
    let mut m = Alewife::new(c, prog);
    m.boot_all();
    let fault = drive_sequential(&mut m, &SwitchSpin::default(), 50_000_000);
    assert!(fault.is_none(), "gap {mean_gap}: faulted: {fault:?}");
    assert!(m.all_halted(), "gap {mean_gap}: machine did not quiesce");

    let report = m.stats_report();
    let t = report.section("traffic").expect("traffic section");
    let cpu = report.section("cpu").expect("cpu section");
    let counter = |s: &april::obs::Section, k: &str| s.get_counter(k).expect(k);
    let retired = counter(t, "retired");
    let latency = t.get_qhist("latency").expect("latency histogram");
    let nonuseful = [
        "trap_cycles",
        "handler_cycles",
        "stall_cycles",
        "idle_cycles",
    ];
    Point {
        mean_gap,
        lambda: f64::from(REQUESTS) / plan.horizon() as f64,
        xput: retired as f64 / edges / counter(t, "last_retire_cycle").max(1) as f64,
        p999: latency.quantile(0.999),
        retired,
        useful: counter(cpu, "useful_cycles"),
        nonuseful: nonuseful.iter().map(|k| counter(cpu, k)).sum(),
        remote_misses: counter(cpu, "remote_misses"),
    }
}

#[test]
fn below_knee_utilization_tracks_the_section_8_model() {
    let points: Vec<Point> = GAPS.iter().map(|&g| run_point(g)).collect();

    let sat = points.last().expect("at least one point");
    let w = sat.useful as f64 / sat.retired.max(1) as f64;
    let m = sat.remote_misses as f64 / sat.useful.max(1) as f64;
    let t_eff = sat.nonuseful as f64 / sat.remote_misses.max(1) as f64;
    let c = SwitchSpin::default().handler_cycles as f64;
    let knee = open_loop_knee(m, t_eff, c);
    println!(
        "calibration @ gap {}: W = {w:.1} cycles, m = {m:.4}, t_eff = {t_eff:.1}, knee = {knee:.3}",
        sat.mean_gap
    );

    let mut below = 0;
    for p in &points {
        let (gap, p999) = (p.mean_gap, p.p999);
        let offered = p.lambda * w;
        let measured = p.xput * w;
        let model = open_loop_utilization(offered, m, t_eff, c);
        let error = measured - model;
        println!(
            "gap {gap:>5}: offered {offered:.3}  measured {measured:.3}  model {model:.3}  \
             error {error:+.3}  p999 {p999}"
        );
        assert!(p999 > 0 && p999 < 1_000_000, "gap {gap}: no finite p999");
        if offered < knee {
            below += 1;
            assert!(
                error.abs() <= TOLERANCE,
                "below-knee point (gap {gap}): measured {measured:.4} vs model {model:.4}"
            );
        }
    }
    assert!(
        below >= 1 && below < points.len(),
        "sweep does not span the knee {knee:.3}: {below} point(s) below it"
    );
}
