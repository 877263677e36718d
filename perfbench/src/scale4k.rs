//! `scale4k`: 4096 single-GPU nodes of platform C in cost-only mode, one
//! communicator under `CollEngine::Auto` running five collective cells
//! in order. This is where quadratic communicator init, per-rank thread
//! spawn and handoff, the closed-form schedule fast paths and Auto's
//! engine choices dominate; device kernels, RMA and QoS are bypassed.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use diomp_device::{DataMode, DeviceTable};
use diomp_fabric::{FabricWorld, ReduceOp};
use diomp_sim::{ClusterSpec, PlatformSpec, Sim, SimReport, Topology};
use diomp_xccl::{
    AutoConfig, CollEngine, CommOpts, DeviceBuf, RingConfig, UniqueId, XcclComm, XcclOp,
};

use rand::RngCore;

use crate::trace::{self, BENCH, DEVICE, FABRIC, SIM, XCCL};
use crate::{guarded, stats, Metric, Pass, Report, Workload};

/// Ranks (= nodes: one GPU per node).
pub const NRANKS: usize = 4096;
/// Ranks of the functional replay that checks the outputs.
pub const CHECK_RANKS: usize = 8;

const AR: XcclOp = XcclOp::AllReduce { op: ReduceOp::SumF32 };
const BC: XcclOp = XcclOp::Broadcast { root: 0 };

/// One collective of the sequence.
pub struct Cell {
    pub name: &'static str,
    pub op: XcclOp,
    pub bytes: u64,
}

/// The cells, run in this order on one communicator.
pub const CELLS: [Cell; 5] = [
    Cell { name: "ar64k", op: AR, bytes: 64 << 10 },
    Cell { name: "ar1m", op: AR, bytes: 1 << 20 },
    Cell { name: "ar16m", op: AR, bytes: 16 << 20 },
    Cell { name: "bc64k", op: BC, bytes: 64 << 10 },
    Cell { name: "bc1m", op: BC, bytes: 1 << 20 },
];
const NCELLS: usize = CELLS.len();
const MAX_BYTES: u64 = 16 << 20;

/// Which engine the communicator runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Arm {
    Auto,
    Ring,
    Dbt,
}

impl Arm {
    fn engine(self, p: &PlatformSpec) -> CollEngine {
        match self {
            Arm::Auto => CollEngine::Auto(AutoConfig::for_platform(p)),
            Arm::Ring => CollEngine::Ring(RingConfig::auto(p, &AR, 1)),
            Arm::Dbt => CollEngine::Dbt(RingConfig::auto(p, &AR, 1)),
        }
    }
}

/// How far each rank's task goes: the rungs of the set-up ladder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stage {
    /// Tasks return at once: spawn and handoff only.
    Empty,
    /// Tasks initialise the communicator and return.
    InitOnly,
    /// Init plus every cell.
    Full,
}

/// What one sub-run measured.
struct SubRun {
    /// Host seconds of `Sim::new`, `Topology::build`,
    /// `DeviceTable::build`, `FabricWorld::new` and the spawn loop.
    sim_s: f64,
    topo_s: f64,
    devices_s: f64,
    world_s: f64,
    spawn_s: f64,
    /// Host seconds of the `Sim::run` call.
    run_call_s: f64,
    /// Start of the sub-run to the last rank's return from init.
    setup_s: f64,
    /// Start of the sub-run to `Sim::run` returning.
    total_s: f64,
    /// Host seconds per cell, by last-rank return.
    cell_host_s: Vec<f64>,
    /// Virtual ns per cell, last rank's entry to last rank's return.
    cell_vt_ns: Vec<u64>,
    report: SimReport,
}

#[derive(Clone, Default)]
struct RankRec {
    init_ret: f64,
    entry_vt: [u64; NCELLS],
    ret_vt: [u64; NCELLS],
    ret_host: [f64; NCELLS],
}

fn sub_run(arm: Arm, stage: Stage) -> SubRun {
    let start = Instant::now();
    let secs = move |t: Instant| t.duration_since(start).as_secs_f64();
    let top = trace::begin(&format!("scale4k {arm:?} {stage:?}"), BENCH, 0, None, 0);
    let platform = PlatformSpec::platform_c();

    let timed =
        |name: &str, layer: &'static str| (Instant::now(), trace::begin(name, layer, 0, top, 0));
    let done = |(t, s): (Instant, trace::SpanId)| {
        trace::end(s, 0);
        t.elapsed().as_secs_f64()
    };
    let t = timed("Sim::new", SIM);
    let mut sim = Sim::new();
    let sim_s = done(t);
    let t = timed("Topology::build", SIM);
    let spec = ClusterSpec { platform: platform.clone(), nodes: NRANKS, gpus_per_node: 1 };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let topo_s = done(t);
    let t = timed("DeviceTable::build", DEVICE);
    let heap = (2 * MAX_BYTES + (1 << 20)).next_power_of_two();
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::CostOnly, Some(heap));
    let devices_s = done(t);
    let t = timed("FabricWorld::new", FABRIC);
    let world = FabricWorld::new(topo, devs, NRANKS);
    let world_s = done(t);

    let t = timed("spawn", SIM);
    let recs = Arc::new(Mutex::new(vec![RankRec::default(); NRANKS]));
    let engine = arm.engine(&platform);
    let id = UniqueId::generate();
    let ranks: Arc<Vec<usize>> = Arc::new((0..NRANKS).collect());
    for r in 0..NRANKS {
        let (world, recs, ranks) = (world.clone(), recs.clone(), ranks.clone());
        sim.spawn(format!("rank{r}"), move |ctx| {
            if stage == Stage::Empty {
                return;
            }
            let s = trace::begin("XcclComm::init", XCCL, r, top, ctx.now().nanos());
            let opts = CommOpts { engine, ..CommOpts::default() };
            let comm = XcclComm::init(ctx, &world, ranks.as_ref().clone(), r, id, opts);
            trace::end(s, ctx.now().nanos());
            recs.lock().expect("rank records poisoned")[r].init_ret = secs(Instant::now());
            if stage == Stage::InitOnly {
                return;
            }
            // Let every rank return from init before any enters the first
            // cell (zero virtual time), so set-up holds no collective work.
            ctx.yield_now();
            let off = world.primary_dev(r).malloc(MAX_BYTES, 256).expect("buffer fits the heap");
            for (k, c) in CELLS.iter().enumerate() {
                let t0 = ctx.now();
                let s = trace::begin(c.name, XCCL, r, top, t0.nanos());
                comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], c.op, c.bytes);
                let t1 = ctx.now();
                trace::end(s, t1.nanos());
                let mut g = recs.lock().expect("rank records poisoned");
                g[r].entry_vt[k] = t0.nanos();
                g[r].ret_vt[k] = t1.nanos();
                g[r].ret_host[k] = secs(Instant::now());
            }
        });
    }
    let spawn_s = done(t);

    let t = timed("Sim::run", SIM);
    let report = sim.run().unwrap_or_else(|e| panic!("scale4k {arm:?} {stage:?}: {e}"));
    let run_call_s = done(t);
    let total_s = secs(Instant::now());
    trace::end(top, report.end_time.nanos());

    let recs = recs.lock().expect("rank records poisoned");
    // Set-up and per-cell numbers exist only for the full stage.
    let (mut setup_s, mut cell_host_s, mut cell_vt_ns) = (0.0, vec![], vec![]);
    if stage == Stage::Full {
        let marks: Vec<Vec<f64>> =
            recs.iter().map(|r| std::iter::once(r.init_ret).chain(r.ret_host).collect()).collect();
        let phases = stats::last_return_phases(&marks, 0.0);
        let last = |f: &dyn Fn(&RankRec) -> u64| recs.iter().map(f).max().unwrap_or(0);
        setup_s = phases[0];
        cell_host_s = phases[1..].to_vec();
        cell_vt_ns = (0..NCELLS)
            .map(|k| last(&|r: &RankRec| r.ret_vt[k]) - last(&|r: &RankRec| r.entry_vt[k]))
            .collect();
    }
    SubRun {
        sim_s,
        topo_s,
        devices_s,
        world_s,
        spawn_s,
        run_call_s,
        setup_s,
        total_s,
        cell_host_s,
        cell_vt_ns,
        report,
    }
}

/// Modelled wire bytes of one pass: `wire_factor × size` per cell.
fn wire_bytes() -> f64 {
    CELLS.iter().map(|c| c.op.wire_factor(NRANKS) * c.bytes as f64).sum()
}

/// The `scale4k` workload.
pub struct Scale4k {
    seed: u64,
    last: Option<SubRun>,
}

impl Scale4k {
    pub fn new(seed: u64) -> Self {
        Scale4k { seed, last: None }
    }
}

impl Workload for Scale4k {
    /// Host set-up time per pass spreads 10–20% on a 2-core VM shared
    /// with other tenants;
    /// four passes steady its median.
    fn min_passes(&self) -> usize {
        4
    }

    fn pass(&mut self) -> Pass {
        let ops = NCELLS as u64;
        match guarded(|| sub_run(Arm::Auto, Stage::Full)) {
            Ok(r) => {
                let pass = Pass {
                    setup_s: r.setup_s,
                    run_s: r.cell_host_s.iter().sum(),
                    op_vt_ns: r.cell_vt_ns.clone(),
                    attempted: ops,
                    failed: 0,
                    failures: vec![],
                };
                self.last = Some(r);
                pass
            }
            Err(e) => Pass {
                setup_s: 0.0,
                run_s: 0.0,
                op_vt_ns: vec![],
                attempted: ops,
                failed: ops,
                failures: vec![e],
            },
        }
    }

    fn headline(&self) -> Vec<Metric> {
        let Some(r) = &self.last else { return vec![] };
        let us: Vec<f64> = r.cell_vt_ns.iter().map(|&n| n as f64 / 1e3).collect();
        vec![Metric {
            name: "xccl.coll_gm_us".into(),
            value: stats::geomean(&us),
            unit: "virtual_us",
        }]
    }

    fn layers(&mut self, rep: &mut Report) {
        let Some(r) = self.last.take() else { return };
        let entries = r.report.entries_processed as f64;
        rep.put("sim.entries", entries, "count");
        rep.put("sim.loop_s", r.report.sim_wall_ms / 1e3, "s");
        rep.put("sim.us_per_entry", r.report.sim_wall_ms * 1e3 / entries, "us");
        rep.put("sim.coalesced_chunks", r.report.coalesced_chunks as f64, "count");
        rep.put("device.build_s", r.devices_s, "s");
        rep.put("fabric.world_build_s", r.world_s, "s");
        rep.put("fabric.wire_gb", wire_bytes() / 1e9, "GB");
        println!(
            "set-up: Sim::new {:.4} s, Topology::build {:.4} s, spawn {:.4} s, Sim::run {:.3} s",
            r.sim_s, r.topo_s, r.spawn_s, r.run_call_s
        );
        for (k, c) in CELLS.iter().enumerate() {
            rep.put(format!("xccl.{}.vt_us", c.name), r.cell_vt_ns[k] as f64 / 1e3, "virtual_us");
            rep.put(format!("xccl.{}.host_s", c.name), r.cell_host_s[k], "s");
        }

        // Set-up ladder: empty tasks, then init only; init is the difference.
        match guarded(|| (sub_run(Arm::Auto, Stage::Empty), sub_run(Arm::Auto, Stage::InitOnly))) {
            Ok((rung0, rung1)) => {
                rep.put("sim.spawn_s", rung0.spawn_s, "s");
                rep.put("sim.handoff_s", rung0.run_call_s, "s");
                rep.put("xccl.init_s", rung1.total_s - rung0.total_s, "s");
                println!("ladder: empty {:.3} s, init-only {:.3} s", rung0.total_s, rung1.total_s);
            }
            Err(e) => rep.ops(1, 1, || format!("set-up ladder: {e}")),
        }

        // Pinned arms for regret.
        let pinned = guarded(|| (sub_run(Arm::Ring, Stage::Full), sub_run(Arm::Dbt, Stage::Full)));
        match pinned {
            Ok((ring, dbt)) => {
                rep.ops(2 * NCELLS as u64, 0, String::new);
                println!(
                    "{:>6} {:>12} {:>12} {:>12} {:>8}",
                    "cell", "auto_us", "dbt_us", "ring_us", "regret"
                );
                for (k, c) in CELLS.iter().enumerate() {
                    let us = |ns: u64| ns as f64 / 1e3;
                    let (a, d, g) =
                        (us(r.cell_vt_ns[k]), us(dbt.cell_vt_ns[k]), us(ring.cell_vt_ns[k]));
                    let regret = stats::regret(a, &[g, d]);
                    println!("{:>6} {a:>12.1} {d:>12.1} {g:>12.1} {regret:>8.2}", c.name);
                    rep.put(format!("xccl.{}.regret", c.name), regret, "x");
                }
            }
            Err(e) => rep.ops(2 * NCELLS as u64, 2 * NCELLS as u64, || format!("pinned arms: {e}")),
        }
    }

    fn check(&mut self, rep: &mut Report) {
        let ops = NCELLS as u64;
        match guarded(|| replay(self.seed)) {
            Ok(bad) => rep.ops(ops, bad.len() as u64, || {
                format!("scale4k functional replay: wrong output after {bad:?}")
            }),
            Err(e) => rep.ops(ops, ops, || format!("scale4k functional replay: {e}")),
        }
    }
}

fn f32_bytes(xs: &[f32]) -> Vec<u8> {
    xs.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Replay the cell sequence in `DataMode::Functional` on
/// [`CHECK_RANKS`] ranks under Auto, and compare every rank's buffer
/// after every cell with a sequential fold over the same inputs.
/// Inputs are small integers (seeded), so every summation order is
/// exact and the comparison is byte for byte. Returns the cells whose
/// output was wrong on some rank.
fn replay(seed: u64) -> Vec<&'static str> {
    let n = CHECK_RANKS;
    let words = (MAX_BYTES / 4) as usize;
    let platform = PlatformSpec::platform_c();
    let mut sim = Sim::new();
    let spec = ClusterSpec { platform: platform.clone(), nodes: n, gpus_per_node: 1 };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let heap = (2 * MAX_BYTES + (1 << 20)).next_power_of_two();
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::Functional, Some(heap));
    let world = FabricWorld::new(topo, devs.clone(), n);

    // Inputs go straight into device memory; `state` then folds them.
    let mut state: Vec<Vec<f32>> = Vec::with_capacity(n);
    let mut offs = Vec::with_capacity(n);
    for r in 0..n {
        let mut rng = diomp_sim::rng_for(seed, r as u64);
        let xs: Vec<f32> = (0..words).map(|_| (rng.next_u64() % 8) as f32).collect();
        let off = world.primary_dev(r).malloc(MAX_BYTES, 256).expect("buffer fits the heap");
        devs.dev(r).mem.write(off, &f32_bytes(&xs)).expect("input write in bounds");
        offs.push(off);
        state.push(xs);
    }
    // After each cell every rank's prefix equals rank 0's: the fold.
    let expected: Arc<Vec<Vec<u8>>> = Arc::new(
        CELLS
            .iter()
            .map(|c| {
                let len = (c.bytes / 4) as usize;
                if let XcclOp::AllReduce { .. } = c.op {
                    for i in 0..len {
                        let s: f32 = state.iter().map(|v| v[i]).sum();
                        state.iter_mut().for_each(|v| v[i] = s);
                    }
                } else {
                    let root = state[0][..len].to_vec();
                    state[1..].iter_mut().for_each(|v| v[..len].copy_from_slice(&root));
                }
                f32_bytes(&state[0][..len])
            })
            .collect(),
    );
    drop(state);

    let wrong = Arc::new(Mutex::new([false; NCELLS]));
    let engine = Arm::Auto.engine(&platform);
    let id = UniqueId::generate();
    for (r, &off) in offs.iter().enumerate() {
        let (world, expected, wrong) = (world.clone(), expected.clone(), wrong.clone());
        sim.spawn(format!("check{r}"), move |ctx| {
            let opts = CommOpts { engine, ..CommOpts::default() };
            let comm = XcclComm::init(ctx, &world, (0..n).collect(), r, id, opts);
            for (k, c) in CELLS.iter().enumerate() {
                comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], c.op, c.bytes);
                let mut got = vec![0u8; c.bytes as usize];
                world.devs.dev(r).mem.read(off, &mut got).expect("output read in bounds");
                if got != expected[k] {
                    wrong.lock().expect("check flags poisoned")[k] = true;
                }
            }
        });
    }
    sim.run().unwrap_or_else(|e| panic!("functional replay: {e}"));
    let wrong = *wrong.lock().expect("check flags poisoned");
    CELLS.iter().zip(wrong).filter(|(_, w)| *w).map(|(c, _)| c.name).collect()
}
