//! `apps`: the paper's application figures. Cannon (N = 30240) and
//! Minimod (1200³), each in its DiOMP and MPI variant, at every
//! platform's smallest and largest paper GPU count (A: 4/40 and 4/32,
//! B: 8/64), all cost-only. These load the device kernel model, `core`
//! RMA and `fabric` puts, gets and halos at ≤ 64 ranks, and bypass
//! collectives, Auto and large-communicator init. The app entry points
//! build their own machine, so set-up here is what precedes the first
//! run call: the platform tables and the run configurations.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use diomp_apps::cannon::{self, CannonConfig};
use diomp_apps::minimod::{self, HaloStyle, MinimodConfig};
use diomp_bench::paper;
use diomp_core::{DiompConfig, DiompRuntime};
use diomp_device::{DataMode, DeviceTable};
use diomp_fabric::{gasnet, gpi, FabricWorld, Loc, MpiRank};
use diomp_sim::{ClusterSpec, Ctx, Dur, PlatformSpec, Sim, Topology, Wait};

use crate::trace::{self, APPS, BENCH, CORE, FABRIC};
use crate::{guarded, stats, Metric, Pass, Report, Workload};

/// Set-ups timed per pass: one set-up takes tens of microseconds, so
/// a pass times this many back to back and reports their mean.
pub const SETUP_REPS: u32 = 200;

/// Minimod time steps simulated per run (the paper runs 1000; steady
/// per-step times make speedups step-count invariant, as in `fig8`).
pub const MINIMOD_STEPS: usize = 40;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum App {
    Cannon,
    Minimod,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Plat {
    A,
    B,
}

impl Plat {
    fn spec(self) -> PlatformSpec {
        match self {
            Plat::A => PlatformSpec::platform_a(),
            Plat::B => PlatformSpec::platform_b(),
        }
    }
}

/// One (app, platform, GPU count) cell.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub app: App,
    pub plat: Plat,
    pub gpus: usize,
}

impl Cell {
    /// `cannon_a40`, `minimod_b8`, ...
    pub fn tag(&self) -> String {
        let app = match self.app {
            App::Cannon => "cannon",
            App::Minimod => "minimod",
        };
        let plat = match self.plat {
            Plat::A => 'a',
            Plat::B => 'b',
        };
        format!("{app}_{plat}{}", self.gpus)
    }
}

const fn cell(app: App, plat: Plat, gpus: usize) -> Cell {
    Cell { app, plat, gpus }
}

/// Smallest and largest paper GPU counts per app and platform.
pub const CELLS: [Cell; 8] = [
    cell(App::Cannon, Plat::A, paper::FIG7_GPUS_A[0]),
    cell(App::Cannon, Plat::A, paper::FIG7_GPUS_A[paper::FIG7_GPUS_A.len() - 1]),
    cell(App::Cannon, Plat::B, paper::FIG7_GPUS_B[0]),
    cell(App::Cannon, Plat::B, paper::FIG7_GPUS_B[paper::FIG7_GPUS_B.len() - 1]),
    cell(App::Minimod, Plat::A, paper::FIG8_GPUS_A[0]),
    cell(App::Minimod, Plat::A, paper::FIG8_GPUS_A[paper::FIG8_GPUS_A.len() - 1]),
    cell(App::Minimod, Plat::B, paper::FIG8_GPUS_B[0]),
    cell(App::Minimod, Plat::B, paper::FIG8_GPUS_B[paper::FIG8_GPUS_B.len() - 1]),
];

/// Which implementation of an app.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Impl {
    Diomp,
    Mpi,
}

impl Impl {
    pub const ALL: [Impl; 2] = [Impl::Diomp, Impl::Mpi];

    pub fn tag(self) -> &'static str {
        match self {
            Impl::Diomp => "diomp",
            Impl::Mpi => "mpi",
        }
    }
}

fn cannon_cfg(platform: PlatformSpec, gpus: usize, n: usize, mode: DataMode) -> CannonConfig {
    CannonConfig { platform, gpus, n, mode, verify: mode == DataMode::Functional }
}

fn minimod_cfg(
    platform: PlatformSpec,
    gpus: usize,
    (nxy, nz, steps): (usize, usize, usize),
    mode: DataMode,
) -> MinimodConfig {
    MinimodConfig {
        platform,
        gpus,
        nx: nxy,
        ny: nxy,
        nz,
        steps,
        mode,
        verify: mode == DataMode::Functional,
        halo: HaloStyle::Get,
        tuned: false,
    }
}

const PAPER_GRID: (usize, usize, usize) = (paper::FIG8_GRID, paper::FIG8_GRID, MINIMOD_STEPS);

/// The payload sizes the layer probes time: Cannon's stripe at the
/// largest platform-A count, and Minimod's halo message.
pub fn probe_sizes() -> [u64; 2] {
    let a = PlatformSpec::platform_a();
    let stripe = cannon_cfg(a.clone(), CELLS[1].gpus, paper::FIG7_N, DataMode::CostOnly);
    let halo = minimod_cfg(a, CELLS[5].gpus, PAPER_GRID, DataMode::CostOnly);
    [stripe.stripe_bytes(), halo.halo_bytes()]
}

/// A configured run.
#[derive(Clone)]
enum RunCfg {
    Cannon(CannonConfig),
    Minimod(MinimodConfig),
}

impl RunCfg {
    fn new(c: &Cell, platform: PlatformSpec) -> RunCfg {
        match c.app {
            App::Cannon => {
                RunCfg::Cannon(cannon_cfg(platform, c.gpus, paper::FIG7_N, DataMode::CostOnly))
            }
            App::Minimod => {
                RunCfg::Minimod(minimod_cfg(platform, c.gpus, PAPER_GRID, DataMode::CostOnly))
            }
        }
    }

    /// Run it: `(virtual elapsed, verified)`.
    fn run(&self, imp: Impl) -> (Dur, bool) {
        match (self, imp) {
            (RunCfg::Cannon(c), Impl::Diomp) => {
                let r = cannon::diomp::run(c);
                (r.elapsed, r.verified)
            }
            (RunCfg::Cannon(c), Impl::Mpi) => {
                let r = cannon::mpi::run(c);
                (r.elapsed, r.verified)
            }
            (RunCfg::Minimod(c), Impl::Diomp) => {
                let r = minimod::diomp::run(c);
                (r.elapsed, r.verified)
            }
            (RunCfg::Minimod(c), Impl::Mpi) => {
                let r = minimod::mpi::run(c);
                (r.elapsed, r.verified)
            }
        }
    }

    /// Virtual time of one iteration's kernel, and iterations per run.
    fn kernel(&self) -> (Dur, usize) {
        match self {
            RunCfg::Cannon(c) => (c.gemm_cost().duration(&c.platform.gpu), c.gpus),
            RunCfg::Minimod(c) => (c.stencil_cost(c.nz_local()).duration(&c.platform.gpu), c.steps),
        }
    }
}

/// Every run of a pass, in (cell, impl) order.
type Runs = Vec<(Cell, Impl, RunCfg)>;

/// Set-up: the platform tables and every run configuration.
fn setup() -> Runs {
    let (a, b) = (Plat::A.spec(), Plat::B.spec());
    CELLS
        .iter()
        .flat_map(|c| {
            let p = if c.plat == Plat::A { a.clone() } else { b.clone() };
            let cfg = RunCfg::new(c, p);
            Impl::ALL.map(|imp| (*c, imp, cfg.clone()))
        })
        .collect()
}

/// Virtual elapsed time of every run of one pass, µs.
struct Times(Vec<(Cell, Impl, f64)>);

impl Times {
    fn get(&self, app: App, plat: Plat, largest: bool, imp: Impl) -> f64 {
        let mut v: Vec<_> =
            self.0.iter().filter(|(c, i, _)| c.app == app && c.plat == plat && *i == imp).collect();
        v.sort_by_key(|(c, _, _)| c.gpus);
        let pick = if largest { v.last() } else { v.first() };
        pick.expect("cell present").2
    }

    /// Fig. 7 speedups: each implementation over its own smallest count.
    fn fig7(&self, plat: Plat, imp: Impl) -> f64 {
        self.get(App::Cannon, plat, false, imp) / self.get(App::Cannon, plat, true, imp)
    }

    /// Fig. 8 speedups: over MPI at the smallest count.
    fn fig8(&self, plat: Plat, imp: Impl) -> f64 {
        self.get(App::Minimod, plat, false, Impl::Mpi) / self.get(App::Minimod, plat, true, imp)
    }

    fn headline(&self) -> Vec<Metric> {
        let m = |name: &str, value: f64| Metric { name: name.into(), value, unit: "x" };
        let both = |f: &dyn Fn(Plat) -> f64| stats::geomean(&[f(Plat::A), f(Plat::B)]);
        let ratio = |app, plat| {
            self.get(app, plat, true, Impl::Mpi) / self.get(app, plat, true, Impl::Diomp)
        };
        let peaks = [
            (self.fig7(Plat::A, Impl::Diomp), paper::FIG7_PEAK_A.0),
            (self.fig7(Plat::A, Impl::Mpi), paper::FIG7_PEAK_A.1),
            (self.fig7(Plat::B, Impl::Diomp), paper::FIG7_PEAK_B.0),
            (self.fig7(Plat::B, Impl::Mpi), paper::FIG7_PEAK_B.1),
            (self.fig8(Plat::A, Impl::Diomp), paper::FIG8_PEAK_A.0),
            (self.fig8(Plat::A, Impl::Mpi), paper::FIG8_PEAK_A.1),
            (self.fig8(Plat::B, Impl::Diomp), paper::FIG8_PEAK_B.0),
            (self.fig8(Plat::B, Impl::Mpi), paper::FIG8_PEAK_B.1),
        ];
        vec![
            m("apps.matmul_speedup", both(&|p| self.fig7(p, Impl::Diomp))),
            m("apps.minimod_speedup", both(&|p| self.fig8(p, Impl::Diomp))),
            m(
                "apps.diomp_over_mpi",
                stats::geomean(&[
                    ratio(App::Cannon, Plat::A),
                    ratio(App::Cannon, Plat::B),
                    ratio(App::Minimod, Plat::A),
                    ratio(App::Minimod, Plat::B),
                ]),
            ),
            Metric { name: "apps.paper_gap".into(), value: stats::paper_gap(&peaks), unit: "ln" },
        ]
    }
}

/// The `apps` workload.
pub struct Apps {
    seed: u64,
    last: Option<(Runs, Times)>,
}

impl Apps {
    pub fn new(seed: u64) -> Self {
        Apps { seed, last: None }
    }
}

impl Workload for Apps {
    fn pass(&mut self) -> Pass {
        let start = Instant::now();
        let top = trace::begin("apps pass", BENCH, 0, None, 0);
        let s = trace::begin("setup", BENCH, 0, top, 0);
        let mut runs = setup();
        for _ in 1..SETUP_REPS {
            runs = std::hint::black_box(setup());
        }
        trace::end(s, 0);
        let setup_s = start.elapsed().as_secs_f64() / f64::from(SETUP_REPS);
        let run_start = Instant::now();
        let mut times = Vec::new();
        let mut failures = Vec::new();
        for (c, imp, cfg) in &runs {
            let name = format!("{}.{}", c.tag(), imp.tag());
            let s = trace::begin(&name, APPS, 0, top, 0);
            match guarded(|| cfg.run(*imp)) {
                Ok((elapsed, _)) => {
                    trace::end(s, elapsed.as_nanos());
                    times.push((*c, *imp, elapsed.as_nanos()));
                }
                Err(e) => {
                    trace::end(s, 0);
                    failures.push(format!("apps {name}: {e}"));
                }
            }
        }
        let run_s = run_start.elapsed().as_secs_f64();
        trace::end(top, 0);
        let pass = Pass {
            setup_s,
            run_s,
            op_vt_ns: times.iter().map(|t| t.2).collect(),
            attempted: runs.len() as u64,
            failed: failures.len() as u64,
            failures,
        };
        if pass.failed == 0 {
            let t = Times(times.into_iter().map(|(c, i, ns)| (c, i, ns as f64 / 1e3)).collect());
            self.last = Some((runs, t));
        }
        pass
    }

    fn headline(&self) -> Vec<Metric> {
        self.last.as_ref().map_or_else(Vec::new, |(_, t)| t.headline())
    }

    fn layers(&mut self, rep: &mut Report) {
        if let Some((runs, times)) = &self.last {
            for ((c, imp, cfg), (_, _, us)) in runs.iter().zip(&times.0) {
                rep.put(format!("apps.{}.{}_ms", c.tag(), imp.tag()), us / 1e3, "virtual_ms");
                if *imp == Impl::Diomp {
                    let (k, iters) = cfg.kernel();
                    let k_us = k.as_nanos() as f64 / 1e3;
                    rep.put(format!("device.kernel_us.{}", c.tag()), k_us, "virtual_us");
                    let share = k_us * iters as f64 / us;
                    rep.put(format!("device.compute_share.{}", c.tag()), share, "ratio");
                }
            }
        }
        for bytes in probe_sizes() {
            for (name, probe) in PROBES {
                let name = format!("{name}.{bytes}");
                match guarded(|| probe(bytes)) {
                    Ok(us) => rep.put(name, us, "virtual_us"),
                    Err(e) => rep.ops(1, 1, || format!("{name}: {e}")),
                }
            }
        }
    }

    fn check(&mut self, rep: &mut Report) {
        // Small functional runs; the seed picks the problem shapes.
        let n = 48 * (1 + (self.seed % 2) as usize);
        let nz = 32 + 16 * (self.seed % 2) as usize;
        for plat in [Plat::A, Plat::B] {
            let gpus = if plat == Plat::A { 4 } else { 8 };
            let runs = [
                RunCfg::Cannon(cannon_cfg(plat.spec(), gpus, n, DataMode::Functional)),
                RunCfg::Minimod(minimod_cfg(plat.spec(), gpus, (16, nz, 4), DataMode::Functional)),
            ];
            for cfg in &runs {
                for imp in Impl::ALL {
                    let res = guarded(|| cfg.run(imp).1);
                    rep.ops(1, u64::from(!matches!(res, Ok(true))), || {
                        let app = if let RunCfg::Cannon(_) = cfg { "cannon" } else { "minimod" };
                        let why = res.err().unwrap_or_else(|| "not verified".into());
                        format!("apps check {app} {plat:?}{gpus} {}: {why}", imp.tag())
                    });
                }
            }
        }
    }
}

/// The layer probes: metric prefix and virtual µs for a payload size.
type Probe = (&'static str, fn(u64) -> f64);
const PROBES: [Probe; 4] = [
    ("fabric.put_us.gasnet", gasnet_put_us),
    ("fabric.put_us.gpi", gpi_write_us),
    ("fabric.mpi_p2p_us", mpi_p2p_us),
    ("core.put_us", core_put_us),
];

/// A machine of `nodes` full nodes, cost-only, for the layer probes.
fn probe_world(platform: PlatformSpec, nodes: usize, heap: u64) -> (Sim, Arc<FabricWorld>) {
    let sim = Sim::new();
    let spec = ClusterSpec::full_nodes(platform, nodes);
    let nranks = spec.total_gpus();
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::CostOnly, Some(heap));
    (sim, FabricWorld::new(topo, devs, nranks))
}

fn probe_heap(bytes: u64) -> u64 {
    (4 * bytes + (1 << 20)).next_power_of_two()
}

/// Run one task that times `f` in virtual µs.
fn time_task(
    mut sim: Sim,
    layer: &'static str,
    name: String,
    f: impl FnOnce(&mut Ctx) + Send + 'static,
) -> f64 {
    let out = Arc::new(Mutex::new(0.0));
    let o = out.clone();
    sim.spawn("probe", move |ctx| {
        let t0 = ctx.now();
        let s = trace::begin(&name, layer, 0, None, t0.nanos());
        f(ctx);
        trace::end(s, ctx.now().nanos());
        *o.lock().expect("probe result poisoned") = ctx.now().since(t0).as_us();
    });
    sim.run().unwrap_or_else(|e| panic!("probe: {e}"));
    let v = *out.lock().expect("probe result poisoned");
    v
}

/// Inter-node `gasnet::put_blocking` on platform A, µs.
fn gasnet_put_us(bytes: u64) -> f64 {
    let p = PlatformSpec::platform_a();
    let target = p.gpus_per_node; // first device of node 1
    let (sim, world) = probe_world(p, 2, probe_heap(bytes));
    let src = world.primary_dev(0).malloc(bytes, 256).expect("probe source fits");
    let seg = world.attach_device_segment(target, target, bytes).expect("probe segment fits");
    time_task(sim, FABRIC, format!("gasnet::put_blocking {bytes}"), move |ctx| {
        gasnet::put_blocking(ctx, &world, 0, Loc::dev(0, src), seg, 0, bytes).expect("put");
    })
}

/// Inter-node `gpi::write` plus queue drain on platform C (GPI-2 needs
/// InfiniBand), µs.
fn gpi_write_us(bytes: u64) -> f64 {
    let (sim, world) = probe_world(PlatformSpec::platform_c(), 2, probe_heap(bytes));
    let src = world.primary_dev(0).malloc(bytes, 256).expect("probe source fits");
    let seg = world.attach_device_segment(1, 1, bytes).expect("probe segment fits");
    time_task(sim, FABRIC, format!("gpi::write {bytes}"), move |ctx| {
        let q = gpi::QueueId(0);
        gpi::write(ctx, &world, 0, q, Loc::dev(0, src), seg, 0, bytes).expect("write");
        gpi::wait_queue(ctx, &world, 0, q, Wait::Block).expect("queue drains");
    })
}

/// Inter-node MPI `Isend`/`Irecv` on platform A: both ranks start at
/// virtual 0; the time is the receive's completion, µs.
fn mpi_p2p_us(bytes: u64) -> f64 {
    let p = PlatformSpec::platform_a();
    let target = p.gpus_per_node;
    let (mut sim, world) = probe_world(p, 2, probe_heap(bytes));
    let out = Arc::new(Mutex::new(0.0));
    for r in [0, target] {
        let (world, out) = (world.clone(), out.clone());
        sim.spawn(format!("mpi{r}"), move |ctx| {
            let mpi = MpiRank::new(world.clone(), r);
            let buf = Loc::dev(r, world.primary_dev(r).malloc(bytes, 256).expect("probe fits"));
            let s = trace::begin(&format!("mpi p2p {bytes}"), FABRIC, r, None, 0);
            let req = if r == 0 {
                mpi.isend(ctx, target, 7, buf, bytes).expect("isend")
            } else {
                mpi.irecv(ctx, Some(0), Some(7), buf, bytes).expect("irecv")
            };
            mpi.wait(ctx, req);
            trace::end(s, ctx.now().nanos());
            if r != 0 {
                *out.lock().expect("probe result poisoned") = ctx.now().as_us();
            }
        });
    }
    sim.run().unwrap_or_else(|e| panic!("mpi probe: {e}"));
    let v = *out.lock().expect("probe result poisoned");
    v
}

/// Inter-node DiOMP runtime `put` plus `fence` on platform A, µs.
fn core_put_us(bytes: u64) -> f64 {
    let p = PlatformSpec::platform_a();
    let target = p.gpus_per_node;
    let cfg = DiompConfig::builder_on(p, 2)
        .with_mode(DataMode::CostOnly)
        .with_heap(probe_heap(bytes))
        .build();
    let out = Arc::new(Mutex::new(0.0));
    let o = out.clone();
    DiompRuntime::run(cfg, move |ctx, rank| {
        let ptr = rank.alloc_sym(ctx, bytes).expect("probe buffer fits");
        rank.barrier(ctx);
        if rank.rank == 0 {
            let t0 = ctx.now();
            let s = trace::begin(&format!("DiompRank::put {bytes}"), CORE, 0, None, t0.nanos());
            rank.put(ctx, target, ptr, 0, ptr, 0, bytes).expect("put");
            rank.fence(ctx);
            trace::end(s, ctx.now().nanos());
            *o.lock().expect("probe result poisoned") = ctx.now().since(t0).as_us();
        }
        rank.barrier(ctx);
    })
    .unwrap_or_else(|e| panic!("core probe: {e}"));
    let v = *out.lock().expect("probe result poisoned");
    v
}
