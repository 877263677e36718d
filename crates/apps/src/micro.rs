//! Micro-benchmark drivers: point-to-point (Figs. 3–5) and collective
//! (Fig. 6) measurements.
//!
//! Each driver boots a fresh deterministic simulation per data point and
//! returns `(message size, metric)` series. The paper averages 100
//! repetitions after warm-ups; the simulator is deterministic, so one
//! warm-up (to populate caches, streams and communicators) plus a small
//! number of measured repetitions is exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use diomp_core::{CollEngine, Conduit, DiompConfig, DiompRuntime, PipelineConfig, ServerSpec};
use diomp_device::{DataMode, DeviceTable};
use diomp_fabric::{gasnet, gpi, FabricWorld, Loc, MpiRank, ReduceOp};
use diomp_sim::{bandwidth_gbps, ClusterSpec, PlatformSpec, Sim, SimTime, Topology, Wait};
use parking_lot::Mutex;

/// Which RMA direction a P2P micro-benchmark measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RmaOp {
    /// One-sided put (+ completion).
    Put,
    /// One-sided get.
    Get,
}

/// Which collective Fig. 6 measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollKind {
    /// Broadcast from rank 0.
    Broadcast,
    /// Sum all-reduce.
    AllReduce,
}

impl CollKind {
    /// The collective this kind measures.
    pub fn op(self) -> diomp_core::XcclOp {
        match self {
            CollKind::Broadcast => diomp_core::XcclOp::Broadcast { root: 0 },
            CollKind::AllReduce => diomp_core::XcclOp::AllReduce { op: ReduceOp::SumF32 },
        }
    }
}

const WARMUP: usize = 2;
const REPS: usize = 3;

/// DiOMP P2P latency in µs for each size (inter-node, device buffers) —
/// the "DiOMP Put/Get" curves of Fig. 3. Runs through the default
/// (tuned) path; Fig. 3's sizes sit far below every tuned chunk size, so
/// the published latency curves are untouched by the pipeline.
pub fn diomp_p2p_latency(platform: &PlatformSpec, op: RmaOp, sizes: &[u64]) -> Vec<(u64, f64)> {
    diomp_p2p(platform, Conduit::GasnetEx, op, sizes, false)
}

/// DiOMP P2P bandwidth in GB/s for each size — the Fig. 4 curves.
/// Explicitly opts the pipeline *out*: the paper's published bandwidth
/// curves (including the Fig. 4a put anomaly) are unpipelined.
pub fn diomp_p2p_bandwidth(platform: &PlatformSpec, op: RmaOp, sizes: &[u64]) -> Vec<(u64, f64)> {
    diomp_p2p_raw(platform, Conduit::GasnetEx, op, sizes, true)
}

/// DiOMP P2P bandwidth with the chunked large-message pipeline under an
/// *explicit* legacy configuration ([`PipelineConfig::enabled`], the PR 1
/// constants) — the "corrected"/pipelined counterpart of the Fig. 4 put
/// curves, kept as the explicit-config example of the precedence chain.
pub fn diomp_p2p_bandwidth_pipelined(
    platform: &PlatformSpec,
    op: RmaOp,
    sizes: &[u64],
) -> Vec<(u64, f64)> {
    diomp_p2p_full(platform, Conduit::GasnetEx, op, sizes, true, PipelineConfig::enabled())
        .into_iter()
        .map(|(s, m, _)| (s, m))
        .collect()
}

/// DiOMP P2P over a chosen conduit (Fig. 5: GASNet-EX vs GPI-2).
///
/// Every conduit takes the tuned pipeline by default
/// ([`PipelineConfig::auto`] — previously only the GASNet path had a
/// pipelined driver); the precedence is **explicit config > tuned >
/// disabled**, with [`diomp_p2p_raw`] as the explicit opt-out for the
/// paper's published unpipelined curves and [`diomp_p2p_full`] for any
/// explicit configuration (the benches use it directly when they need
/// the scheduler-entry counts alongside the metric).
pub fn diomp_p2p(
    platform: &PlatformSpec,
    conduit: Conduit,
    op: RmaOp,
    sizes: &[u64],
    bandwidth: bool,
) -> Vec<(u64, f64)> {
    diomp_p2p_full(platform, conduit, op, sizes, bandwidth, PipelineConfig::auto(platform, conduit))
        .into_iter()
        .map(|(s, m, _)| (s, m))
        .collect()
}

/// DiOMP P2P with the pipeline explicitly disabled — the opt-out used to
/// reproduce the paper's published (unpipelined) curves.
pub fn diomp_p2p_raw(
    platform: &PlatformSpec,
    conduit: Conduit,
    op: RmaOp,
    sizes: &[u64],
    bandwidth: bool,
) -> Vec<(u64, f64)> {
    diomp_p2p_full(platform, conduit, op, sizes, bandwidth, PipelineConfig::disabled())
        .into_iter()
        .map(|(s, m, _)| (s, m))
        .collect()
}

/// Full-fidelity P2P driver: `(size, metric, scheduler entries)` rows.
/// The entry count is the whole run's `SimReport::entries_processed` —
/// the wall-clock scheduler cost tracked in `BENCH_*.json`.
pub fn diomp_p2p_full(
    platform: &PlatformSpec,
    conduit: Conduit,
    op: RmaOp,
    sizes: &[u64],
    bandwidth: bool,
    pipeline: PipelineConfig,
) -> Vec<(u64, f64, u64)> {
    sizes
        .iter()
        .map(|&size| {
            let heap = (4 * size + (1 << 20)).next_power_of_two();
            let cfg = DiompConfig::builder_on(platform.clone(), 2)
                .with_mode(DataMode::CostOnly)
                .with_conduit(conduit)
                .with_heap(heap)
                .with_pipeline(pipeline)
                .build();
            let out = Arc::new(Mutex::new(0.0f64));
            let out2 = out.clone();
            let target = platform.gpus_per_node; // first device on node 1
            let rep = DiompRuntime::run(cfg, move |ctx, rank| {
                let ptr = rank.alloc_sym(ctx, 2 * size.max(64)).unwrap();
                rank.barrier(ctx);
                if rank.rank == 0 {
                    let mut acc = 0.0;
                    for i in 0..WARMUP + REPS {
                        let t0 = ctx.now();
                        match op {
                            RmaOp::Put => rank.put(ctx, target, ptr, 0, ptr, 0, size).unwrap(),
                            RmaOp::Get => rank.get(ctx, target, ptr, 0, ptr, 0, size).unwrap(),
                        }
                        rank.fence(ctx);
                        if i >= WARMUP {
                            acc += ctx.now().since(t0).as_us();
                        }
                    }
                    *out2.lock() = acc / REPS as f64;
                }
                rank.barrier(ctx);
            })
            .unwrap();
            let us = *out.lock();
            let metric =
                if bandwidth { bandwidth_gbps(size, diomp_sim::Dur::micros(us)) } else { us };
            (size, metric, rep.entries_processed)
        })
        .collect()
}

/// MPI RMA latency (µs) or bandwidth (GB/s) per size — the "MPI Put/Get"
/// curves of Figs. 3–4 (window put/get + flush).
pub fn mpi_p2p(
    platform: &PlatformSpec,
    op: RmaOp,
    sizes: &[u64],
    bandwidth: bool,
) -> Vec<(u64, f64)> {
    sizes
        .iter()
        .map(|&size| {
            let mut sim = Sim::new();
            let spec = ClusterSpec::full_nodes(platform.clone(), 2);
            let per_node = spec.gpus_per_node;
            let nranks = spec.total_gpus();
            let topo = Arc::new(Topology::build(&sim.handle(), spec));
            let devs = DeviceTable::build(
                &sim.handle(),
                topo.clone(),
                DataMode::CostOnly,
                Some((4 * size + (1 << 20)).next_power_of_two()),
            );
            let world = FabricWorld::new(topo, devs, nranks);
            let out = Arc::new(Mutex::new(0.0f64));
            for r in 0..nranks {
                let world = world.clone();
                let out = out.clone();
                sim.spawn(format!("rank{r}"), move |ctx| {
                    let mpi = MpiRank::new(world.clone(), r);
                    let base = world.primary_dev(r).malloc(2 * size.max(64), 256).unwrap();
                    let win = mpi.win_create(ctx, Loc::dev(r, base), 2 * size.max(64));
                    if r == 0 {
                        let mut acc = 0.0;
                        for i in 0..WARMUP + REPS {
                            let t0 = ctx.now();
                            match op {
                                RmaOp::Put => {
                                    mpi.win_put(ctx, win, per_node, 0, Loc::dev(0, base), size)
                                        .unwrap();
                                }
                                RmaOp::Get => {
                                    mpi.win_get(ctx, win, per_node, 0, Loc::dev(0, base), size)
                                        .unwrap();
                                }
                            }
                            mpi.win_flush(ctx, win);
                            if i >= WARMUP {
                                acc += ctx.now().since(t0).as_us();
                            }
                        }
                        *out.lock() = acc / REPS as f64;
                    }
                    mpi.barrier(ctx);
                });
            }
            sim.run().unwrap();
            let us = *out.lock();
            let metric =
                if bandwidth { bandwidth_gbps(size, diomp_sim::Dur::micros(us)) } else { us };
            (size, metric)
        })
        .collect()
}

/// DiOMP collective latency (µs) per size over `nodes` full nodes —
/// the OMPCCL side of Fig. 6, through the default engine (the emergent
/// ring protocol). The communicator is initialised during warm-up, as in
/// the paper's methodology.
pub fn diomp_collective(
    platform: &PlatformSpec,
    nodes: usize,
    kind: CollKind,
    sizes: &[u64],
) -> Vec<(u64, f64)> {
    diomp_collective_full(platform, nodes, kind, sizes, CollEngine::default())
        .into_iter()
        .map(|(s, us, _)| (s, us))
        .collect()
}

/// Like [`diomp_collective`] but through the transport autotuner's
/// protocol-selecting engine (`CollEngine::Auto`: per call, the engine
/// the pricing model prices cheapest). Returns the full-fidelity
/// `(size, µs, entries)` rows.
pub fn diomp_collective_auto(
    platform: &PlatformSpec,
    nodes: usize,
    kind: CollKind,
    sizes: &[u64],
) -> Vec<(u64, f64, u64)> {
    let engine = diomp_core::Tuner::new(platform, Conduit::GasnetEx).coll_engine();
    diomp_collective_full(platform, nodes, kind, sizes, engine)
}

/// The pricing model's view of the Fig. 6 communicator: per size, the
/// engine `CollEngine::Auto` runs (`XcclComm::auto_choice`) and the
/// priced µs of each of `engines` (`XcclComm::price_us`), read from rank
/// 0's OMPCCL communicator over the world group of the `nodes`-node
/// cluster under the transport autotuner's engine — the communicator
/// [`diomp_collective_auto`] measures on.
pub fn fig6_pricing(
    platform: &PlatformSpec,
    nodes: usize,
    kind: CollKind,
    sizes: &[u64],
    engines: &[CollEngine],
) -> Vec<(CollEngine, Vec<Option<f64>>)> {
    let op = kind.op();
    let cfg = DiompConfig::builder_on(platform.clone(), nodes)
        .with_mode(DataMode::CostOnly)
        .with_heap(1 << 20)
        .with_coll_engine(diomp_core::Tuner::new(platform, Conduit::GasnetEx).coll_engine())
        .build();
    let out = Arc::new(Mutex::new(Vec::new()));
    let (out2, sizes2, engines2) = (out.clone(), sizes.to_vec(), engines.to_vec());
    DiompRuntime::run(cfg, move |ctx, rank| {
        let world = rank.shared.world_group();
        let comm = rank.ompccl_comm(ctx, &world);
        if rank.rank == 0 {
            *out2.lock() = sizes2
                .iter()
                .map(|&s| {
                    let prices = engines2.iter().map(|e| comm.price_us(e, &op, s)).collect();
                    (comm.auto_choice(&op, s), prices)
                })
                .collect();
        }
    })
    .unwrap();
    let rows = out.lock().clone();
    rows
}

/// Like [`diomp_collective`] but pinned to the double-binary-tree
/// engine (`CollEngine::Dbt`) with its table-derived chunking. Returns
/// the full-fidelity `(size, µs, entries)` rows; used by `bench_gate`
/// to lock the DBT-vs-ring win relation.
pub fn diomp_collective_dbt(
    platform: &PlatformSpec,
    nodes: usize,
    kind: CollKind,
    sizes: &[u64],
) -> Vec<(u64, f64, u64)> {
    let op = match kind {
        CollKind::Broadcast => diomp_core::XcclOp::Broadcast { root: 0 },
        CollKind::AllReduce => diomp_core::XcclOp::AllReduce { op: ReduceOp::SumF32 },
    };
    let nrings = diomp_core::default_nrings(platform);
    let engine = CollEngine::Dbt(diomp_core::RingConfig::auto(platform, &op, nrings));
    diomp_collective_full(platform, nodes, kind, sizes, engine)
}

/// Like [`diomp_collective`] but on a cluster whose trailing
/// `server_nodes` nodes are carved out as data-passive in-network
/// reduction servers, pinned to the reduction-server engine
/// (`CollEngine::ReductionServer`) with its table-derived chunking.
/// Only allreduce has a server schedule; other ops fall back to the
/// ring over the full communicator. Returns the full-fidelity
/// `(size, µs, entries)` rows; used by `bench_gate` to lock the
/// server-offload win region.
pub fn diomp_collective_rserver(
    platform: &PlatformSpec,
    nodes: usize,
    server_nodes: usize,
    kind: CollKind,
    sizes: &[u64],
) -> Vec<(u64, f64, u64)> {
    let op = match kind {
        CollKind::Broadcast => diomp_core::XcclOp::Broadcast { root: 0 },
        CollKind::AllReduce => diomp_core::XcclOp::AllReduce { op: ReduceOp::SumF32 },
    };
    let nrings = diomp_core::default_nrings(platform);
    let engine = CollEngine::ReductionServer(diomp_core::RingConfig::auto(platform, &op, nrings));
    diomp_collective_served(platform, nodes, server_nodes, kind, sizes, engine)
}

/// Like [`diomp_collective`] but through the calibrated whole-collective
/// profiles — the curve-fit ablation baseline the emergent ring curves
/// are asserted against.
pub fn diomp_collective_profiled(
    platform: &PlatformSpec,
    nodes: usize,
    kind: CollKind,
    sizes: &[u64],
) -> Vec<(u64, f64)> {
    diomp_collective_full(platform, nodes, kind, sizes, CollEngine::Profile)
        .into_iter()
        .map(|(s, us, _)| (s, us))
        .collect()
}

/// Full-fidelity collective driver: `(size, µs, scheduler entries)` rows
/// through a chosen [`CollEngine`]. The entry count is the whole run's
/// `SimReport::entries_processed` — the wall-clock scheduler cost the
/// batched `wait_any` wait-groups keep bounded for the ring engine.
pub fn diomp_collective_full(
    platform: &PlatformSpec,
    nodes: usize,
    kind: CollKind,
    sizes: &[u64],
    engine: CollEngine,
) -> Vec<(u64, f64, u64)> {
    diomp_collective_served(platform, nodes, 0, kind, sizes, engine)
}

/// Like [`diomp_collective_rserver`] but with the engine chosen by the
/// caller: the same `nodes`-node cluster with its trailing
/// `server_nodes` carved out as reduction servers, run under any
/// [`CollEngine`]. This is what makes the bench gate's win-region
/// comparison fair — ring, DBT and the server schedule are timed on the
/// *same* hardware with the *same* communicator membership, differing
/// only in which protocol moves the bytes.
pub fn diomp_collective_served(
    platform: &PlatformSpec,
    nodes: usize,
    server_nodes: usize,
    kind: CollKind,
    sizes: &[u64],
    engine: CollEngine,
) -> Vec<(u64, f64, u64)> {
    sizes
        .iter()
        .map(|&size| {
            let heap = (2 * size + (1 << 20)).next_power_of_two();
            let cfg = DiompConfig::builder_on(platform.clone(), nodes)
                .with_mode(DataMode::CostOnly)
                .with_heap(heap)
                .with_coll_engine(engine)
                .with_coll_servers(ServerSpec::tail(server_nodes))
                .build();
            let done = Arc::new(Mutex::new((SimTime::ZERO, SimTime::ZERO)));
            let done2 = done.clone();
            let rep = DiompRuntime::run(cfg, move |ctx, rank| {
                let world = rank.shared.world_group();
                let ptr = rank.alloc_sym(ctx, size.max(64)).unwrap();
                // Warm-up round initialises the communicator and rings.
                for _ in 0..WARMUP {
                    match kind {
                        CollKind::Broadcast => rank.bcast(ctx, &world, 0, ptr, size),
                        CollKind::AllReduce => {
                            rank.allreduce(ctx, &world, ptr, size, ReduceOp::SumF32)
                        }
                    }
                }
                rank.barrier(ctx);
                let t0 = ctx.now();
                let mut t1 = t0;
                for _ in 0..REPS {
                    match kind {
                        CollKind::Broadcast => rank.bcast(ctx, &world, 0, ptr, size),
                        CollKind::AllReduce => {
                            rank.allreduce(ctx, &world, ptr, size, ReduceOp::SumF32)
                        }
                    }
                    t1 = ctx.now();
                }
                if rank.rank == 0 {
                    *done2.lock() = (t0, t1);
                }
                rank.barrier(ctx);
            })
            .unwrap();
            let (t0, t1) = *done.lock();
            (size, t1.since(t0).as_us() / REPS as f64, rep.entries_processed)
        })
        .collect()
}

/// MPI collective latency (µs) per size — the MPI side of Fig. 6.
/// Completion is the latest rank's finish time, like the vendor-library
/// measurement.
pub fn mpi_collective(
    platform: &PlatformSpec,
    nodes: usize,
    kind: CollKind,
    sizes: &[u64],
) -> Vec<(u64, f64)> {
    sizes
        .iter()
        .map(|&size| {
            let mut sim = Sim::new();
            let spec = ClusterSpec::full_nodes(platform.clone(), nodes);
            let nranks = spec.total_gpus();
            let topo = Arc::new(Topology::build(&sim.handle(), spec));
            let devs = DeviceTable::build(
                &sim.handle(),
                topo.clone(),
                DataMode::CostOnly,
                Some((4 * size + (1 << 20)).next_power_of_two()),
            );
            let world = FabricWorld::new(topo, devs, nranks);
            // (start, latest finish) across ranks, per measured rep.
            let marks = Arc::new(Mutex::new((SimTime::ZERO, SimTime::ZERO)));
            for r in 0..nranks {
                let world = world.clone();
                let marks = marks.clone();
                sim.spawn(format!("rank{r}"), move |ctx| {
                    let mut mpi = MpiRank::new(world.clone(), r);
                    let base = world.primary_dev(r).malloc(size.max(64), 256).unwrap();
                    let buf = Loc::dev(r, base);
                    for _ in 0..WARMUP {
                        match kind {
                            CollKind::Broadcast => mpi.bcast(ctx, 0, buf.clone(), size).unwrap(),
                            CollKind::AllReduce => {
                                mpi.allreduce(ctx, buf.clone(), size, ReduceOp::SumF32).unwrap()
                            }
                        }
                    }
                    mpi.barrier(ctx);
                    let t0 = ctx.now();
                    for _ in 0..REPS {
                        match kind {
                            CollKind::Broadcast => mpi.bcast(ctx, 0, buf.clone(), size).unwrap(),
                            CollKind::AllReduce => {
                                mpi.allreduce(ctx, buf.clone(), size, ReduceOp::SumF32).unwrap()
                            }
                        }
                    }
                    let t1 = ctx.now();
                    let mut m = marks.lock();
                    if m.0 == SimTime::ZERO || t0 < m.0 {
                        m.0 = t0;
                    }
                    m.1 = m.1.max(t1);
                });
            }
            sim.run().unwrap();
            let (t0, t1) = *marks.lock();
            (size, t1.since(t0).as_us() / REPS as f64)
        })
        .collect()
}

/// Fig. 6's reported metric: `log10(t_MPI / t_DiOMP)` per size.
pub fn log_ratio(mpi: &[(u64, f64)], diomp: &[(u64, f64)]) -> Vec<(u64, f64)> {
    mpi.iter()
        .zip(diomp)
        .map(|(&(s, m), &(s2, d))| {
            assert_eq!(s, s2);
            (s, (m / d).log10())
        })
        .collect()
}

/// The per-figure GPU/node counts of the paper's §4.3 setup.
pub fn fig6_nodes(platform: &PlatformSpec) -> usize {
    match platform.id {
        diomp_sim::PlatformId::A => 16, // 64 GPUs
        diomp_sim::PlatformId::B => 8,  // 64 GCDs
        diomp_sim::PlatformId::C => 16, // 16 GPUs
        diomp_sim::PlatformId::Custom => 4,
    }
}

/// A `(message size, metric)` series, as returned by every driver here.
pub type Series = Vec<(u64, f64)>;

/// GPI-2 vs GASNet-EX bandwidth on the InfiniBand platform (Fig. 5).
pub fn conduit_bandwidth(op: RmaOp, sizes: &[u64]) -> (Series, Series) {
    let c = PlatformSpec::platform_c();
    let gasnet = diomp_p2p(&c, Conduit::GasnetEx, op, sizes, true);
    let gpi = diomp_p2p(&c, Conduit::Gpi2, op, sizes, true);
    (gasnet, gpi)
}

/// Raw-conduit single-op latency check used by tests: GASNet put vs GPI
/// write on platform C at one size.
pub fn conduit_single_put_us(conduit: Conduit, size: u64) -> f64 {
    let c = PlatformSpec::platform_c();
    let series = diomp_p2p(&c, conduit, RmaOp::Put, &[size], false);
    series[0].1
}

/// Convenience: make sure raw gasnet/gpi modules stay exercised from the
/// apps layer (compile-time link of the public conduit APIs).
#[allow(dead_code)]
fn _conduit_api_surface(
    ctx: &mut diomp_sim::Ctx,
    world: &Arc<FabricWorld>,
    seg: diomp_fabric::SegmentId,
) {
    let _ = gasnet::put_blocking(ctx, world, 0, Loc::dev(0, 0), seg, 0, 8);
    gpi::wait_queue(ctx, world, 0, gpi::QueueId(0), Wait::Block).unwrap();
    gpi::wait_all_queues(ctx, world, 0, Wait::Block).unwrap();
}

/// Which engine a scale-sweep cell runs (`fig_scale`, the O(10k)-rank
/// allreduce sweep).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScaleEngine {
    /// Chunk-pipelined ring, table-tuned chunking.
    Ring,
    /// Double binary tree, table-tuned chunking.
    Dbt,
    /// The priced Auto dispatcher.
    Auto,
}

impl ScaleEngine {
    /// Stable row tag used in `BENCH_scale.json` record names.
    pub fn tag(self) -> &'static str {
        match self {
            ScaleEngine::Ring => "ring",
            ScaleEngine::Dbt => "dbt",
            ScaleEngine::Auto => "auto",
        }
    }

    /// The engine on the live per-op chunking of `op`.
    fn engine(self, platform: &PlatformSpec, op: &diomp_core::XcclOp) -> CollEngine {
        match self {
            ScaleEngine::Ring => CollEngine::Ring(diomp_core::RingConfig::auto(platform, op, 1)),
            ScaleEngine::Dbt => CollEngine::Dbt(diomp_core::RingConfig::auto(platform, op, 1)),
            ScaleEngine::Auto => CollEngine::Auto(diomp_core::AutoConfig::for_platform(platform)),
        }
    }
}

/// One scale-sweep measurement: the virtual end time plus the
/// simulator's *own* scheduler cost for the run.
pub struct ScaleRun {
    /// Virtual end-of-run time in nanoseconds — bit-comparable between
    /// the coalesced and forced-explicit arms.
    pub end_ns: u64,
    /// Virtual nanoseconds of the collective alone: the last rank's
    /// entry to the end of the run (the communicator's init charge
    /// precedes it).
    pub coll_ns: u64,
    /// Scheduler heap entries popped over the whole run.
    pub entries: u64,
    /// Chunk completions credited to coalesced wake entries (0 on the
    /// forced-explicit arm).
    pub coalesced: u64,
    /// Wall-clock milliseconds the scheduler loop itself took.
    pub sim_wall_ms: f64,
}

/// Run one `bytes`-byte collective of `kind` over `nranks` single-GPU
/// nodes of the NDR-IB platform (C) in cost-only mode — one `fig_scale`
/// cell (allreduce) or one `bench_gate` scale-regret cell. Every
/// rank is its own node, so the ring is single-rail and every edge
/// crosses the network; rank count, not node fan-out, is the swept
/// variable. With `forced_explicit` the run pins the per-chunk event
/// driver ([`Sim::force_explicit_schedules`]) — the uncoalesced
/// reference arm; virtual time must be bit-identical either way, which
/// `fig_scale` and the bench gate assert wherever both arms run.
pub fn scale_collective(
    nranks: usize,
    sel: ScaleEngine,
    kind: CollKind,
    bytes: u64,
    forced_explicit: bool,
) -> ScaleRun {
    use diomp_core::{CommOpts, DeviceBuf, UniqueId, XcclComm};
    let platform = PlatformSpec::platform_c();
    let mut sim = Sim::new();
    if forced_explicit {
        sim.force_explicit_schedules(true);
    }
    let spec = ClusterSpec { platform: platform.clone(), nodes: nranks, gpus_per_node: 1 };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let heap = (2 * bytes + (1 << 20)).next_power_of_two();
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::CostOnly, Some(heap));
    let world = FabricWorld::new(topo, devs, nranks);
    let op = kind.op();
    let engine = sel.engine(&platform, &op);
    let id = UniqueId::generate();
    let ranks: Arc<Vec<usize>> = Arc::new((0..nranks).collect());
    let entry = Arc::new(AtomicU64::new(0));
    for r in 0..nranks {
        let (world, ranks, entry) = (world.clone(), ranks.clone(), entry.clone());
        sim.spawn(format!("rank{r}"), move |ctx| {
            let comm = XcclComm::init(
                ctx,
                &world,
                ranks.as_ref().clone(),
                r,
                id,
                CommOpts { engine, ..CommOpts::default() },
            );
            let dev = world.primary_dev(r);
            let off = dev.malloc(bytes.max(64), 256).unwrap();
            entry.fetch_max(ctx.now().nanos(), Ordering::Relaxed);
            comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, bytes);
        });
    }
    let rep = sim.run().expect("scale sweep deadlocked");
    ScaleRun {
        end_ns: rep.end_time.nanos(),
        coll_ns: rep.end_time.nanos() - entry.load(Ordering::Relaxed),
        entries: rep.entries_processed,
        coalesced: rep.coalesced_chunks,
        sim_wall_ms: rep.sim_wall_ms,
    }
}
