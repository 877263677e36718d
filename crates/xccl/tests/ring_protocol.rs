//! Ring-protocol engine tests (ISSUE 2): data byte-identity against
//! sequential references across random sizes/dtypes/rank counts, trace
//! determinism of the emergent schedule, and emergent-vs-profile timing
//! behaviour. The `CollEngine::Auto` tests pin the dispatcher to its own
//! query: whatever `auto_choice` names, running that engine pinned is
//! bit-identical to the `Auto` call, on every platform, op, size and
//! fabric health.

use std::sync::Arc;

use diomp_device::{DataMode, DeviceTable};
use diomp_fabric::{FabricWorld, ReduceOp};
use diomp_sim::{ClusterSpec, FaultPlan, PlatformSpec, Sim, SimTime, Topology};
use diomp_xccl::{
    AutoConfig, CollEngine, CommOpts, DeviceBuf, RingConfig, UniqueId, XcclComm, XcclOp,
};
use proptest::prelude::*;

fn boot(
    sim: &Sim,
    platform: PlatformSpec,
    nodes: usize,
    per: usize,
    nranks: usize,
) -> Arc<FabricWorld> {
    let spec = ClusterSpec { platform, nodes, gpus_per_node: per };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::Functional, Some(8 << 20));
    FabricWorld::new(topo, devs, nranks)
}

/// Run `f` on every rank of a `nranks`-device platform-A job with a
/// communicator over all ranks using `engine`; returns (end time,
/// entries processed, trace lines).
fn with_engine(
    nranks: usize,
    engine: CollEngine,
    trace: bool,
    f: impl Fn(&mut diomp_sim::Ctx, &Arc<FabricWorld>, &Arc<XcclComm>, usize) + Send + Sync + 'static,
) -> (SimTime, u64, Vec<String>) {
    let mut sim = Sim::new();
    if trace {
        sim.enable_trace();
    }
    // One device per rank; pack nodes as densely as the rank count
    // divides so odd counts still form valid multi-node rings.
    let per = [4usize, 2, 1].into_iter().find(|&p| nranks.is_multiple_of(p)).unwrap();
    let world = boot(&sim, PlatformSpec::platform_a(), nranks / per, per, nranks);
    let id = UniqueId::generate();
    let f = Arc::new(f);
    for r in 0..nranks {
        let world = world.clone();
        let f = f.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            let bits = world.bootstrap.exchange(ctx, r, if r == 0 { id.bits() } else { 0 })[0];
            let comm = XcclComm::init(
                ctx,
                &world,
                (0..world.nranks).collect(),
                r,
                UniqueId::from_bits(bits),
                CommOpts { engine, ..CommOpts::default() },
            );
            f(ctx, &world, &comm, r);
        });
    }
    let rep = sim.run().unwrap();
    (rep.end_time, rep.entries_processed, rep.trace.iter().map(|t| t.to_string()).collect())
}

fn payload(rank: usize, len: usize, dtype: ReduceOp) -> Vec<u8> {
    // Integer-valued elements: sums/maxima are exact in every association
    // order, so the ring chain order and the sequential reference agree
    // bit-for-bit.
    let gen = |i: usize| ((rank * 7 + i * 3) % 100) as u64;
    let mut out = Vec::with_capacity(len);
    match dtype {
        ReduceOp::SumF64 | ReduceOp::MaxF64 => {
            for i in 0..len / 8 {
                out.extend((gen(i) as f64).to_le_bytes());
            }
        }
        ReduceOp::SumF32 => {
            for i in 0..len / 4 {
                out.extend((gen(i) as f32).to_le_bytes());
            }
        }
        ReduceOp::SumU64 => {
            for i in 0..len / 8 {
                out.extend(gen(i).to_le_bytes());
            }
        }
    }
    out.resize(len, 0xAB); // ragged tail bytes
    out
}

fn reference(nranks: usize, len: usize, dtype: ReduceOp) -> Vec<u8> {
    let mut acc = payload(0, len, dtype);
    let whole = match dtype {
        ReduceOp::SumF32 => len / 4 * 4,
        _ => len / 8 * 8,
    };
    for r in 1..nranks {
        dtype.combine(&mut acc[..whole], &payload(r, len, dtype)[..whole]);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Ring allreduce is byte-identical to the sequential reference
    /// reduction for random payload sizes, dtypes, rank counts, and
    /// pipeline shapes (chunk size / in-flight window), including ragged
    /// tails and multi-node rings.
    #[test]
    fn ring_allreduce_matches_sequential_reference(
        nranks in 2usize..9,
        len in 1usize..4096,
        chunk in 1u64..2048,
        inflight in 1usize..5,
        which in 0u8..4,
    ) {
        let dtype = [ReduceOp::SumF64, ReduceOp::SumF32, ReduceOp::SumU64, ReduceOp::MaxF64]
            [which as usize];
        let engine = CollEngine::Ring(RingConfig { chunk_bytes: chunk, max_inflight: inflight });
        let want = reference(nranks, len, dtype);
        with_engine(nranks, engine, false, move |ctx, world, comm, r| {
            let dev = world.primary_dev(r);
            let off = dev.malloc(len.next_power_of_two().max(64) as u64, 256).unwrap();
            dev.mem.write(off, &payload(r, len, dtype)).unwrap();
            comm.collective(
                ctx,
                r,
                vec![DeviceBuf { flat: r, off }],
                XcclOp::AllReduce { op: dtype },
                len as u64,
            );
            let mut got = vec![0u8; len];
            dev.mem.read(off, &mut got).unwrap();
            assert_eq!(got, reference(world.nranks, len, dtype), "rank {r}");
        });
        let _ = want;
    }

    /// The ring engine's data semantics agree byte-for-byte with the
    /// profile engine's for every collective kind on arbitrary payloads
    /// (broadcast/allgather are pure rotations; reductions use exact
    /// integer-valued data via SumU64's order-independent wrapping sum).
    #[test]
    fn ring_and_profile_engines_deposit_identical_bytes(
        nranks in 2usize..9,
        len in 8usize..2048,
        kind in 0u8..4,
    ) {
        let run = |engine: CollEngine| {
            let out = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let out2 = out.clone();
            with_engine(nranks, engine, false, move |ctx, world, comm, r| {
                let n = world.nranks;
                let dev = world.primary_dev(r);
                let cap = (len * n).next_power_of_two().max(64) as u64;
                let off = dev.malloc(cap, 256).unwrap();
                let bytes: Vec<u8> =
                    (0..len * n).map(|i| (r * 31 + i * 7) as u8).collect();
                dev.mem.write(off, &bytes).unwrap();
                let op = match kind {
                    0 => XcclOp::AllReduce { op: ReduceOp::SumU64 },
                    1 => XcclOp::Broadcast { root: 1 % n },
                    2 => XcclOp::AllGather,
                    _ => XcclOp::Reduce { root: 1 % n, op: ReduceOp::SumU64 },
                };
                let payload = if kind == 2 { len as u64 } else { (len / 8 * 8).max(8) as u64 };
                comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, payload);
                let mut got = vec![0u8; len * n];
                dev.mem.read(off, &mut got).unwrap();
                out2.lock().push((r, got));
            });
            let mut rows = out.lock().clone();
            rows.sort_by_key(|&(r, _)| r);
            rows
        };
        let ring = run(CollEngine::Ring(RingConfig { chunk_bytes: 512, max_inflight: 2 }));
        let prof = run(CollEngine::Profile);
        prop_assert_eq!(ring, prof, "engines must agree on the final buffer bytes");
    }

    /// The double-binary-tree engine's reduction semantics are
    /// byte-identical to the *sequential reference* association for
    /// every dtype — including floats, where association order matters:
    /// the tree folds whole payloads in reference order (unlike the
    /// ring's chain order, which is only exact on integer-valued data).
    /// Random payload sizes (ragged tails included), chunkings, windows
    /// and rank counts, over single- and multi-node tree layouts.
    #[test]
    fn dbt_allreduce_matches_sequential_reference(
        nranks in 2usize..9,
        len in 1usize..4096,
        chunk in 1u64..2048,
        inflight in 1usize..5,
        which in 0u8..4,
    ) {
        let dtype = [ReduceOp::SumF64, ReduceOp::SumF32, ReduceOp::SumU64, ReduceOp::MaxF64]
            [which as usize];
        let engine = CollEngine::Dbt(RingConfig { chunk_bytes: chunk, max_inflight: inflight });
        with_engine(nranks, engine, false, move |ctx, world, comm, r| {
            let dev = world.primary_dev(r);
            let off = dev.malloc(len.next_power_of_two().max(64) as u64, 256).unwrap();
            dev.mem.write(off, &payload(r, len, dtype)).unwrap();
            comm.collective(
                ctx,
                r,
                vec![DeviceBuf { flat: r, off }],
                XcclOp::AllReduce { op: dtype },
                len as u64,
            );
            let mut got = vec![0u8; len];
            dev.mem.read(off, &mut got).unwrap();
            assert_eq!(got, reference(world.nranks, len, dtype), "rank {r}");
        });
    }

    /// The DBT engine deposits the same bytes as the ring engine for
    /// every collective kind — including the rooted ops (rotated trees,
    /// chain leaders) and all-gather (which falls back to the ring
    /// schedule under `CollEngine::Dbt`).
    #[test]
    fn dbt_engine_matches_ring_bytes(
        nranks in 2usize..9,
        len in 8usize..2048,
        kind in 0u8..4,
    ) {
        let run = |engine: CollEngine| {
            let out = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let out2 = out.clone();
            with_engine(nranks, engine, false, move |ctx, world, comm, r| {
                let n = world.nranks;
                let dev = world.primary_dev(r);
                let cap = (len * n).next_power_of_two().max(64) as u64;
                let off = dev.malloc(cap, 256).unwrap();
                let bytes: Vec<u8> =
                    (0..len * n).map(|i| (r * 31 + i * 7) as u8).collect();
                dev.mem.write(off, &bytes).unwrap();
                let op = match kind {
                    0 => XcclOp::AllReduce { op: ReduceOp::SumU64 },
                    1 => XcclOp::Broadcast { root: 1 % n },
                    2 => XcclOp::AllGather,
                    _ => XcclOp::Reduce { root: 1 % n, op: ReduceOp::SumU64 },
                };
                let payload = if kind == 2 { len as u64 } else { (len / 8 * 8).max(8) as u64 };
                comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, payload);
                let mut got = vec![0u8; len * n];
                dev.mem.read(off, &mut got).unwrap();
                out2.lock().push((r, got));
            });
            let mut rows = out.lock().clone();
            rows.sort_by_key(|&(r, _)| r);
            rows
        };
        let dbt = run(CollEngine::Dbt(RingConfig { chunk_bytes: 512, max_inflight: 2 }));
        let ring = run(CollEngine::default());
        prop_assert_eq!(dbt, ring, "dbt must agree with the ring engine's bytes");
    }
}

#[test]
fn emergent_ring_trace_is_stable_across_runs() {
    // The fig6 determinism requirement: the ring schedule (thousands of
    // chunk events racing through wait-any groups) must replay
    // bit-identically — same end time, same entry count, same trace.
    let run = || {
        with_engine(8, CollEngine::default(), true, |ctx, world, comm, r| {
            let dev = world.primary_dev(r);
            let off = dev.malloc(2 << 20, 256).unwrap();
            comm.collective(
                ctx,
                r,
                vec![DeviceBuf { flat: r, off }],
                XcclOp::AllReduce { op: ReduceOp::SumF32 },
                1 << 20,
            );
            comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], XcclOp::AllGather, 64 << 10);
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "ring schedule must be deterministic");
    assert!(a.1 > 0);
}

#[test]
fn ring_time_is_emergent_not_fitted() {
    // The two engines price the same collective differently (the ring
    // time comes from link scheduling, not the curve), and the emergent
    // time respects the physical lower bound of the bottleneck link.
    let coll = |engine: CollEngine| {
        with_engine(8, engine, false, move |ctx, _world, comm, r| {
            let off = 0; // CostOnly-style: allocate nothing, cost only
            let dev_off = _world.primary_dev(r).malloc(8 << 20, 256).unwrap();
            let _ = off;
            comm.collective(
                ctx,
                r,
                vec![DeviceBuf { flat: r, off: dev_off }],
                XcclOp::AllReduce { op: ReduceOp::SumF64 },
                4 << 20,
            );
        })
        .0
    };
    let ring = coll(CollEngine::default());
    let prof = coll(CollEngine::Profile);
    assert_ne!(ring, prof, "emergent completion must not collapse onto the curve fit");
    // 8 devices over 2 nodes, 4 rails: each inter-node NIC moves at least
    // wire_factor * len / nrings bytes at 25 GB/s — the emergent time can
    // never beat the raw link.
    let wire_per_rail = (2.0 * 7.0 / 8.0) * (4u64 << 20) as f64 / 4.0;
    let min_us = wire_per_rail / 25.0e3;
    assert!(
        ring.as_us() > min_us,
        "emergent time {}us beats the physical link bound {min_us}us",
        ring.as_us()
    );
}

/// Run one collective of `len` bytes under `engine` at 16 ranks
/// (4 nodes × 4 A100s) and return the end time.
fn timed_collective(engine: CollEngine, op: XcclOp, len: u64) -> SimTime {
    with_engine(16, engine, false, move |ctx, world, comm, r| {
        let off = world.primary_dev(r).malloc((2 * len).next_power_of_two().max(64), 256).unwrap();
        comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, len);
    })
    .0
}

#[test]
fn dbt_beats_ring_in_the_mid_band_and_is_deterministic() {
    // The PR 5 tentpole at engine level: at 16 ranks (4 nodes × 4
    // A100s) a 1 MiB allreduce sits squarely in the mid band — the
    // double binary tree's 2⌈log2 n⌉-deep schedule must finish earlier
    // than the ring's 2(n−1) steps, and replay bit-identically.
    let op = XcclOp::AllReduce { op: ReduceOp::SumF32 };
    let rc = RingConfig::auto(&PlatformSpec::platform_a(), &op, 4);
    let run = || timed_collective(CollEngine::Dbt(rc), op, 1 << 20);
    let dbt = run();
    assert_eq!(dbt, run(), "dbt schedule must be deterministic");
    let ring = timed_collective(CollEngine::default(), op, 1 << 20);
    assert!(dbt < ring, "DBT {dbt:?} must beat the ring {ring:?} at 1 MiB");
}

#[test]
fn auto_small_path_is_deterministic_and_cheap_to_schedule() {
    // The LL/tree schedule Auto runs small collectives on (pinned here)
    // is closed-form — it must replay bit-identically and cost far fewer
    // scheduler entries than the ring's chunked progress loop at the
    // same size.
    let ac = AutoConfig::for_platform(&PlatformSpec::platform_a());
    let run = |engine: CollEngine| {
        with_engine(8, engine, true, |ctx, world, comm, r| {
            let dev = world.primary_dev(r);
            let off = dev.malloc(64 << 10, 256).unwrap();
            comm.collective(
                ctx,
                r,
                vec![DeviceBuf { flat: r, off }],
                XcclOp::AllReduce { op: ReduceOp::SumF32 },
                32 << 10,
            );
            comm.collective(
                ctx,
                r,
                vec![DeviceBuf { flat: r, off }],
                XcclOp::Broadcast { root: 1 },
                16 << 10,
            );
        })
    };
    let a = run(CollEngine::LlTree(ac));
    let b = run(CollEngine::LlTree(ac));
    assert_eq!(a, b, "LL/tree schedule must be deterministic");
    let (_, ring_entries, _) = run(CollEngine::default());
    assert!(
        a.1 < ring_entries,
        "LL path should need fewer scheduler entries: {} vs ring {}",
        a.1,
        ring_entries
    );
}

#[test]
fn larger_chunks_pipeline_worse_at_large_sizes() {
    // Chunk pipelining is what hides ring-step latency: a degenerate
    // single-chunk configuration must be no faster than the pipelined
    // default for a multi-megabyte broadcast.
    let run = |chunk_bytes: u64| {
        with_engine(
            8,
            CollEngine::Ring(RingConfig { chunk_bytes, max_inflight: 4 }),
            false,
            move |ctx, world, comm, r| {
                let off = world.primary_dev(r).malloc(8 << 20, 256).unwrap();
                comm.collective(
                    ctx,
                    r,
                    vec![DeviceBuf { flat: r, off }],
                    XcclOp::Broadcast { root: 0 },
                    4 << 20,
                );
            },
        )
        .0
    };
    let pipelined = run(128 << 10);
    let monolithic = run(u64::MAX);
    assert!(pipelined < monolithic, "chunked ring must be faster: {pipelined:?} vs {monolithic:?}");
}

/// One collective of `len` bytes under `engine` on `nodes × per` devices
/// of `platform` (Functional mode, fabric faults from `plan`), every rank
/// contributing distinct bytes. Returns (end time, scheduler entries,
/// every rank's buffer afterwards, the engine `auto_choice` named on
/// rank 0 at call time).
fn one_collective(
    platform: &PlatformSpec,
    (nodes, per): (usize, usize),
    plan: &FaultPlan,
    engine: CollEngine,
    kind: u8,
    len: u64,
) -> (SimTime, u64, Vec<Vec<u8>>, CollEngine) {
    let mut sim = Sim::new();
    sim.set_fault_plan(plan.clone());
    let nranks = nodes * per;
    let spec = ClusterSpec { platform: platform.clone(), nodes, gpus_per_node: per };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    let heap = (2 * len * nranks as u64).next_power_of_two().max(1 << 20);
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::Functional, Some(heap));
    let world = FabricWorld::new(topo, devs, nranks);
    world.attach_sim(&sim.handle());
    let id = UniqueId::generate();
    let out = Arc::new(parking_lot::Mutex::new((vec![Vec::new(); nranks], None)));
    for r in 0..nranks {
        let (world, out) = (world.clone(), out.clone());
        sim.spawn(format!("rank{r}"), move |ctx| {
            let comm = XcclComm::init(
                ctx,
                &world,
                (0..nranks).collect(),
                r,
                id,
                CommOpts { engine, ..CommOpts::default() },
            );
            let op = match kind {
                0 => XcclOp::AllReduce { op: ReduceOp::SumU64 },
                1 => XcclOp::Broadcast { root: 1 % nranks },
                2 => XcclOp::AllGather,
                _ => XcclOp::Reduce { root: 1 % nranks, op: ReduceOp::SumU64 },
            };
            // Only all-gather fills `len` per rank; the others touch `len`.
            let cap = if kind == 2 { len * nranks as u64 } else { len };
            let dev = world.primary_dev(r);
            let off = dev.malloc(cap, 256).unwrap();
            let bytes: Vec<u8> = (0..cap as usize).map(|i| (r * 31 + i * 7) as u8).collect();
            dev.mem.write(off, &bytes).unwrap();
            if r == 0 {
                out.lock().1 = Some(comm.auto_choice(&op, len));
            }
            comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, len);
            let mut got = vec![0u8; cap as usize];
            dev.mem.read(off, &mut got).unwrap();
            out.lock().0[r] = got;
        });
    }
    let rep = sim.run().unwrap();
    let (bufs, choice) = out.lock().clone();
    (rep.end_time, rep.entries_processed, bufs, choice.unwrap())
}

#[test]
fn pinned_dbt_runs_its_config_verbatim() {
    // On 64 single-GPU nodes of C, Auto prices a 512 KiB allreduce's
    // DBT at a chunk below the live knee. Pinning the DBT at the live
    // config must bypass that ladder: the pinned engine is named as is
    // and runs its own chunk, so it lands on a different instant.
    let p = PlatformSpec::platform_c();
    let ac = AutoConfig::for_platform(&p);
    let live = ac.ring_for(&XcclOp::AllReduce { op: ReduceOp::SumU64 });
    let (shape, plan, len) = ((64, 1), FaultPlan::new(), 512 << 10);
    let (t_auto, _, bytes_auto, choice) =
        one_collective(&p, shape, &plan, CollEngine::Auto(ac), 0, len);
    assert!(
        matches!(choice, CollEngine::Dbt(rc) if rc.chunk_bytes < live.chunk_bytes),
        "Auto should take a sub-knee DBT chunk here, picks {choice:?}"
    );
    let pinned = CollEngine::Dbt(live);
    let (t_pin, _, bytes_pin, named) = one_collective(&p, shape, &plan, pinned, 0, len);
    assert_eq!(named, pinned, "a pinned engine is its own choice");
    assert_ne!(t_pin, t_auto, "the pinned DBT must run the live chunk, not the ladder's");
    assert_eq!(bytes_pin, bytes_auto, "the chunking never changes the bytes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Auto` is exactly the engine it names: on a random platform, op,
    /// size (64 B – 512 KiB, log-uniform, ragged tails included) and
    /// healthy or degraded fabric, the engine `auto_choice` returns,
    /// run pinned, lands bit for bit the virtual time, scheduler
    /// entries and buffer bytes of the `Auto` call. The fourth shape is
    /// a C communicator of 16–256 single-GPU nodes at 64 KiB – 1 MiB,
    /// where the DBT's chunk ladder picks chunks below the live knee
    /// (all-gather is swapped for allreduce there: its n·len buffers
    /// would not stay small).
    #[test]
    fn auto_is_bit_identical_to_the_engine_it_names(
        which in 0usize..4,
        kind in 0u8..4,
        shift in 6u32..20,
        frac in 0u64..1024,
        degraded in 0u8..2,
        nodes_log2 in 4u32..9,
    ) {
        let (platform, shape, len, kind) = if which == 3 {
            // At most 48 MiB of payload across the communicator.
            let nodes = 1usize << nodes_log2;
            let shift = 16 + shift % (10 - nodes_log2).min(5);
            let len = (1u64 << shift) + (frac << shift) / 2048;
            (PlatformSpec::platform_c(), (nodes, 1), len, if kind == 2 { 0 } else { kind })
        } else {
            let (platform, shape) = [
                (PlatformSpec::platform_a(), (4, 4)),
                (PlatformSpec::platform_b(), (2, 8)),
                (PlatformSpec::platform_c(), (8, 1)),
            ][which].clone();
            (platform, shape, ((1u64 << shift) + (frac << shift) / 1024).max(8), kind)
        };
        let mut plan = FaultPlan::new();
        if degraded == 1 {
            // Every NIC at 5 % of nominal bandwidth for the whole run.
            let probe = Sim::new();
            let spec = ClusterSpec {
                platform: platform.clone(),
                nodes: shape.0,
                gpus_per_node: shape.1,
            };
            let topo = Topology::build(&probe.handle(), spec);
            for d in 0..shape.0 * shape.1 {
                let nic = topo.nic_for(topo.dev_loc(d));
                plan = plan.degrade_link(nic, SimTime::ZERO, SimTime(u64::MAX), 50);
            }
        }
        let auto = CollEngine::Auto(AutoConfig::for_platform(&platform));
        let (t_auto, e_auto, bytes_auto, choice) =
            one_collective(&platform, shape, &plan, auto, kind, len);
        prop_assert!(!matches!(choice, CollEngine::Auto(_) | CollEngine::Profile));
        let (t_pin, e_pin, bytes_pin, _) =
            one_collective(&platform, shape, &plan, choice, kind, len);
        prop_assert_eq!(t_auto, t_pin, "{:?}: virtual time", choice);
        prop_assert_eq!(e_auto, e_pin, "{:?}: scheduler entries", choice);
        prop_assert_eq!(bytes_auto, bytes_pin, "{:?}: buffer bytes", choice);
    }
}
