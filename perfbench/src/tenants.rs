//! `tenants`: the reduction-server contention mix. Eight tenants share
//! three platform-A nodes (2 High, 4 Normal, 2 Low; job 1 offloads its
//! allreduces to a reduction-server node) with weighted fair queuing
//! armed. Every tenant initialises its communicator at start-up; the
//! seed sets when each tenant's collective stream starts (its arrival)
//! and the order of its collectives (see [`draws`]).
//!
//! The benchmark drives every tenant's collectives itself, mirroring the
//! disarmed (no-recovery) path of `diomp_apps::workload::run_workload`,
//! because that function exposes only per-job p50/p99 and this workload
//! pools every latency as a sample. Many concurrent mid-size collectives
//! on a small world load the scheduler and the QoS layer; Auto's choices
//! and large-communicator init are bypassed.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use diomp_apps::workload::canonical_jobs;
use diomp_core::JobSpec;
use diomp_device::{DataMode, DeviceTable};
use diomp_fabric::{FabricWorld, ReduceOp};
use diomp_sim::{rng_for, ClusterSpec, Dur, PlatformSpec, QosClass, Sim, SimReport, Topology};
use diomp_xccl::{
    default_nrings, CollEngine, DeviceBuf, RingConfig, ServerSpec, UniqueId, XcclComm, XcclOp,
};

use rand::RngCore;

use crate::trace::{self, BENCH, DEVICE, FABRIC, SIM, XCCL};
use crate::{guarded, stats, Metric, Pass, Report, Workload};

/// Platform-A nodes of the shared cluster (4 GPUs each).
pub const NODES: usize = 3;
/// Tenant jobs.
pub const TENANTS: usize = 8;
/// Collectives per tenant: 8 × 125 = 1000 pooled samples, the fewest
/// whose p99 has ten samples beyond it.
pub const ITERS: usize = 125;
/// The tenant provisioned a reduction-server node.
pub const SERVER_JOB: usize = 1;
/// Candidate payloads; each collective draws one.
pub const SIZES: [u64; 3] = [256 << 10, 1 << 20, 4 << 20];
/// Arrivals are spread over this window.
const ARRIVAL_WINDOW_US: f64 = 200.0;

/// The tenant set: the canonical mixed-QoS jobs with seeded arrivals,
/// job [`SERVER_JOB`] pinned to the reduction-server engine over one
/// carved tail node.
pub fn jobs(seed: u64) -> Vec<JobSpec> {
    let p = PlatformSpec::platform_a();
    let rc = RingConfig::auto(&p, &XcclOp::AllReduce { op: ReduceOp::SumF32 }, default_nrings(&p));
    let mut jobs = canonical_jobs(TENANTS, seed, Dur::micros(ARRIVAL_WINDOW_US));
    jobs[SERVER_JOB] = jobs[SERVER_JOB]
        .clone()
        .with_engine(CollEngine::ReductionServer(rc))
        .with_servers(ServerSpec::tail(1));
    jobs
}

/// The seeded collective sequence of job `job`: every (op, size) pair
/// equally often (±1), in a seeded order. A seed changes which
/// collectives overlap, never the mix, which keeps the pooled latency
/// statistics steady from seed to seed. Identical on every rank.
pub fn draws(seed: u64, job: usize) -> Vec<(XcclOp, u64)> {
    let ops = [XcclOp::AllReduce { op: ReduceOp::SumF32 }, XcclOp::Broadcast { root: 0 }];
    let kinds: Vec<(XcclOp, u64)> =
        ops.iter().flat_map(|&op| SIZES.map(|size| (op, size))).collect();
    let mut seq: Vec<_> = (0..ITERS).map(|i| kinds[i % kinds.len()]).collect();
    let mut rng = rng_for(seed, 0x10B + job as u64);
    for i in (1..seq.len()).rev() {
        seq.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    seq
}

/// One collective latency, sampled on the job's rank 0.
#[derive(Clone, Copy)]
struct Sample {
    job: usize,
    t0_ns: u64,
    t1_ns: u64,
}

struct SubRun {
    setup_s: f64,
    run_s: f64,
    devices_s: f64,
    world_s: f64,
    /// In (job, iteration) order.
    samples: Vec<Sample>,
    report: SimReport,
}

#[derive(Clone, Copy, Default)]
struct TaskRec {
    init_ret: f64,
    last_ret: f64,
}

/// Run the jobs listed in `which` (indices into [`jobs`]) on one fabric.
fn sub_run(seed: u64, which: &[usize]) -> SubRun {
    let start = Instant::now();
    let secs = move |t: Instant| t.duration_since(start).as_secs_f64();
    let top = trace::begin(&format!("tenants {which:?}"), BENCH, 0, None, 0);
    let platform = PlatformSpec::platform_a();
    let all = jobs(seed);
    let nranks = NODES * platform.gpus_per_node;
    let max_size = *SIZES.iter().max().expect("sizes");

    let s = trace::begin("Sim::new+Topology::build", SIM, 0, top, 0);
    let mut sim = Sim::new();
    sim.enable_contention();
    let spec = ClusterSpec {
        platform: platform.clone(),
        nodes: NODES,
        gpus_per_node: platform.gpus_per_node,
    };
    let topo = Arc::new(Topology::build(&sim.handle(), spec));
    trace::end(s, 0);
    let t = Instant::now();
    let s = trace::begin("DeviceTable::build", DEVICE, 0, top, 0);
    let heap = (TENANTS as u64 * 2 * max_size + (1 << 20)).next_power_of_two();
    let devs = DeviceTable::build(&sim.handle(), topo.clone(), DataMode::CostOnly, Some(heap));
    trace::end(s, 0);
    let devices_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let s = trace::begin("FabricWorld::new", FABRIC, 0, top, 0);
    let world = FabricWorld::new(topo, devs, nranks);
    world.attach_sim(&sim.handle());
    trace::end(s, 0);
    let world_s = t.elapsed().as_secs_f64();

    let samples: Arc<Mutex<Vec<(usize, usize, Sample)>>> = Arc::new(Mutex::new(Vec::new()));
    let recs = Arc::new(Mutex::new(vec![TaskRec::default(); which.len() * nranks]));
    for (slot, &j) in which.iter().enumerate() {
        let job = all[j].clone();
        let id = UniqueId::generate();
        for r in 0..nranks {
            let (world, job, samples, recs) =
                (world.clone(), job.clone(), samples.clone(), recs.clone());
            let task = slot * nranks + r;
            sim.spawn(format!("job{j}-{}-rank{r}", job.name), move |ctx| {
                // Every tenant initialises at start-up and starts its
                // collective stream at its arrival offset, so set-up ends
                // before any collective starts, whatever the seed.
                let s = trace::begin("XcclComm::init", XCCL, task, top, ctx.now().nanos());
                let comm = XcclComm::init(
                    ctx,
                    &world,
                    (0..world.nranks).collect(),
                    r,
                    id,
                    job.comm_opts(),
                );
                trace::end(s, ctx.now().nanos());
                recs.lock().expect("task records poisoned")[task].init_ret = secs(Instant::now());
                ctx.yield_now();
                ctx.delay(job.arrival);
                let off = world.primary_dev(r).malloc(max_size, 256).expect("buffer fits the heap");
                for (i, (op, size)) in draws(seed, j).into_iter().enumerate() {
                    let t0 = ctx.now();
                    let s = trace::begin("collective", XCCL, task, top, t0.nanos());
                    comm.collective(ctx, r, vec![DeviceBuf { flat: r, off }], op, size);
                    let t1 = ctx.now();
                    trace::end(s, t1.nanos());
                    if r == 0 {
                        let sample = Sample { job: j, t0_ns: t0.nanos(), t1_ns: t1.nanos() };
                        samples.lock().expect("samples poisoned").push((j, i, sample));
                    }
                }
                recs.lock().expect("task records poisoned")[task].last_ret = secs(Instant::now());
            });
        }
    }
    let report = sim.run().unwrap_or_else(|e| panic!("tenants {which:?}: {e}"));
    trace::end(top, report.end_time.nanos());

    let marks: Vec<Vec<f64>> = recs
        .lock()
        .expect("task records poisoned")
        .iter()
        .map(|r| vec![r.init_ret, r.last_ret])
        .collect();
    let phases = stats::last_return_phases(&marks, 0.0);
    let mut samples = std::mem::take(&mut *samples.lock().expect("samples poisoned"));
    samples.sort_by_key(|&(j, i, _)| (j, i));
    SubRun {
        setup_s: phases[0],
        run_s: phases[1],
        devices_s,
        world_s,
        samples: samples.into_iter().map(|(_, _, s)| s).collect(),
        report,
    }
}

fn lat_us(s: &Sample) -> f64 {
    (s.t1_ns - s.t0_ns) as f64 / 1e3
}

/// Nearest-rank p50 of the samples `keep` selects, µs (0 if none).
fn p50_of(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> f64 {
    let v: Vec<f64> = samples.iter().filter(|s| keep(s)).map(lat_us).collect();
    if v.is_empty() {
        0.0
    } else {
        stats::percentile(&stats::sorted(&v), 50.0)
    }
}

/// The `tenants` workload.
pub struct Tenants {
    seed: u64,
    qos: Vec<QosClass>,
    last: Option<SubRun>,
}

impl Tenants {
    pub fn new(seed: u64) -> Self {
        Tenants { seed, qos: jobs(seed).iter().map(|j| j.qos).collect(), last: None }
    }

    /// Σ `wire_factor × size` over the sampled collectives.
    fn wire_bytes(&self, samples: &[Sample]) -> f64 {
        let nranks = NODES * PlatformSpec::platform_a().gpus_per_node;
        (0..TENANTS)
            .map(|j| {
                let done = samples.iter().filter(|s| s.job == j).count();
                let seq = draws(self.seed, j);
                seq[..done]
                    .iter()
                    .map(|(op, size)| op.wire_factor(nranks) * *size as f64)
                    .sum::<f64>()
            })
            .sum()
    }
}

impl Workload for Tenants {
    fn pass(&mut self) -> Pass {
        let ops = (TENANTS * ITERS) as u64;
        let all: Vec<usize> = (0..TENANTS).collect();
        match guarded(|| sub_run(self.seed, &all)) {
            Ok(r) => {
                let missing = ops - r.samples.len() as u64;
                let per_job: Vec<usize> =
                    (0..TENANTS).map(|j| r.samples.iter().filter(|s| s.job == j).count()).collect();
                let pass = Pass {
                    setup_s: r.setup_s,
                    run_s: r.run_s,
                    op_vt_ns: r.samples.iter().map(|s| s.t1_ns - s.t0_ns).collect(),
                    attempted: ops,
                    failed: missing,
                    failures: if missing > 0 {
                        vec![format!("tenants: collectives completed per tenant {per_job:?}")]
                    } else {
                        vec![]
                    },
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
                failures: vec![format!("tenants: {e}")],
            },
        }
    }

    fn headline(&self) -> Vec<Metric> {
        let Some(r) = &self.last else { return vec![] };
        let s = &r.samples;
        let lat: Vec<f64> = s.iter().map(lat_us).collect();
        let all = stats::sorted(&lat);
        let high: Vec<f64> =
            s.iter().filter(|x| self.qos[x.job] == QosClass::High).map(lat_us).collect();
        let high = stats::sorted(&high);
        let first = s.iter().map(|x| x.t0_ns).min().unwrap_or(0);
        let last = s.iter().map(|x| x.t1_ns).max().unwrap_or(0);
        let m =
            |name: &str, value: f64, unit: &'static str| Metric { name: name.into(), value, unit };
        let tail = |v: &[f64], q: f64| stats::tail_percentile(v, q).unwrap_or(f64::NAN);
        vec![
            m("xccl.coll_gm_us", stats::geomean(&lat), "virtual_us"),
            m("xccl.coll_p50_us", stats::percentile(&all, 50.0), "virtual_us"),
            m("xccl.coll_p99_us", tail(&all, 99.0), "virtual_us"),
            m("xccl.coll_samples", all.len() as f64, "count"),
            m("xccl.high_p95_us", tail(&high, 95.0), "virtual_us"),
            m("xccl.goodput_gbps", self.wire_bytes(s) / (last - first) as f64, "virtual_GB/s"),
            m("xccl.rserver_p50_us", p50_of(s, |x| x.job == SERVER_JOB), "virtual_us"),
        ]
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
        rep.put("fabric.wire_gb", self.wire_bytes(&r.samples) / 1e9, "GB");
        let class = |q: QosClass| p50_of(&r.samples, |x| self.qos[x.job] == q);
        rep.put("sim.qos.high_p50_us", class(QosClass::High), "virtual_us");
        rep.put("sim.qos.normal_p50_us", class(QosClass::Normal), "virtual_us");
        rep.put("sim.qos.low_p50_us", class(QosClass::Low), "virtual_us");

        // Idle reference: each High tenant alone on the same fabric, same draws.
        let high: Vec<usize> = (0..TENANTS).filter(|&j| self.qos[j] == QosClass::High).collect();
        let idle = guarded(|| {
            high.iter().flat_map(|&j| sub_run(self.seed, &[j]).samples).collect::<Vec<_>>()
        });
        let ops = (high.len() * ITERS) as u64;
        match idle {
            Ok(idle) => {
                rep.ops(ops, ops - idle.len() as u64, || "idle reference incomplete".into());
                let idle_p50 = p50_of(&idle, |_| true);
                rep.put("sim.qos.high_slowdown", class(QosClass::High) / idle_p50, "x");
            }
            Err(e) => rep.ops(ops, ops, || format!("idle reference: {e}")),
        }
    }

    fn check(&mut self, _rep: &mut Report) {
        // Every tenant completing every collective is checked by each
        // pass itself: a missing sample fails its operation.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_samples_carry_the_reported_tails() {
        assert!(TENANTS * ITERS >= stats::min_samples(99.0), "p99 needs ten samples beyond it");
        let high = jobs(1).iter().filter(|j| j.qos == QosClass::High).count();
        assert!(high * ITERS >= stats::min_samples(95.0), "High p95 needs ten samples beyond it");
    }

    #[test]
    fn seed_drives_arrivals_and_order_but_not_the_mix() {
        let arrivals = |seed| jobs(seed).iter().map(|j| j.arrival).collect::<Vec<_>>();
        assert_eq!(arrivals(1), arrivals(1));
        assert_ne!(arrivals(1), arrivals(2));
        assert_eq!(draws(1, 0), draws(1, 0));
        assert_ne!(draws(1, 0), draws(2, 0));
        assert_ne!(draws(1, 0), draws(1, 1));
        let count =
            |seq: &[(XcclOp, u64)], k: (XcclOp, u64)| seq.iter().filter(|&&x| x == k).count();
        for seed in 1..4 {
            let (a, b) = (draws(seed, 0), draws(seed + 7, 3));
            for k in draws(1, 0) {
                assert_eq!(count(&a, k), count(&b, k), "the mix must not depend on the seed");
                assert!(count(&a, k) * 6 >= ITERS - 5, "every kind appears about equally often");
            }
        }
    }
}
