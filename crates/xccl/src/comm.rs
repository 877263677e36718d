//! XCCL communicators: bootstrap, topology discovery, collective launch.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, Weak};

use diomp_fabric::{FabricWorld, HealthVec, RankHealth};
use diomp_sim::{derive_seed, Ctx, Dur, FlowId, PlatformSpec, QosClass, SimTime, Wait};
use parking_lot::Mutex;

use crate::dbt;
use crate::gate::{Arrival, CollAbort, CollGate, DeviceBuf};
use crate::ll;
use crate::ops::XcclOp;
use crate::price::{self, Shape};
use crate::ring::{self, CollEngine, Rail};
use crate::rserver::{self, ServerLayout, ServerSet, ServerSpec};
use crate::unique_id::UniqueId;

/// Construction options for [`XcclComm::init`] — the one communicator
/// constructor. `CommOpts::default()` reproduces the historical
/// `init` behaviour (ring engine, normal QoS, no reduction servers);
/// override fields with struct-update syntax:
///
/// ```ignore
/// XcclComm::init(ctx, &world, ranks, r, id, CommOpts {
///     qos: QosClass::High,
///     ..CommOpts::default()
/// });
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct CommOpts {
    /// Completion-time engine (emergent ring protocol, DBT, LL/tree,
    /// reduction server, the priced auto-selection, or the calibrated
    /// profile).
    pub engine: CollEngine,
    /// QoS class of the owning job: fixes the weight this communicator's
    /// chunk traffic carries in the per-link weighted fair queue when
    /// contention is armed ([`diomp_sim::Sim::enable_contention`]).
    pub qos: QosClass,
    /// Reduction-server designation: how many whole nodes of the
    /// communicator are dedicated in-network reduction servers (see
    /// [`ServerSpec`]; the default disables the server path). Server
    /// ranks are members — they arrive at the gate — but are
    /// *infrastructure*: allreduce on a server-equipped communicator
    /// reduces over the **client** ranks only, and their fan-back
    /// traffic is charged to a dedicated QoS flow.
    pub servers: ServerSpec,
}

/// Ring topology summary produced by communicator initialisation.
#[derive(Clone, Debug)]
pub struct RingInfo {
    /// Devices in ring order (node-major, so node boundaries are crossed
    /// exactly `nodes` times — NCCL's bandwidth-optimal layout).
    pub order: Vec<usize>,
    /// Number of distinct nodes spanned.
    pub nodes: usize,
    /// Concurrent rings (one per NIC on multi-rail nodes — how NCCL
    /// reaches >single-NIC bandwidth on platforms A/B).
    pub nrings: usize,
}

/// The layout every rank of one communicator shares: a pure function of
/// (world, ranks, server designation, health at build time), so it is
/// built once per [`UniqueId`] by the first rank to initialise and
/// shared by `Arc` — each rank's [`XcclComm`] keeps only its own flows.
pub(crate) struct CommPlan {
    /// Participating ranks, in order.
    ranks: Vec<usize>,
    /// Node-major device order and rail count.
    ring: RingInfo,
    /// Per-rail rotated ring orders with their edge link assignments,
    /// dead rails filtered out.
    rails: Vec<Rail>,
    /// Resolved reduction-server set (None when [`CommOpts::servers`] is
    /// disabled).
    servers: Option<ServerSet>,
    /// NIC-level shape of the live server set, for pricing.
    server_layout: Option<ServerLayout>,
    /// The rendezvous gate every rank's collective calls meet at — the
    /// sharing the UniqueId bootstrap establishes in NCCL.
    gate: CollGate,
}

impl CommPlan {
    fn build(world: &FabricWorld, ranks: Vec<usize>, servers: ServerSpec) -> CommPlan {
        // Node-major device ordering minimises ring node-crossings.
        let mut order: Vec<usize> = ranks.iter().flat_map(|&r| world.devices_of(r)).collect();
        order.sort_by_key(|&f| (world.devs.dev(f).loc.node, world.devs.dev(f).loc.gpu));
        let mut node_ids: Vec<usize> = order.iter().map(|&f| world.devs.dev(f).loc.node).collect();
        node_ids.dedup();
        let nodes = node_ids.len();
        let devs_per_node = order.len().div_ceil(nodes.max(1));
        let nrings = world.topo.nics_per_node().min(devs_per_node).max(1);

        // Degradation awareness: rails whose edges ride a link the
        // health vector (`gaspi_state_vec`) marks dead are blacklisted,
        // trading aggregate bandwidth for avoiding a 1000×-slow dead
        // edge. At least one rail always survives: with every rail
        // condemned there is no better topology to retreat to, so the
        // layout stays unchanged and the injector's replay makes the
        // damage visible. On a healthy fabric the filter drops nothing.
        let health = world.health();
        let mut rails = ring::build_rails(world, &order, nrings);
        let alive: Vec<Rail> =
            rails.iter().filter(|r| !r.uses_dead_link(&health)).cloned().collect();
        if !alive.is_empty() {
            rails = alive;
        }
        let nrings = rails.len();

        // Reduction-server carving: whole node blocks from the tail of
        // the node-major order become infrastructure (at least one
        // client node always remains). Server devices whose NIC the
        // health vector marks dead are blacklisted — the stripes
        // re-split over the survivors, and with *every* server dead the
        // set is empty and the engines fall back to the ring schedule:
        // degrade, never hang.
        let servers = (servers.enabled() && nodes > 1).then(|| {
            let nsrv = servers.nodes.min(nodes - 1);
            let srv_nodes = node_ids[nodes - nsrv..].to_vec();
            let devs: Vec<usize> = order
                .iter()
                .copied()
                .filter(|&f| {
                    let d = world.devs.dev(f);
                    srv_nodes.contains(&d.loc.node) && health.link_factor_milli(d.nic) != 0
                })
                .collect();
            ServerSet { nodes: srv_nodes, devs }
        });
        let server_layout = servers.as_ref().map(|srv| {
            let mut nics: Vec<usize> =
                srv.devs.iter().map(|&f| world.devs.dev(f).nic.index()).collect();
            nics.sort_unstable();
            nics.dedup();
            let client_blocks = nodes - srv.nodes.len();
            let client_devs =
                order.iter().filter(|&&f| !srv.nodes.contains(&world.devs.dev(f).loc.node)).count();
            ServerLayout {
                client_blocks,
                server_devs: srv.devs.len(),
                server_nics: nics.len(),
                chain: client_devs.div_ceil(client_blocks.max(1)),
            }
        });

        let gate = CollGate::new(ranks.len());
        CommPlan {
            ranks,
            ring: RingInfo { order, nodes, nrings },
            rails,
            servers,
            server_layout,
            gate,
        }
    }

    /// The communicator shape the pricing model reads.
    fn shape(&self) -> Shape {
        Shape { n: self.ring.order.len(), nrings: self.ring.nrings, servers: self.server_layout }
    }
}

/// One registry slot: the plan, pinned by a strong reference until
/// every listed member has taken it.
struct Slot {
    /// The world the plan was built on. The weak reference keeps the
    /// allocation, and so the registry key's address, from being reused
    /// by a later world while the slot exists.
    world: Weak<FabricWorld>,
    plan: Weak<CommPlan>,
    /// Held until `pending` reaches zero, so a rank that drops its
    /// communicator before a peer wakes from its init charge does not
    /// free the plan under it. A listed member that never initialises
    /// (a rank killed before its init) leaves the pin in place: the
    /// plan then lives as long as the world, and the slot goes with the
    /// first build after the world is dropped.
    pin: Option<Arc<CommPlan>>,
    /// Init calls still expected: one per listed member, which is why
    /// every listed rank initialises exactly once per `UniqueId`.
    pending: usize,
}

/// The plan for `id` on `world`: the first rank to initialise builds it,
/// later ranks clone the `Arc`. The process-global registry pins the
/// plan until every listed member has taken it, then holds only a weak
/// reference, so a plan lives as long as some rank's communicator does
/// and one `UniqueId` reused on another world never aliases its layout.
fn shared_plan(
    world: &Arc<FabricWorld>,
    id: UniqueId,
    ranks: Vec<usize>,
    servers: ServerSpec,
) -> Arc<CommPlan> {
    type Registry = Mutex<HashMap<(u64, usize), Slot>>;
    static PLANS: OnceLock<Registry> = OnceLock::new();
    let mut plans = PLANS.get_or_init(Registry::default).lock();
    let key = (id.bits(), Arc::as_ptr(world) as usize);
    if let Some(slot) = plans.get_mut(&key) {
        if let Some(plan) = slot.plan.upgrade() {
            debug_assert_eq!(plan.ranks, ranks, "every rank must initialise with the same ranks");
            slot.pending = slot.pending.saturating_sub(1);
            if slot.pending == 0 {
                slot.pin = None;
            }
            return plan;
        }
    }
    plans.retain(|_, slot| slot.plan.strong_count() > 0 && slot.world.strong_count() > 0);
    #[cfg(test)]
    tests::BUILT.lock().push(id.bits());
    let pending = ranks.len() - 1;
    let plan = Arc::new(CommPlan::build(world, ranks, servers));
    let slot = Slot {
        world: Arc::downgrade(world),
        plan: Arc::downgrade(&plan),
        pin: (pending > 0).then(|| plan.clone()),
        pending,
    };
    plans.insert(key, slot);
    plan
}

/// A communicator over the devices of a set of ranks (the backend of one
/// DiOMP group, paper §3.3).
pub struct XcclComm {
    /// The fabric world.
    pub world: Arc<FabricWorld>,
    /// Bootstrap identifier this communicator was created from.
    pub id: UniqueId,
    /// Completion-time engine (see [`CollEngine`]).
    pub engine: CollEngine,
    /// QoS class of the owning job (see [`CommOpts::qos`]).
    pub qos: QosClass,
    /// This rank's traffic flow: tags every chunk charge the collective
    /// engines issue, so armed contention prices them at the
    /// communicator's QoS weight.
    flow: FlowId,
    /// This rank's dedicated flow for reduction-server fan-back traffic
    /// (None without servers — the communicator then allocates exactly
    /// the flow ids it did before the server engine existed).
    server_flow: Option<FlowId>,
    /// The layout shared by every rank of this communicator.
    plan: Arc<CommPlan>,
    /// Construction options, kept verbatim so [`XcclComm::shrink`] can
    /// re-initialise the survivor communicator with the same policy.
    opts: CommOpts,
}

impl XcclComm {
    /// Collectively initialise a communicator over `ranks` (every listed
    /// rank must call with the same `ranks`/`id`/`opts`). Charges the
    /// library's initialisation cost (topology discovery, ring
    /// construction, transport setup) to the calling rank only: there is
    /// no barrier, so each rank returns after its own charge and the
    /// first collective's gate is the first rendezvous. The layout is
    /// built once, by the first rank to arrive, and shared by every rank
    /// of the communicator.
    ///
    /// Engine, QoS weight and server designation all ride in
    /// [`CommOpts`]; `CommOpts::default()` reproduces the historical
    /// default constructor.
    pub fn init(
        ctx: &mut Ctx,
        world: &Arc<FabricWorld>,
        ranks: Vec<usize>,
        my_rank: usize,
        id: UniqueId,
        opts: CommOpts,
    ) -> Arc<XcclComm> {
        assert!(ranks.contains(&my_rank));
        // Topology discovery + transport setup (ncclCommInitRank).
        ctx.delay(Dur::micros(world.platform.coll.xccl_init_us));
        let plan = shared_plan(world, id, ranks, opts.servers);
        // Per-rank flows, in the historical allocation order: the server
        // fan-back flow (only when servers are configured), then the
        // communicator flow — flow ids, and so traces, replay unchanged.
        let server_flow = plan.servers.as_ref().map(|_| ctx.new_flow(opts.qos.weight_milli()));
        let flow = ctx.new_flow(opts.qos.weight_milli());
        Arc::new(XcclComm {
            world: world.clone(),
            id,
            engine: opts.engine,
            qos: opts.qos,
            flow,
            server_flow,
            plan,
            opts,
        })
    }

    /// Shrink the communicator onto the survivors of a failure:
    /// every rank the health vector marks [`RankHealth::Dead`] is
    /// dropped, and the survivor set is collectively re-initialised —
    /// a fresh shared plan (rails, reduction-server carving) and fresh
    /// QoS flows for the reduced topology, by the one constructor
    /// ([`XcclComm::init`]) with the *original* construction options.
    ///
    /// Deterministic by construction: the replacement [`UniqueId`] is
    /// derived from the old communicator's id
    /// ([`diomp_sim::derive_seed`]), so every survivor — each calling
    /// `shrink` with the *same* health vector, e.g. the survivor
    /// agreement fixpoint ([`FabricWorld::converged_health`]) — lands on
    /// the same fresh plan and rendezvous gate without any extra
    /// bootstrap round. Each survivor must call this collectively, like
    /// `init`.
    ///
    /// Panics if `my_rank` is itself marked dead or no rank survives.
    pub fn shrink(&self, ctx: &mut Ctx, health: &HealthVec, my_rank: usize) -> Arc<XcclComm> {
        let survivors: Vec<usize> = self
            .ranks()
            .iter()
            .copied()
            .filter(|&r| health.rank_health(r) != RankHealth::Dead)
            .collect();
        assert!(survivors.contains(&my_rank), "a dead rank cannot shrink a communicator");
        let id = UniqueId::from_bits(derive_seed(self.id.bits(), 0x0541_814C));
        // Retire the dying communicator's QoS flow slots *before* the
        // survivor re-init so the replacement communicator reuses them —
        // repeated shrink cycles hold the kernel's flow table at a
        // constant size instead of leaking a slot pair per retry.
        // Accumulated [`diomp_sim::FlowStats`] are discarded with the
        // slot; callers attributing bytes across a shrink must read
        // [`diomp_sim::SimHandle::flow_stats`] first (the workload
        // harness does).
        ctx.release_flow(self.flow);
        if let Some(flow) = self.server_flow {
            ctx.release_flow(flow);
        }
        XcclComm::init(ctx, &self.world, survivors, my_rank, id, self.opts)
    }

    /// Participating ranks, in order.
    pub fn ranks(&self) -> &[usize] {
        &self.plan.ranks
    }

    /// Discovered ring topology.
    pub fn ring(&self) -> &RingInfo {
        &self.plan.ring
    }

    /// Position of a device in the ring.
    pub fn ring_pos(&self, flat: usize) -> usize {
        self.ring().order.iter().position(|&f| f == flat).expect("device not in communicator")
    }

    /// Number of devices in the communicator.
    pub fn ndevices(&self) -> usize {
        self.ring().order.len()
    }

    /// The dedicated QoS flow server fan-back traffic is charged to
    /// (None when no servers are configured). Pass it to
    /// [`diomp_sim::SimHandle::flow_stats`] to observe server traffic
    /// separately from the communicator's client flow.
    pub fn server_flow(&self) -> Option<FlowId> {
        self.server_flow
    }

    /// The engine a collective of `op` on `len` bytes runs on. Under
    /// [`CollEngine::Auto`] that is the argmin of [`XcclComm::price_us`]
    /// over LL/tree, DBT, ring and (with live servers) the reduction
    /// server on the live per-op chunking, with one margin in favour of
    /// the ring. Running the returned engine pinned is bit-identical to
    /// the `Auto` call. A pinned engine is returned as is.
    pub fn auto_choice(&self, op: &XcclOp, len: u64) -> CollEngine {
        let CollEngine::Auto(ac) = self.engine else { return self.engine };
        price::choose(&self.live_platform(), &self.plan.shape(), &ac, op, len)
    }

    /// The pricing model's estimate of `engine` running `op` on `len`
    /// bytes over this communicator, in µs — the function `Auto` takes
    /// its argmin of. `None` for engines with no schedule of their own
    /// for the op here (and for `Profile` and `Auto`, which are not
    /// candidates).
    pub fn price_us(&self, engine: &CollEngine, op: &XcclOp, len: u64) -> Option<f64> {
        price::price_us(&self.live_platform(), &self.plan.shape(), engine, op, len)
    }

    /// The platform as the fabric delivers it *now*: the health vector's
    /// worst live factor scales the wire rate (dead ranks and rails are
    /// blacklisted at init, not priced), so a slower wire shifts the
    /// pricing toward the bandwidth-optimal engines. A healthy fabric
    /// prices on the unmodified tables.
    fn live_platform(&self) -> Cow<'_, PlatformSpec> {
        let factor = self.world.health().worst_live_factor_milli();
        let mut platform = Cow::Borrowed(&self.world.platform);
        if factor < 1000 {
            platform.to_mut().net.nic_gbps *= f64::from(factor) / 1000.0;
        }
        platform
    }

    /// Launch a collective. Every participating rank calls this with the
    /// buffers of *its* devices (`DeviceBuf` per owned device); all block
    /// until the modelled completion and the data semantics have been
    /// applied. Returns the completion instant.
    ///
    /// `len` is the per-device payload in bytes.
    pub fn collective(
        &self,
        ctx: &mut Ctx,
        my_rank: usize,
        my_bufs: Vec<DeviceBuf>,
        op: XcclOp,
        len: u64,
    ) -> SimTime {
        match self.try_collective(ctx, my_rank, my_bufs, op, len, Wait::Block) {
            Ok(done) => done,
            Err(_) => unreachable!("a blocking collective cannot abort"),
        }
    }

    /// [`XcclComm::collective`] under a wait discipline — the elastic
    /// entry point. [`Wait::Block`] is exactly `collective` (bit-
    /// identical park and completion). With [`Wait::Until`] every park
    /// at the rendezvous gate is bounded; when a deadline expires before
    /// the gate fills, the `gaspi_state_vec` probe runs
    /// ([`FabricWorld::probe_health`]) and the fault plan is consulted:
    /// a member rank whose kill time has passed means the gate can never
    /// fill, so the arrival is withdrawn — buffers untouched, since data
    /// semantics only ever run when a gate fills — and [`CollAbort`] is
    /// returned for the caller to [`XcclComm::shrink`] and re-run.
    /// A timeout *without* a confirmed death re-parks: slowness is
    /// straggling, not failure.
    pub fn try_collective(
        &self,
        ctx: &mut Ctx,
        my_rank: usize,
        my_bufs: Vec<DeviceBuf>,
        op: XcclOp,
        len: u64,
        wait: Wait,
    ) -> Result<SimTime, CollAbort> {
        let idx =
            self.ranks().iter().position(|&r| r == my_rank).expect("rank not in communicator");
        let dead = |ctx: &mut Ctx| {
            // GASPI discipline: the expired deadline is the failure
            // signal; probe the state vector (committing any death
            // transition), then ask the plan whether a member's kill
            // time has passed. Degraded-but-alive members are
            // stragglers and never abort.
            self.world.probe_health();
            let now = ctx.now();
            ctx.handle().fault_plan().is_some_and(|p| {
                self.ranks().iter().any(|&r| p.kill_time(r as u32).is_some_and(|t| t <= now))
            })
        };
        self.plan.gate.arrive_with(ctx, idx, my_bufs, wait, dead, |ctx, arrivals| {
            self.execute(ctx, arrivals, op, len)
        })
    }

    /// Run one collective in the last-arriving rank's task: pick the
    /// engine (the priced argmin under `Auto`), drive its schedule, and
    /// schedule the data semantics at the completion instant.
    fn execute(&self, ctx: &mut Ctx, arrivals: &[Arrival], op: XcclOp, len: u64) -> SimTime {
        let world = &self.world;
        let plan = &self.plan;
        let order = &plan.ring.order;
        // Assemble buffers in ring order.
        let mut by_flat: Vec<Option<DeviceBuf>> = vec![None; world.devs.len()];
        for a in arrivals {
            for b in &a.bufs {
                by_flat[b.flat] = Some(*b);
            }
        }
        let bufs: Vec<DeviceBuf> = order
            .iter()
            .map(|&f| by_flat[f].unwrap_or_else(|| panic!("no buffer for device {f}")))
            .collect();

        let root_pos = match op {
            XcclOp::Broadcast { root } | XcclOp::Reduce { root, .. } => Some(root),
            _ => None,
        };
        let root_flat = root_pos.map(|r| order[r]);
        let allreduce = matches!(op, XcclOp::AllReduce { .. });
        // Membership semantics of a server-equipped communicator:
        // allreduce reduces over the *client* ranks only (in ring
        // order — the sequential reference association), delivered
        // to every client; server buffers pass through untouched.
        // This is a property of the communicator, not of the engine
        // that happens to run, so every engine on such a
        // communicator stays byte-comparable — and the ring
        // fallback for a dead server set produces the same bytes
        // the server schedule would have.
        let client_bufs: Option<Vec<DeviceBuf>> =
            plan.servers.as_ref().filter(|_| allreduce).map(|srv| {
                order
                    .iter()
                    .zip(&bufs)
                    .filter(|&(&f, _)| !srv.nodes.contains(&world.devs.dev(f).loc.node))
                    .map(|(_, b)| *b)
                    .collect()
            });
        // Live server set, when the schedule can actually run.
        let live_srv = plan.servers.as_ref().filter(|s| !s.devs.is_empty() && allreduce);

        let engine = self.auto_choice(&op, len);
        // Every engine stays total over ops: an op (or server set) an
        // engine has no schedule for runs the ring on its chunking —
        // degrade, never hang.
        let ring_cfg = match engine {
            CollEngine::Ring(rc) => Some(rc),
            CollEngine::LlTree(ac) if matches!(op, XcclOp::AllGather) => Some(ac.ring_for(&op)),
            CollEngine::Dbt(rc) if matches!(op, XcclOp::AllGather) => Some(rc),
            CollEngine::ReductionServer(rc) if live_srv.is_none() => Some(rc),
            _ => None,
        };
        let done = match (ring_cfg, engine) {
            // Emergent completion: run the chunk-pipelined ring schedule
            // over the simulated links in this (the last arriving) task's
            // context.
            (Some(rc), _) => {
                ring::execute(ctx, &world.platform, &plan.rails, self.flow, op, root_flat, len, rc)
            }
            (None, CollEngine::LlTree(ac)) => ll::execute(ctx, world, order, op, root_pos, len, ac),
            (None, CollEngine::Dbt(rc)) => {
                dbt::execute(ctx, world, &plan.rails, self.flow, op, root_flat, len, rc)
            }
            (None, CollEngine::ReductionServer(rc)) => rserver::execute(
                ctx,
                world,
                &plan.rails,
                self.flow,
                live_srv.expect("a server schedule needs live servers"),
                self.server_flow.expect("a server-equipped communicator has a server flow"),
                op,
                len,
                rc,
            ),
            (None, CollEngine::Profile) => {
                // Modelled completion: launch + ring-fill hop latency +
                // wire bytes over the library's achieved-bandwidth
                // curve. The curve is calibrated per platform against
                // the vendor library's measured behaviour (Fig. 6) and
                // already includes multi-rail aggregation and protocol
                // switches (LL/LL128/Simple), which is why it need not
                // be monotonic.
                let n = order.len();
                let profile = op.profile(&world.platform.coll);
                let hops = (n.max(2) - 1) as u32;
                let wire = (len as f64 * op.wire_factor(n)).ceil() as u64;
                let us = profile.time_us(wire.max(1), hops);
                ctx.now() + Dur::micros(us)
            }
            (None, CollEngine::Ring(_) | CollEngine::Auto(_)) => {
                unreachable!("the ring always has a config and Auto resolves to a concrete engine")
            }
        };

        // Real data semantics at completion. The ring engine combines
        // reduction segments in ring chain order; the profile engine,
        // the LL/tree fast path, the DBT and the reduction-server
        // engines keep the sequential reference order (tree reductions
        // fold whole payloads with the root's contribution first — the
        // reference association, property-tested byte-identical to the
        // sequential fold). On a server-equipped communicator the
        // client-only fold overrides both (membership semantics —
        // uniform across engines).
        let ring_semantics = ring_cfg.is_some();
        let devs = world.devs.clone();
        let plan = plan.clone();
        ctx.handle().schedule_at(done, move |_| {
            if let Some(cb) = &client_bufs {
                op.apply(&devs, cb, len)
            } else if ring_semantics {
                ring::apply(&devs, &plan.rails, op, &bufs, len)
            } else {
                op.apply(&devs, &bufs, len)
            }
        });
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diomp_device::{DataMode, DeviceTable};
    use diomp_sim::{ClusterSpec, Sim, Topology};

    /// Ids of every plan [`shared_plan`] built, in build order.
    pub(super) static BUILT: Mutex<Vec<u64>> = Mutex::new(Vec::new());

    #[test]
    fn ranks_dropping_their_communicators_at_once_build_the_plan_once() {
        // Every rank parks on its init charge before taking the plan and
        // drops its communicator as soon as it returns, so ranks wake and
        // leave one at a time: without the pin, each later rank would
        // find the plan freed and rebuild it.
        const NRANKS: usize = 16;
        let mut sim = Sim::new();
        let spec = ClusterSpec {
            platform: diomp_sim::PlatformSpec::platform_c(),
            nodes: NRANKS,
            gpus_per_node: 1,
        };
        let topo = Arc::new(Topology::build(&sim.handle(), spec));
        let devs =
            DeviceTable::build(&sim.handle(), topo.clone(), DataMode::CostOnly, Some(1 << 16));
        let world = FabricWorld::new(topo, devs, NRANKS);
        let id = UniqueId::generate();
        for r in 0..NRANKS {
            let world = world.clone();
            sim.spawn(format!("rank{r}"), move |ctx| {
                drop(XcclComm::init(
                    ctx,
                    &world,
                    (0..NRANKS).collect(),
                    r,
                    id,
                    CommOpts::default(),
                ));
            });
        }
        sim.run().unwrap();
        let builds = BUILT.lock().iter().filter(|&&b| b == id.bits()).count();
        assert_eq!(builds, 1, "CommPlan::build must run once per communicator");
    }

    #[test]
    fn ranks_share_one_plan_and_shrink_builds_a_new_one() {
        const NRANKS: usize = 8;
        let mut sim = Sim::new();
        let spec = ClusterSpec {
            platform: diomp_sim::PlatformSpec::platform_a(),
            nodes: 2,
            gpus_per_node: 4,
        };
        let topo = Arc::new(Topology::build(&sim.handle(), spec));
        let devs =
            DeviceTable::build(&sim.handle(), topo.clone(), DataMode::CostOnly, Some(1 << 20));
        let world = FabricWorld::new(topo, devs, NRANKS);
        let id = UniqueId::generate();
        let plans = Arc::new(Mutex::new(Vec::new()));
        for r in 0..NRANKS {
            let (world, plans) = (world.clone(), plans.clone());
            sim.spawn(format!("rank{r}"), move |ctx| {
                let comm =
                    XcclComm::init(ctx, &world, (0..NRANKS).collect(), r, id, CommOpts::default());
                plans.lock().push((r, comm.plan.clone()));
                let mut health = HealthVec::healthy(NRANKS);
                health.observe(NRANKS - 1, 0);
                if r != NRANKS - 1 {
                    let shrunk = comm.shrink(ctx, &health, r);
                    assert_eq!(shrunk.ranks(), &(0..NRANKS - 1).collect::<Vec<_>>()[..]);
                    plans.lock().push((NRANKS + r, shrunk.plan.clone()));
                }
            });
        }
        sim.run().unwrap();
        let plans = plans.lock();
        let first = |lo: usize| plans.iter().find(|(r, _)| *r >= lo).unwrap().1.clone();
        let (full, survivors) = (first(0), first(NRANKS));
        for (r, plan) in plans.iter() {
            let want = if *r < NRANKS { &full } else { &survivors };
            assert!(Arc::ptr_eq(plan, want), "slot {r} must share its communicator's plan");
        }
        assert!(!Arc::ptr_eq(&full, &survivors), "shrink must build a fresh plan");
        assert_eq!(plans.len(), 2 * NRANKS - 1);
    }
}
