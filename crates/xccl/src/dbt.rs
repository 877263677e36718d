//! The double-binary-tree engine: the mid-band bandwidth algorithm
//! between the LL/tree latency protocol and the chunk-pipelined ring.
//!
//! A ring allreduce pays `2(n−1)` serial step latencies; below the
//! multi-MiB sizes where its near-perfect bandwidth utilisation pays
//! off, those steps dominate. NCCL's answer (and this module's) is the
//! *double binary tree* of Sanders, Speck & Träff: two complementary
//! trees over the same ranks, each reducing-then-broadcasting **half**
//! the payload in `⌈log2 n⌉` rounds. The trees complement each other —
//! no rank forwards (has children) in both trees — so the per-rank
//! send load stays ≈ `2·len`, the same asymptotic wire cost as the
//! ring, while the critical path shrinks from `2(n−1)` steps to
//! `2⌈log2 n⌉`.
//!
//! The trees span **node blocks**, not devices: within a node the
//! payload chains over the GPU fabric to the block's *leader*, and only
//! leaders talk across nodes — one up and at most two down NIC
//! transfers per node per tree, which keeps the per-NIC load at the
//! ring's `2·slice` bound (a device-level tree crosses a node boundary
//! at every subtree seam and loses the bandwidth race before latency
//! even counts). Like the ring engine, the schedule runs **per rail**:
//! the payload splits across the communicator's `nrings` rails, and the
//! rails' rotated block orders make a different device lead each rail's
//! blocks, so the leader NIC load spreads across the node's NICs
//! exactly like the ring's boundary crossings (NCCL's tree *channels*).
//!
//! Execution mirrors [`crate::ring`]: the schedule is a table of chunk
//! sends with explicit dependencies (a chunk climbs to a parent only
//! once the same chunk has arrived from *both* children; it descends to
//! a child only once it has arrived from the parent), per-edge FIFO
//! lanes bound in-flight chunks to the configured window, and the
//! progress loop drains completions with
//! [`diomp_sim::Ctx::wait_any_batched`] — one wake per park. Chunk size
//! and window are table-derived ([`RingConfig::auto`], the knee
//! machinery at the latency–bandwidth balance point), so the whole mid
//! band is tuned from the platform tables, not constants.
//!
//! [`model_time_us`] prices this protocol from the same tables for
//! [`CollEngine::Auto`](crate::CollEngine::Auto)'s argmin
//! ([`crate::price::price_us`]).

use diomp_fabric::FabricWorld;
use diomp_sim::{Ctx, Dur, FlowId, PlatformSpec, SimTime};

use crate::drive;
use crate::ops::XcclOp;
use crate::ring::{self, Rail, RingConfig};

/// One of the two trees: parent/children per ring position.
#[derive(Clone, Debug)]
pub(crate) struct Tree {
    root: usize,
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
}

impl Tree {
    fn from_parents(root: usize, parent: Vec<Option<usize>>) -> Tree {
        let mut children = vec![Vec::new(); parent.len()];
        for (v, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[*p].push(v);
            }
        }
        Tree { root, parent, children }
    }

    /// Longest root-to-leaf path in hops.
    pub(crate) fn depth(&self) -> usize {
        let mut d = vec![0usize; self.parent.len()];
        let mut todo = self.children[self.root].clone();
        let mut max = 0;
        while let Some(v) = todo.pop() {
            d[v] = d[self.parent[v].unwrap()] + 1;
            max = max.max(d[v]);
            todo.extend(self.children[v].iter().copied());
        }
        max
    }

    /// Positions ordered root-first (every parent before its children).
    fn top_down(&self) -> Vec<usize> {
        let mut out = vec![self.root];
        let mut i = 0;
        while i < out.len() {
            out.extend(self.children[out[i]].iter().copied());
            i += 1;
        }
        out
    }
}

/// Parent of `v` in the single binary tree over `0..n` rooted at 0 —
/// NCCL's `ncclGetBtree` construction: strip the lowest set bit and
/// attach to the next power-of-two boundary, falling back inside range.
/// Odd positions are always leaves, even positions interior — the
/// property the complementary second tree exploits.
fn btree_parent(n: usize, v: usize) -> Option<usize> {
    if v == 0 {
        return None;
    }
    let bit = v & v.wrapping_neg();
    let up = (v ^ bit) | (bit << 1);
    Some(if up >= n { v ^ bit } else { up })
}

/// The two complementary trees over `n` ring positions. Tree 0 is the
/// plain btree; tree 1 is its *shift* (odd `n`) or *mirror* (even `n`),
/// which swaps the leaf/interior roles: for even `n` no position
/// forwards in both trees (odd `n` concedes one overlapping position —
/// perfect complementarity is impossible there), so the two
/// half-payload pipelines never stack their forwarding load onto the
/// same NICs.
pub(crate) fn double_tree(n: usize) -> [Tree; 2] {
    let t0 = Tree::from_parents(0, (0..n).map(|v| btree_parent(n, v)).collect());
    let t1 = if n % 2 == 1 {
        // Shift: relabel v -> v+1 (mod n).
        let parent =
            (0..n).map(|v| btree_parent(n, (v + n - 1) % n).map(|p| (p + 1) % n)).collect();
        Tree::from_parents(1 % n, parent)
    } else {
        // Mirror: relabel v -> n-1-v.
        let parent = (0..n).map(|v| btree_parent(n, n - 1 - v).map(|p| n - 1 - p)).collect();
        Tree::from_parents(n - 1, parent)
    };
    [t0, t1]
}

/// Most chunks one tree half may hold on a chunk finer than the live
/// one. The ladder stops there: a finer grain past it marches more
/// chunks for a fill that barely shrinks, and a payload already split
/// this finely keeps the live chunk, and with it its schedule size.
const LADDER_HALF_CHUNKS: u64 = 64;

/// The chunkings [`crate::price::choose`] prices the DBT at for an
/// `len`-byte payload over `nrings` rails: the live config, then each
/// power of two below its chunk down to [`ring::RING_CHUNK_ALIGN`] while
/// a tree half holds at most [`LADDER_HALF_CHUNKS`] chunks, all on the
/// live window. The live knee is flat-optimal only at shallow trees; a
/// deep tree's fill, paid per hop in chunk wire time, rewards a finer
/// grain, and the pricing model finds where the lane window stops it.
pub(crate) fn chunk_ladder(
    live: RingConfig,
    nrings: usize,
    len: u64,
) -> impl Iterator<Item = RingConfig> {
    let half = len.div_ceil(2 * nrings.max(1) as u64);
    let finer = (live.chunk_bytes > ring::RING_CHUNK_ALIGN)
        .then(|| 1u64 << (live.chunk_bytes - 1).ilog2())
        .into_iter()
        .flat_map(|top| std::iter::successors(Some(top), |c| Some(c / 2)))
        .take_while(move |&c| c >= ring::RING_CHUNK_ALIGN && half.div_ceil(c) <= LADDER_HALF_CHUNKS)
        .map(move |chunk_bytes| RingConfig { chunk_bytes, ..live });
    std::iter::once(live).chain(finer)
}

/// Closed-form estimate of the double-binary-tree schedule's completion
/// time for an `s`-byte `op` on `n` devices over `nrings` rails under
/// `cfg`'s chunking and lane window, in µs — the DBT term of
/// [`crate::price::price_us`]. `None` when the engine has no tree
/// schedule worth pricing: all-gather, and communicators too small for
/// two useful node trees.
///
/// The first chunk fills the pipeline: per phase (two for allreduce) it
/// climbs or descends the node tree's actual depth (computed from the
/// `double_tree` construction, not an idealised `log2 n`) and the
/// intra-node chain. Each tree hop pays the per-chunk step, the wire
/// latency and the chunk's wire time plus its queueing behind the
/// sibling sends on the same NIC. Every later chunk then costs one
/// period of the busiest NIC: the wire time of the sends it carries per
/// chunk index, or the lane window's bound — `cfg.max_inflight` chunks
/// per turnaround of step, latency and that NIC round — when that is
/// slower. The bound is what gives small communicators an interior
/// optimum chunk: a finer grain shortens the fill but, past the
/// window's reach, slows every chunk after it.
///
/// Per op, the busiest NIC's sends per chunk index:
///
/// * **Allreduce**: an interior-tree leader sends up and twice down on
///   its forwarding tree and up on its leaf tree — four sends, since the
///   rails' rotated blocks spread the leaders over the node's NICs. The
///   reduce and broadcast streams overlap only partly, so the period
///   runs at 0.9 of the four sends (calibrated against the emergent
///   engine on C at 16–4096 ranks).
/// * **Broadcast**: both trees of every rail are rotated onto the
///   root's block, which puts the same blocks in the interior of both
///   trees (each forwarding two chunks to two children) and makes the
///   root device lead its block on *every* rail: four sends on an
///   interior NIC, two per rail on the root's.
/// * **Reduce**: links are charged to the sender, and every non-root
///   leader sends each tree's chunk up exactly once — two sends.
pub(crate) fn model_time_us(
    platform: &PlatformSpec,
    op: &XcclOp,
    n: usize,
    nrings: usize,
    cfg: RingConfig,
    s: f64,
) -> Option<f64> {
    let gpn = platform.gpus_per_node.max(1);
    let nb = n.div_ceil(gpn);
    if n < 4 || nb < 2 || matches!(op, XcclOp::AllGather) {
        return None;
    }
    let t = ring::tuning_for(platform, op, nrings);
    let tree_depth = double_tree(nb).iter().map(Tree::depth).max().unwrap() as f64;
    let chain = (n.min(gpn) - 1) as f64;
    let lat = platform.net.latency_us;
    let bw = platform.net.nic_gbps * t.inter_eff * 1e3; // B/µs per edge
    let nrings_f = nrings.max(1) as f64;
    // (phases, queueing per hop in chunk wire times, busiest NIC's sends
    // per chunk index, share of those sends on the period).
    let (phases, queue, sends, share) = match op {
        XcclOp::AllReduce { .. } => (2.0, 1.25, 4.0, 0.9),
        XcclOp::Broadcast { .. } => (1.0, 2.0, (2.0 * nrings_f).max(4.0), 1.0),
        _ => (1.0, 1.0, 2.0, 1.0),
    };
    // Per-rail tree payload; each tree carries half of it.
    let half = s / (2.0 * nrings_f);
    let cw = half.min(cfg.chunk_bytes.max(1) as f64);
    let wire = cw / bw;
    // A broadcast root injects all its sends of the first chunk index
    // back to back; the last of them leaves that many wire times late.
    let root_queue =
        if matches!(op, XcclOp::Broadcast { .. }) { (sends - queue) * wire } else { 0.0 };
    let fill = phases
        * (tree_depth * (t.step_us + lat + queue * wire)
            + chain * (t.step_us + platform.intra.gpu_link_lat_us))
        + root_queue;
    let window = cfg.max_inflight.max(1) as f64;
    let period = (share * sends * wire).max((t.step_us + lat + sends * wire) / window);
    // Every chunk after the first costs one period; the final chunk's
    // receive-side step closes the schedule.
    let later = if half > cw { (half - cw) / cw * period } else { 0.0 };
    Some(fill + later + t.step_us)
}

/// Execute the double-binary-tree schedule in the calling task's
/// context, advancing virtual time to the emergent completion instant.
/// Mirrors `ring::execute`: per-rail payload slices, per-edge FIFO
/// lanes, `cfg.max_inflight` chunks outstanding per lane, completions
/// drained with the batched wait-any.
///
/// `root_flat` roots both trees of every rail for broadcast/reduce
/// (each tree is rotated so its natural root lands on the requested
/// device); the symmetric allreduce keeps the natural roots so the
/// leaf/interior complementarity is exact.
#[allow(clippy::too_many_arguments)] // one arg per schedule dimension; a struct would be ceremony
pub(crate) fn execute(
    ctx: &mut Ctx,
    world: &FabricWorld,
    rails: &[Rail],
    flow: FlowId,
    op: XcclOp,
    root_flat: Option<usize>,
    len: u64,
    cfg: RingConfig,
) -> SimTime {
    let platform = &world.platform;
    let t = ring::tuning_for(platform, &op, rails.len());
    ctx.delay(Dur::micros(t.launch_us));
    let n = rails.first().map_or(0, |r| r.order.len());
    if n <= 1 || len == 0 {
        return ctx.now();
    }
    let (do_reduce, do_bcast) = match op {
        XcclOp::AllReduce { .. } => (true, true),
        XcclOp::Broadcast { .. } => (false, true),
        XcclOp::Reduce { .. } => (true, false),
        XcclOp::AllGather => unreachable!("all-gather never takes the DBT path"),
    };
    let slices = ring::split_aligned(len, rails.len(), op.elem_align());
    let chunk_bytes = cfg.chunk_bytes.max(1);

    // Per-edge FIFO lane kinds, keyed so every directed edge owns
    // exactly one lane: intra-node chain hops by their *sender*
    // position, inter-node tree ups by the sending leader, tree downs
    // by the receiving leader (a leader sends up once but down twice).
    const CHAIN_UP: usize = 0;
    const CHAIN_DOWN: usize = 1;
    const TREE_UP: usize = 2;
    const TREE_DOWN: usize = 3;
    let mut sched = drive::Schedule::new(rails.len() * 2 * 4 * n);
    for (ri, rail) in rails.iter().enumerate() {
        let (_, slen) = slices[ri];
        if slen == 0 {
            continue;
        }
        // The trees span *node blocks*, not devices: within a node the
        // payload moves as a chain over the GPU fabric toward the
        // block's leader; only leaders talk across nodes, so each node
        // pays exactly one up and at most two down NIC transfers per
        // tree — the layout that keeps the per-NIC load at the ring's
        // `2·slice` bound (a device-level tree would cross node
        // boundaries at every subtree seam and lose the bandwidth race
        // ~1.5× before latency even counts). The rail's intra-block
        // rotation makes a different device lead each rail's blocks, so
        // the leader NIC load spreads across the node's NICs exactly
        // like the ring's boundary crossings.
        let mut blocks: Vec<Vec<usize>> = Vec::new();
        for i in 0..n {
            let node = world.devs.dev(rail.order[i]).loc.node;
            match blocks.last_mut() {
                Some(b) if world.devs.dev(rail.order[*b.last().unwrap()]).loc.node == node => {
                    b.push(i)
                }
                _ => blocks.push(vec![i]),
            }
        }
        let nb = blocks.len();
        // Rooted ops: the root device must lead its block (chains
        // reduce toward / broadcast from the leader).
        let rooted = matches!(op, XcclOp::Broadcast { .. } | XcclOp::Reduce { .. });
        let mut root_block = 0usize;
        if rooted {
            let rp = ring::rail_pos(rail, root_flat);
            root_block = blocks.iter().position(|b| b.contains(&rp)).unwrap();
            let at = blocks[root_block].iter().position(|&p| p == rp).unwrap();
            blocks[root_block].rotate_left(at);
        }
        let trees = double_tree(nb);
        let halves = ring::split_aligned(slen, 2, op.elem_align());
        for (ti, tree) in trees.iter().enumerate() {
            let (_, hlen) = halves[ti];
            if hlen == 0 {
                continue;
            }
            // Rooted ops rotate the tree in block space so its natural
            // root lands on the root device's block; allreduce keeps
            // the natural roots (exact leaf/interior complementarity).
            let rot = if rooted { (root_block + nb - tree.root) % nb } else { 0 };
            let blk = |b: usize| &blocks[(b + rot) % nb];
            let edge = |src: usize, dst: usize| {
                let sd = world.devs.dev(rail.order[src]);
                let dd = world.devs.dev(rail.order[dst]);
                if sd.loc.node == dd.loc.node {
                    (sd.port, t.intra_eff)
                } else {
                    (sd.nic, t.inter_eff)
                }
            };
            let lane_of = |pos: usize, kind: usize| (((ri * 2 + ti) * n + pos) * 4 + kind) as u32;
            let top_down = tree.top_down();
            let nchunks = hlen.div_ceil(chunk_bytes);
            for c in 0..nchunks {
                let cb = chunk_bytes.min(hlen - c * chunk_bytes);
                // One chunk send from `src` to `dst`, enabled by the
                // arrival of `deps`: the same chunk from the block's own
                // chain plus both child leaders (climbing), or from the
                // parent leader / the previous chain hop (descending).
                let mut send = |src: usize, dst: usize, lane: u32, deps: [Option<u32>; 3]| {
                    let (res, eff) = edge(src, dst);
                    sched.push(res, lane, cb, eff, flow, deps.into_iter().flatten())
                };
                // Reduce: each block chains its members' contributions
                // into the leader, then leaders climb the tree once both
                // child leaders' copies of this chunk have arrived.
                let mut chain_done: Vec<Option<u32>> = vec![None; nb];
                let mut up_idx: Vec<Option<u32>> = vec![None; nb];
                if do_reduce {
                    for (b, done) in chain_done.iter_mut().enumerate() {
                        let m = blk(b);
                        let mut prev = None;
                        for k in (1..m.len()).rev() {
                            let lane = lane_of(m[k], CHAIN_UP);
                            prev = Some(send(m[k], m[k - 1], lane, [prev, None, None]));
                        }
                        *done = prev;
                    }
                    for &b in top_down.iter().rev() {
                        if b == tree.root {
                            continue;
                        }
                        let mut deps = [chain_done[b], None, None];
                        for (i, &cb_) in tree.children[b].iter().enumerate() {
                            deps[i + 1] = up_idx[cb_];
                        }
                        let p = tree.parent[b].unwrap();
                        let lane = lane_of(blk(b)[0], TREE_UP);
                        up_idx[b] = Some(send(blk(b)[0], blk(p)[0], lane, deps));
                    }
                }
                // Broadcast: the root leader's sends wait for this
                // chunk's reduction to close (allreduce; no deps for a
                // pure broadcast), then the chunk descends the tree and
                // chains through each block.
                if do_bcast {
                    let root_deps = {
                        let mut d = [chain_done[tree.root], None, None];
                        for (i, &cb_) in tree.children[tree.root].iter().enumerate() {
                            d[i + 1] = up_idx[cb_];
                        }
                        d
                    };
                    let mut down_recv: Vec<Option<u32>> = vec![None; nb];
                    for &b in &top_down {
                        for &cb_ in &tree.children[b] {
                            let deps =
                                if b == tree.root { root_deps } else { [down_recv[b], None, None] };
                            let lane = lane_of(blk(cb_)[0], TREE_DOWN);
                            down_recv[cb_] = Some(send(blk(b)[0], blk(cb_)[0], lane, deps));
                        }
                        let m = blk(b);
                        let mut prev = down_recv[b];
                        for k in 1..m.len() {
                            let deps = if k == 1 && b == tree.root {
                                root_deps
                            } else {
                                [prev, None, None]
                            };
                            prev = Some(send(m[k - 1], m[k], lane_of(m[k - 1], CHAIN_DOWN), deps));
                        }
                    }
                }
            }
        }
    }
    sched.run(ctx, cfg.max_inflight, t.step_us)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::price::{choose, last_pick, Shape};
    use crate::{AutoConfig, CollEngine};
    use diomp_fabric::ReduceOp;

    /// Walk up from `v`; returns the hop count to the root (panics on a
    /// broken parent chain longer than `n`).
    fn hops_to_root(t: &Tree, mut v: usize) -> usize {
        let mut hops = 0;
        while let Some(p) = t.parent[v] {
            v = p;
            hops += 1;
            assert!(hops <= t.parent.len(), "parent chain cycles");
        }
        assert_eq!(v, t.root);
        hops
    }

    #[test]
    fn both_trees_span_every_rank_with_logarithmic_depth() {
        for n in 2..80usize {
            let bound = (n as f64).log2().ceil() as usize + 1;
            for t in double_tree(n) {
                assert!(t.parent[t.root].is_none());
                assert_eq!(t.parent.iter().filter(|p| p.is_none()).count(), 1);
                let mut max = 0;
                for v in 0..n {
                    max = max.max(hops_to_root(&t, v));
                }
                assert!(max <= bound, "n={n}: depth {max} exceeds ⌈log2 n⌉+1={bound}");
                assert_eq!(t.depth(), max, "n={n}: Tree::depth agrees with the walk");
                assert!(t.children.iter().all(|c| c.len() <= 2), "binary tree");
                assert_eq!(t.top_down().len(), n, "top_down covers every position");
            }
        }
    }

    #[test]
    fn trees_are_complementary() {
        // The double-binary-tree property: no rank forwards (has
        // children) in both trees, so the two half-payload pipelines
        // never stack their interior send load on one NIC. Odd rank
        // counts concede exactly one overlapping position (perfect
        // complementarity needs an even count).
        for n in 2..80usize {
            let [t0, t1] = double_tree(n);
            let overlaps = (0..n)
                .filter(|&v| !t0.children[v].is_empty() && !t1.children[v].is_empty())
                .count();
            assert!(
                overlaps <= n % 2,
                "n={n}: {overlaps} ranks forward in both trees (allowed: {})",
                n % 2
            );
        }
    }

    /// The DBT regime's upper boundary (0 when `Auto` never runs it).
    fn crossover_bytes(
        p: &PlatformSpec,
        op: &XcclOp,
        n: usize,
        nrings: usize,
        ac: &AutoConfig,
    ) -> u64 {
        let shape = Shape { n, nrings, servers: None };
        last_pick(p, &shape, ac, op, |e| matches!(e, CollEngine::Dbt(_)))
    }

    #[test]
    fn crossover_is_zero_for_allgather_and_tiny_comms() {
        let p = PlatformSpec::platform_a();
        let ac = AutoConfig::for_platform(&p);
        assert_eq!(crossover_bytes(&p, &XcclOp::AllGather, 16, 4, &ac), 0);
        assert_eq!(crossover_bytes(&p, &XcclOp::AllReduce { op: ReduceOp::SumF32 }, 2, 1, &ac), 0);
    }

    #[test]
    fn allreduce_mid_band_is_nonempty_at_paper_scale() {
        // The engine's reason to exist: Auto must have a genuine DBT
        // band for allreduce above the LL/tree band — at Fig. 6 scale on
        // A (64 GPUs, 4 rails), and at the 4096-rank scale sweep on C,
        // where the ring's 2(n−1) steps lose to the tree's logarithmic
        // depth up to hundreds of MiB. (On B, LL/tree wins every size —
        // see `ll::tests`; at 16 GPUs on C the band between LL/tree and
        // the ring is empty.)
        for (p, n, nrings) in
            [(PlatformSpec::platform_a(), 64usize, 4usize), (PlatformSpec::platform_c(), 4096, 1)]
        {
            let ac = AutoConfig::for_platform(&p);
            let op = XcclOp::AllReduce { op: ReduceOp::SumF32 };
            let shape = Shape { n, nrings, servers: None };
            let ll = last_pick(&p, &shape, &ac, &op, |e| matches!(e, CollEngine::LlTree(_)));
            let dbt = crossover_bytes(&p, &op, n, nrings, &ac);
            assert!(dbt > ll, "{}: DBT cut {dbt} must extend past the LL cut {ll}", p.name);
            assert!(dbt >= 4 << 20, "{}: mid band should reach 4 MiB, got {dbt}", p.name);
        }
    }

    #[test]
    fn dbt_crossover_tracks_the_live_ring_config() {
        // Mid-band counterpart of the PR 5 headline bugfix regression:
        // cheapening the live ring (tiny chunks cap its per-step wire
        // term) must shrink the band the DBT is predicted to win.
        let p = PlatformSpec::platform_a();
        let op = XcclOp::AllReduce { op: ReduceOp::SumF32 };
        let mut ac = AutoConfig::for_platform(&p);
        let tuned = crossover_bytes(&p, &op, 64, 4, &ac);
        ac.ring_allred = RingConfig { chunk_bytes: 512, max_inflight: 2 };
        let tiny = crossover_bytes(&p, &op, 64, 4, &ac);
        assert!(tiny < tuned, "DBT cut must move with the live ring chunk: {tiny} vs {tuned}");
    }

    #[test]
    fn ladder_runs_from_the_live_chunk_to_the_align_floor_under_the_half_cap() {
        let ar = XcclOp::AllReduce { op: ReduceOp::SumF32 };
        let bc = XcclOp::Broadcast { root: 0 };
        for p in
            [PlatformSpec::platform_a(), PlatformSpec::platform_b(), PlatformSpec::platform_c()]
        {
            let ac = AutoConfig::for_platform(&p);
            for live in [ac.ring_for(&ar), ac.ring_for(&bc)] {
                for nrings in 1..=4 {
                    for len in (10..=26).map(|k| 1u64 << k).chain([3 << 19, 1_000_003]) {
                        let ladder: Vec<RingConfig> = chunk_ladder(live, nrings, len).collect();
                        assert_eq!(ladder[0], live, "the live config is always a candidate");
                        let half = len.div_ceil(2 * nrings as u64);
                        for (prev, c) in ladder.iter().zip(&ladder[1..]) {
                            assert!(c.chunk_bytes < prev.chunk_bytes, "{}: strictly finer", p.name);
                            assert!(c.chunk_bytes.is_power_of_two());
                            assert!(
                                c.chunk_bytes >= ring::RING_CHUNK_ALIGN,
                                "{}: align floor",
                                p.name
                            );
                            assert!(c.chunk_bytes <= live.chunk_bytes);
                            assert_eq!(c.max_inflight, live.max_inflight, "the live window");
                            assert!(
                                half.div_ceil(c.chunk_bytes) <= LADDER_HALF_CHUNKS,
                                "{}: {len} B over {nrings} rails: {} B chunks overflow the half cap",
                                p.name,
                                c.chunk_bytes
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn an_empty_payload_prices_finite() {
        // A 0-byte payload has no chunk to pipeline: the model prices
        // the fill alone instead of dividing by a zero chunk.
        let ops = [
            XcclOp::AllReduce { op: ReduceOp::SumF32 },
            XcclOp::Broadcast { root: 0 },
            XcclOp::Reduce { root: 0, op: ReduceOp::SumF32 },
        ];
        for p in
            [PlatformSpec::platform_a(), PlatformSpec::platform_b(), PlatformSpec::platform_c()]
        {
            let ac = AutoConfig::for_platform(&p);
            let shape = Shape { n: 16 * p.gpus_per_node, nrings: 1, servers: None };
            for op in &ops {
                let engine = CollEngine::Dbt(ac.ring_for(op));
                let t = crate::price::price_us(&p, &shape, &engine, op, 0).unwrap();
                assert!(t.is_finite() && t > 0.0, "{}: {op:?} at 0 B priced {t}", p.name);
            }
        }
    }

    #[test]
    fn scale_16mb_allreduce_keeps_the_live_chunk() {
        // A 16 MiB allreduce over 4096 single-GPU nodes of C already
        // splits each tree half far past the cap at the live chunk: the
        // ladder offers nothing finer, so the schedule (and its memory)
        // is the one the live knee builds.
        let p = PlatformSpec::platform_c();
        let ac = AutoConfig::for_platform(&p);
        let op = XcclOp::AllReduce { op: ReduceOp::SumF32 };
        let live = ac.ring_for(&op);
        assert_eq!(chunk_ladder(live, 1, 16 << 20).collect::<Vec<_>>(), [live]);
        let shape = Shape { n: 4096, nrings: 1, servers: None };
        assert_eq!(choose(&p, &shape, &ac, &op, 16 << 20), CollEngine::Dbt(live));
    }

    #[test]
    fn deep_trees_take_a_finer_chunk_and_shallow_ones_an_interior_optimum() {
        let p = PlatformSpec::platform_c();
        let ac = AutoConfig::for_platform(&p);
        let op = XcclOp::AllReduce { op: ReduceOp::SumF32 };
        let live = ac.ring_for(&op);
        // 4096 ranks, 1 MiB: the 12-hop fill dominates, so the finest
        // chunk the half cap admits wins.
        let shape = Shape { n: 4096, nrings: 1, servers: None };
        assert_eq!(
            choose(&p, &shape, &ac, &op, 1 << 20),
            CollEngine::Dbt(RingConfig { chunk_bytes: 8 << 10, ..live })
        );
        // 16 ranks, 256 KiB: the cap admits 4 KiB, but the lane window
        // bounds it, so the cheapest rung sits between the floor and the
        // knee.
        let len = 256 << 10;
        let price = |rc: &RingConfig| model_time_us(&p, &op, 16, 1, *rc, len as f64).unwrap();
        let ladder: Vec<RingConfig> = chunk_ladder(live, 1, len).collect();
        assert_eq!(ladder.last().unwrap().chunk_bytes, ring::RING_CHUNK_ALIGN);
        let best = ladder.iter().min_by(|a, b| price(a).total_cmp(&price(b))).unwrap();
        assert!(
            ring::RING_CHUNK_ALIGN < best.chunk_bytes && best.chunk_bytes < live.chunk_bytes,
            "interior optimum, got {} B",
            best.chunk_bytes
        );
    }
}
