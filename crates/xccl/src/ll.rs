//! The LL-style small-message engine: fused eager sends over binomial
//! trees.
//!
//! NCCL's LL ("low latency") protocol sends small payloads as fused
//! data+flag lines: one eager message per peer, no chunk windowing, no
//! separate completion handshake — the receiver polls the flag that
//! arrives *with* the data. That is what produces the small-size dips of
//! the fitted Fig. 6 curves which a pure chunk-pipelined ring cannot
//! reproduce: below the bandwidth crossover the ring pays `n−1` (or
//! `2(n−1)`) serial step latencies where a tree pays `⌈log2 n⌉`.
//!
//! This module executes the [`crate::tree`] schedules over the simulated
//! links with exactly that transport: each hop charges one small
//! software overhead ([`AutoConfig::ll_hop_ns`], derived by the
//! transport autotuner from the platform's conduit tables — a fused
//! write needs only the conduit's initiation cost, not the ring
//! engine's per-step processing), then injects the whole payload as one
//! message on the sender's link resource. Link FIFO serialisation and
//! contention with concurrent traffic still apply — the schedule is
//! closed-form per hop but the resources are shared.
//!
//! [`model_time_us`] is this engine's term in the one pricing model
//! [`CollEngine::Auto`] takes its argmin over
//! ([`crate::price::price_us`]).
//!
//! [`CollEngine::Auto`]: crate::CollEngine::Auto

use diomp_fabric::FabricWorld;
use diomp_sim::{Ctx, Dur, PlatformSpec, SimTime};

use crate::ops::XcclOp;
use crate::ring::{self, RingConfig};
use crate::tree;

/// Configuration of the [`CollEngine::Auto`](crate::CollEngine::Auto)
/// engine: the LL/tree transport costs and the live per-op ring
/// chunking every chunk-pipelined candidate (ring, double binary tree,
/// reduction server) runs on.
///
/// Constructed by the transport autotuner (`diomp-core`'s `Tuner`
/// derives the LL hop cost and the tuned ring configs from the active
/// conduit's tables); [`AutoConfig::for_platform`] gives the
/// GASNet-EX-based derivation when only the platform is known.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AutoConfig {
    /// Chunking for broadcast-shaped ops (broadcast, and all-gather —
    /// which has no latency-bound regime; every byte must travel
    /// anyway). This is the *live* config the chosen engine runs on and
    /// the one its closed form is priced with — the two may never
    /// diverge (the pre-PR 5 bug priced the switch against
    /// `RingConfig::default()` even when the engine ran a custom ring).
    pub ring_bcast: RingConfig,
    /// Chunking for allreduce-shaped ops
    /// (allreduce, reduce) — tuned separately because the per-step
    /// processing cost of a reduction differs from a copy in the
    /// platform tables.
    pub ring_allred: RingConfig,
    /// Per-hop software cost of one fused payload+flag eager send, in
    /// nanoseconds (integer so the engine selector stays `Eq`). Derived
    /// from the conduit tables: write initiation (+ GPU registration or
    /// notification post), with no separate completion round.
    pub ll_hop_ns: u64,
    /// Fraction of raw inter-node wire bandwidth one fused eager send
    /// achieves, in thousandths (integer for `Eq`). Comes from the same
    /// conduit tables as the hop cost, so a GPI-2-tuned engine prices
    /// its wire term with GPI-2's efficiency, not GASNet's.
    pub wire_eff_milli: u16,
}

impl AutoConfig {
    /// Derive the LL transport cost from the platform's GASNet-EX tables
    /// (initiator software + GPU segment registration,
    /// [`PlatformSpec::gasnet_op_overhead_us`]; the flag rides in the
    /// same message for free — that is the LL trick), and the ring
    /// fallbacks from the same tables via [`RingConfig::auto`] at the
    /// platform's full-node rail count.
    pub fn for_platform(p: &PlatformSpec) -> Self {
        let nrings = crate::ring::default_nrings(p);
        Self::for_conduit(
            p.gasnet_op_overhead_us(),
            p.gasnet.eff,
            RingConfig::auto(p, &XcclOp::Broadcast { root: 0 }, nrings),
            RingConfig::auto(p, &XcclOp::AllReduce { op: diomp_fabric::ReduceOp::SumF32 }, nrings),
        )
    }

    /// Build from a conduit's per-operation overhead (µs), asymptotic
    /// wire efficiency, and the *live* ring configurations the engine
    /// will fall back to — the single place the fixed-point conversions
    /// live, shared by [`Self::for_platform`] and the core `Tuner`'s
    /// per-conduit derivation. Threading the rings through here is what
    /// keeps the pricing honest: the closed forms price exactly the
    /// chunking the chosen engine runs on.
    pub fn for_conduit(
        op_overhead_us: f64,
        wire_eff: f64,
        ring_bcast: RingConfig,
        ring_allred: RingConfig,
    ) -> Self {
        debug_assert!(
            op_overhead_us.is_finite() && op_overhead_us >= 0.0,
            "conduit op overhead must be finite and non-negative, got {op_overhead_us}"
        );
        debug_assert!(
            wire_eff.is_finite() && wire_eff > 0.0 && wire_eff <= 1.0,
            "conduit wire efficiency must be a positive fraction in (0, 1], got {wire_eff}"
        );
        AutoConfig {
            ring_bcast,
            ring_allred,
            ll_hop_ns: (op_overhead_us * 1000.0).ceil() as u64,
            // Clamp at conversion time so even a sub-half-milli (but
            // positive) efficiency keeps a representable floor instead
            // of silently collapsing to a 1000× slower wire at read
            // time (the pre-PR 5 clamp lived in `wire_eff()` and masked
            // misconfigured conduits).
            wire_eff_milli: (wire_eff * 1000.0).round().clamp(1.0, 1000.0) as u16,
        }
    }

    /// The live ring configuration the chunk-pipelined engines run `op`
    /// on — per op class, because the platform tables price a
    /// reduction step differently from a copy step.
    pub fn ring_for(&self, op: &XcclOp) -> RingConfig {
        match op {
            XcclOp::Broadcast { .. } | XcclOp::AllGather => self.ring_bcast,
            XcclOp::AllReduce { .. } | XcclOp::Reduce { .. } => self.ring_allred,
        }
    }

    /// The wire efficiency as a fraction. The conversion in
    /// [`Self::for_conduit`] guarantees at least one thousandth, so no
    /// read-time clamp is needed (or wanted — it would mask a zeroed
    /// field as a 1000× slower wire).
    pub(crate) fn wire_eff(&self) -> f64 {
        f64::from(self.wire_eff_milli) / 1000.0
    }
}

/// Closed-form estimate of the LL/tree schedule's completion time for
/// an `s`-byte `op` on `n` devices, in µs — the LL term of
/// [`crate::price::price_us`]. The tree pays `⌈log2 n⌉` rounds (doubled
/// for allreduce: reduce + broadcast) of fused-send overhead + wire
/// latency + the whole payload at the conduit's asymptotic
/// single-message bandwidth.
pub(crate) fn model_time_us(
    platform: &PlatformSpec,
    op: &XcclOp,
    n: usize,
    ac: &AutoConfig,
    s: f64,
) -> f64 {
    let rounds = tree::rounds(n) as f64;
    let hops = match op {
        XcclOp::AllReduce { .. } => 2.0 * rounds,
        _ => rounds,
    };
    let ll_hop_us = ac.ll_hop_ns as f64 / 1000.0;
    // One fused message per hop at the tuned conduit's achieved rate.
    let ll_bw = platform.net.nic_gbps * ac.wire_eff() * 1e3; // B/µs
    hops * (ll_hop_us + platform.net.latency_us + s / ll_bw)
}

/// Execute the LL/tree schedule for a small collective and return the
/// modelled completion instant. Runs in the last-arriving rank's task
/// like the ring engine, but the schedule is closed-form: each hop
/// charges the sender's link resource directly (so concurrent traffic
/// still contends) and no progress loop or chunk windowing is needed —
/// one fused message per tree edge, which is also why this path costs
/// almost no scheduler entries.
///
/// `root_pos` is the ring position of the root for rooted ops; the
/// symmetric allreduce reduces to position 0 and broadcasts back.
pub(crate) fn execute(
    ctx: &mut Ctx,
    world: &FabricWorld,
    order: &[usize],
    op: XcclOp,
    root_pos: Option<usize>,
    len: u64,
    ac: AutoConfig,
) -> SimTime {
    let platform = &world.platform;
    let profile = op.profile(&platform.coll);
    let hop = Dur::nanos(ac.ll_hop_ns.max(1));
    let n = order.len();
    let t0 = ctx.now() + Dur::micros(profile.launch_us);
    if n <= 1 || len == 0 {
        return t0;
    }
    let h = ctx.handle().clone();
    // One fused message per hop: sender-side software, then the payload
    // on the sender's outbound link (NIC across nodes, GPU-fabric port
    // within one). `combine` charges the receiver's fold for reductions.
    let send = |t: &mut Vec<SimTime>, s: usize, d: usize, combine: bool| {
        let sd = world.devs.dev(order[s]);
        let dd = world.devs.dev(order[d]);
        let (res, eff) = if sd.loc.node == dd.loc.node {
            (sd.port, ring::INTRA_EFF)
        } else {
            (sd.nic, ac.wire_eff())
        };
        let wire = ((len as f64 / eff).ceil() as u64).max(1);
        let tr = h.transfer_from(res, t[s] + hop, wire);
        let at = if combine { tr.arrive + hop } else { tr.arrive };
        t[d] = t[d].max(at);
    };
    let done = match op {
        XcclOp::Broadcast { .. } => {
            let root = root_pos.expect("broadcast without a root");
            let mut t = vec![SimTime::ZERO; n];
            t[root] = t0;
            for (s, d) in tree::bcast_hops(n, root) {
                send(&mut t, s, d, false);
            }
            t.into_iter().max().unwrap()
        }
        XcclOp::Reduce { .. } => {
            let root = root_pos.expect("reduce without a root");
            let mut t = vec![t0; n];
            for (s, d) in tree::reduce_hops(n, root) {
                send(&mut t, s, d, true);
            }
            t[root]
        }
        XcclOp::AllReduce { .. } => {
            // Reduce to position 0, broadcast back: 2·⌈log2 n⌉ rounds.
            let mut t = vec![t0; n];
            for (s, d) in tree::reduce_hops(n, 0) {
                send(&mut t, s, d, true);
            }
            let mut t2 = vec![SimTime::ZERO; n];
            t2[0] = t[0];
            for (s, d) in tree::bcast_hops(n, 0) {
                send(&mut t2, s, d, false);
            }
            t2.into_iter().max().unwrap()
        }
        XcclOp::AllGather => unreachable!("all-gather never takes the LL path"),
    };
    // Receive-side flag poll of the final fused line.
    done + hop
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::price::{choices, last_pick, Shape};
    use crate::CollEngine;
    use diomp_fabric::ReduceOp;

    /// The LL/tree regime's upper boundary (0 when `Auto` never runs it).
    fn crossover_bytes(
        p: &PlatformSpec,
        op: &XcclOp,
        n: usize,
        nrings: usize,
        ac: &AutoConfig,
    ) -> u64 {
        let shape = Shape { n, nrings, servers: None };
        last_pick(p, &shape, ac, op, |e| matches!(e, CollEngine::LlTree(_)))
    }

    #[test]
    fn crossover_is_zero_for_allgather_and_tiny_comms() {
        let p = PlatformSpec::platform_a();
        let ac = AutoConfig::for_platform(&p);
        assert_eq!(crossover_bytes(&p, &XcclOp::AllGather, 8, 4, &ac), 0);
        assert_eq!(crossover_bytes(&p, &XcclOp::Broadcast { root: 0 }, 1, 1, &ac), 0);
    }

    #[test]
    fn crossovers_are_positive_and_bounded_at_paper_scale() {
        // At the Fig. 6 device counts the tree protocols (LL/tree or the
        // double binary tree) must own the small sizes on every
        // platform, for both measured ops, and the LL/tree path must
        // lose the bandwidth race well before the top of the grid — on
        // A and C. B's allreduce is the documented exception: its ring
        // runs on the calibrated RCCL curve, far below the wire rate the
        // LL path is priced (and simulated) at, so LL/tree wins there at
        // every size.
        for (p, n, nrings) in [
            (PlatformSpec::platform_a(), 64usize, 4usize),
            (PlatformSpec::platform_b(), 64, 4),
            (PlatformSpec::platform_c(), 16, 1),
        ] {
            let ac = AutoConfig::for_platform(&p);
            for op in [XcclOp::Broadcast { root: 0 }, XcclOp::AllReduce { op: ReduceOp::SumF32 }] {
                let shape = Shape { n, nrings, servers: None };
                for (s, e) in choices(&p, &shape, &ac, &op) {
                    assert!(
                        s > 64 << 10 || !matches!(e, CollEngine::Ring(_)),
                        "{}: {op:?}@{s} must run a tree protocol, not {e:?}",
                        p.name
                    );
                }
                let cut = crossover_bytes(&p, &op, n, nrings, &ac);
                let b_allreduce =
                    p.id == diomp_sim::PlatformId::B && matches!(op, XcclOp::AllReduce { .. });
                assert!(
                    b_allreduce || cut <= 16 << 20,
                    "{}: {op:?} LL/tree crossover {cut} must stay below 16 MiB",
                    p.name
                );
            }
        }
    }

    #[test]
    fn crossover_tracks_the_live_ring_config() {
        // The PR 5 headline bugfix: the LL/tree path must be priced
        // against the chunking the other engines actually run on, so
        // changing the live ring chunking must move the crossover. Each
        // case is a shape where LL/tree meets the ring: three single-GPU
        // nodes of C are too few for a DBT, and on B at Fig. 6 scale
        // LL/tree owns the broadcast band between the DBT and the ring.
        let cases = [
            (PlatformSpec::platform_c(), XcclOp::AllReduce { op: ReduceOp::SumF32 }, 3, 1),
            (PlatformSpec::platform_b(), XcclOp::Broadcast { root: 0 }, 64, 4),
        ];
        let mono = RingConfig { chunk_bytes: u64::MAX, max_inflight: 2 };
        for (p, op, n, nrings) in cases {
            let bcast = matches!(op, XcclOp::Broadcast { .. });
            let ac = AutoConfig::for_platform(&p);
            let tuned = crossover_bytes(&p, &op, n, nrings, &ac);
            assert!(tuned > 0, "{} {op:?}: LL regime must be non-empty", p.name);
            // A monolithic (unpipelined) ring pays the whole segment's
            // wire time on every hop, so the modelled ring slows down and
            // the fast path must extend.
            let mut own = ac;
            // The per-op threading matters too: the other op's config
            // change must not move this op's crossover.
            let mut other = ac;
            if bcast {
                (own.ring_bcast, other.ring_allred) = (mono, mono);
            } else {
                (own.ring_allred, other.ring_bcast) = (mono, mono);
            }
            let moved = crossover_bytes(&p, &op, n, nrings, &own);
            assert!(
                moved > tuned,
                "{} {op:?}: crossover must move with the ring chunk: {moved} (monolithic) vs \
                 {tuned} (tuned)",
                p.name
            );
            assert_eq!(crossover_bytes(&p, &op, n, nrings, &other), tuned, "{} {op:?}", p.name);
        }
    }

    #[test]
    fn wire_eff_round_trips_at_the_extremes() {
        let rings = (RingConfig::default(), RingConfig::default());
        for eff in [0.001, 0.0004, 0.5, 0.9995, 1.0] {
            let ac = AutoConfig::for_conduit(1.0, eff, rings.0, rings.1);
            let got = ac.wire_eff();
            assert!(got > 0.0, "eff {eff} must never collapse to zero");
            assert!(got <= 1.0, "eff {eff} must stay a fraction, got {got}");
            // Fixed-point granularity is one thousandth; the conversion
            // floor is the only deviation allowed beyond rounding.
            assert!(
                (got - eff).abs() <= 0.0005 + 1e-12 || (eff < 0.0005 && got == 0.001),
                "eff {eff} round-tripped to {got}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "wire efficiency")]
    #[cfg(debug_assertions)]
    fn zero_wire_efficiency_is_rejected_not_masked() {
        // The pre-PR 5 clamp silently turned a zeroed efficiency into a
        // 1000× slower wire; now the constructor refuses it outright.
        let _ = AutoConfig::for_conduit(1.0, 0.0, RingConfig::default(), RingConfig::default());
    }

    #[test]
    fn crossover_derives_from_the_tables_not_constants() {
        // Same shape, different platforms -> different crossovers.
        let ac_a = AutoConfig::for_platform(&PlatformSpec::platform_a());
        let ac_b = AutoConfig::for_platform(&PlatformSpec::platform_b());
        assert_ne!(ac_a.ll_hop_ns, ac_b.ll_hop_ns);
        let op = XcclOp::AllReduce { op: ReduceOp::SumF32 };
        let a = crossover_bytes(&PlatformSpec::platform_a(), &op, 64, 4, &ac_a);
        let b = crossover_bytes(&PlatformSpec::platform_b(), &op, 64, 4, &ac_b);
        // B's calibrated RCCL allreduce is far from the wire rate, so the
        // tree stays ahead much longer there than on A.
        assert!(b >= a, "platform B should keep the fast path at least as long as A");
    }
}
