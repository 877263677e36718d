//! One pricing model for [`CollEngine::Auto`]: every candidate engine's
//! closed form behind one function, and `Auto`'s choice as its argmin.
//!
//! The closed forms live with their engines ([`crate::ll`],
//! [`crate::dbt`], [`crate::ring`], [`crate::rserver`]) and read the same
//! calibrated platform tables the engines execute on. [`price_us`] prices
//! one engine on one communicator shape; [`choose`] prices every
//! candidate that has a schedule for the op (the DBT once per chunk of
//! its depth-aware ladder) and returns the cheapest, with one margin in favour of the ring — the bandwidth-optimal
//! default a missed win costs least against. The regime boundaries are
//! simply the sizes where the argmin changes; there are no per-engine
//! crossover scans and no size guardrails.

use diomp_sim::PlatformSpec;

use crate::dbt;
use crate::ll::{self, AutoConfig};
use crate::ops::XcclOp;
use crate::ring::{self, CollEngine};
use crate::rserver::{self, ServerLayout};

/// A non-ring engine must price this many times below the ring to be
/// chosen: the closed forms are estimates, and the ring is the engine
/// whose misprediction costs least.
pub(crate) const RING_MARGIN: f64 = 1.25;

/// The communicator shape the closed forms price from.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Shape {
    /// Devices in the communicator.
    pub(crate) n: usize,
    /// Live rails (after the dead-rail filter).
    pub(crate) nrings: usize,
    /// Live reduction-server layout; None without servers.
    pub(crate) servers: Option<ServerLayout>,
}

/// Modelled completion time of `engine` running an `len`-byte `op` on
/// `shape`, in µs, on `platform` (the health-scaled platform at call
/// time): the op's kernel launch, which every engine pays, plus the
/// engine's schedule. `None` when the engine has no schedule of its own
/// for the op there — LL/tree and DBT for all-gather, the reduction
/// server for anything but allreduce or without live servers — and for
/// the engines that are not candidates (`Profile`, `Auto`).
pub(crate) fn price_us(
    platform: &PlatformSpec,
    shape: &Shape,
    engine: &CollEngine,
    op: &XcclOp,
    len: u64,
) -> Option<f64> {
    let launch = op.profile(&platform.coll).launch_us;
    schedule_us(platform, shape, engine, op, len).map(|t| launch + t)
}

/// The schedule part of [`price_us`]: each engine's closed form.
fn schedule_us(
    platform: &PlatformSpec,
    shape: &Shape,
    engine: &CollEngine,
    op: &XcclOp,
    len: u64,
) -> Option<f64> {
    let s = len as f64;
    match engine {
        CollEngine::LlTree(ac) => (shape.n >= 2 && !matches!(op, XcclOp::AllGather))
            .then(|| ll::model_time_us(platform, op, shape.n, ac, s)),
        CollEngine::Dbt(rc) => dbt::model_time_us(platform, op, shape.n, shape.nrings, *rc, s),
        CollEngine::Ring(rc) => {
            Some(ring::model_time_us(platform, op, shape.n, shape.nrings, rc.chunk_bytes, s))
        }
        CollEngine::ReductionServer(rc) => shape
            .servers
            .filter(|l| l.server_devs > 0 && matches!(op, XcclOp::AllReduce { .. }))
            .map(|l| rserver::model_time_us(platform, op, shape.nrings, &l, rc.chunk_bytes, s)),
        CollEngine::Profile | CollEngine::Auto(_) => None,
    }
}

/// `Auto`'s choice for an `len`-byte `op`: the argmin of [`price_us`]
/// over LL/tree, the DBT at each chunk of [`dbt::chunk_ladder`], the
/// ring and the reduction server, the other chunk-pipelined candidates
/// on the live per-op chunking `ac.ring_for(op)`, with the non-ring
/// candidates' schedules inflated by [`RING_MARGIN`] (the launch every
/// engine pays is exact, so the margin leaves it out). Ties keep the
/// earlier candidate, so the DBT keeps its live chunk unless a finer
/// one prices strictly cheaper. Single-device communicators run the
/// ring (every engine is a no-op there).
pub(crate) fn choose(
    platform: &PlatformSpec,
    shape: &Shape,
    ac: &AutoConfig,
    op: &XcclOp,
    len: u64,
) -> CollEngine {
    let rc = ac.ring_for(op);
    let ring = CollEngine::Ring(rc);
    if shape.n < 2 {
        return ring;
    }
    let mut best = (schedule_us(platform, shape, &ring, op, len).expect("the ring is total"), ring);
    let dbt = dbt::chunk_ladder(rc, shape.nrings, len).map(CollEngine::Dbt);
    let candidates = std::iter::once(CollEngine::LlTree(*ac))
        .chain(dbt)
        .chain([CollEngine::ReductionServer(rc)]);
    for engine in candidates {
        if let Some(t) = schedule_us(platform, shape, &engine, op, len) {
            if t * RING_MARGIN < best.0 {
                best = (t * RING_MARGIN, engine);
            }
        }
    }
    best.1
}

/// `Auto`'s choice at every power of two from 1 KiB to 1 GiB: the grid
/// the unit tests read the argmin's regime boundaries off.
#[cfg(test)]
pub(crate) fn choices(
    platform: &PlatformSpec,
    shape: &Shape,
    ac: &AutoConfig,
    op: &XcclOp,
) -> Vec<(u64, CollEngine)> {
    (10..=30).map(|k| 1u64 << k).map(|s| (s, choose(platform, shape, ac, op, s))).collect()
}

/// The largest grid size at which `Auto` picks an engine `pick` accepts
/// (0 when it never does) — a regime's upper boundary.
#[cfg(test)]
pub(crate) fn last_pick(
    platform: &PlatformSpec,
    shape: &Shape,
    ac: &AutoConfig,
    op: &XcclOp,
    pick: fn(&CollEngine) -> bool,
) -> u64 {
    choices(platform, shape, ac, op)
        .into_iter()
        .filter(|(_, e)| pick(e))
        .map(|(s, _)| s)
        .max()
        .unwrap_or(0)
}
