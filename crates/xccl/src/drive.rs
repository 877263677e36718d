//! Shared chunk-schedule drivers for the protocol engines.
//!
//! The ring, DBT and reduction-server engines all compile their
//! collective into the same normal form — a table of chunk sends, each
//! pinned to a per-edge FIFO *lane*, enabled by the *arrival* of zero or
//! more upstream sends, and bounded by a per-lane in-flight window — and
//! hand it to one of two drivers here:
//!
//! * [`drive_schedule`] — the **explicit** driver: every chunk is a
//!   kernel event plus a scheduled completion action, and the progress
//!   loop parks on [`Ctx::wait_any_batched`]. This is the reference
//!   semantics (and the only driver that supports an armed contention
//!   model, whose weighted-fair queues reorder completions at runtime).
//! * [`drive_schedule_fast`] — the **coalesced** driver: the identical
//!   schedule is priced arithmetically against the live link resources
//!   (same reservation calls, same rounding, same fault perturbation)
//!   without allocating a single kernel event; the whole collective
//!   collapses to one coalesced wake entry carrying the chunk count.
//!   Virtual time, per-resource watermarks and flow statistics are
//!   bit-identical to the explicit driver — the property tests in
//!   `tests/fastpath.rs` pin this across engines, sizes and fault plans.
//!
//! Dependencies are precomputed into a CSR [`DepTable`] (replacing the
//! old per-probe `&dyn Fn` closure) and arrivals tracked in a packed
//! [`BitSet`], so the hot loop is monomorphic and allocation-free.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use diomp_sim::{Ctx, Dur, EventId, FlowId, ResourceId, SimTime};

/// One chunk transfer as the drivers see it: the link resource it
/// occupies, its FIFO lane, its wire bytes (payload already scaled by
/// the edge's link efficiency), and the QoS flow the transfer is
/// charged to.
pub(crate) struct ChunkSend {
    pub(crate) res: ResourceId,
    pub(crate) lane: u32,
    pub(crate) wire: u64,
    pub(crate) flow: FlowId,
}

/// Precomputed send dependencies in compressed-sparse-row form: row `i`
/// lists the send indices whose *arrival* enables send `i`. Replaces
/// the per-probe `deps_met: &dyn Fn(usize, &[bool])` closure the
/// drivers used to take — the probe is now an indexed slice walk over a
/// bitset, monomorphic and branch-predictable.
pub(crate) struct DepTable {
    off: Vec<u32>,
    idx: Vec<u32>,
}

impl DepTable {
    /// Start a table expecting `sends` rows and about `deps` total edges.
    pub(crate) fn with_capacity(sends: usize, deps: usize) -> Self {
        let mut off = Vec::with_capacity(sends + 1);
        off.push(0);
        DepTable { off, idx: Vec::with_capacity(deps) }
    }

    /// Append the dependency row of the next send. Must be called once
    /// per send, in send-index order.
    pub(crate) fn push_row(&mut self, deps: impl IntoIterator<Item = u32>) {
        self.idx.extend(deps);
        self.off.push(self.idx.len() as u32);
    }

    /// Have all of send `si`'s dependencies arrived?
    #[inline]
    fn met(&self, si: usize, arrived: &BitSet) -> bool {
        self.idx[self.off[si] as usize..self.off[si + 1] as usize]
            .iter()
            .all(|&d| arrived.get(d as usize))
    }

    /// Number of dependency rows (= sends) pushed so far.
    pub(crate) fn rows(&self) -> usize {
        self.off.len() - 1
    }
}

/// Packed arrival flags, one bit per send (replaces `Vec<bool>`).
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(n: usize) -> Self {
        BitSet { words: vec![0; n.div_ceil(64)] }
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        (self.words[i >> 6] >> (i & 63)) & 1 != 0
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1 << (i & 63);
    }
}

/// A chunk schedule under construction, in generation order — which is
/// also each lane's FIFO issue order for the engines that build through
/// it (the DBT and reduction-server engines).
pub(crate) struct Schedule {
    sends: Vec<ChunkSend>,
    deps: DepTable,
    nlanes: usize,
}

impl Schedule {
    /// An empty schedule over `nlanes` lanes.
    pub(crate) fn new(nlanes: usize) -> Self {
        Schedule { sends: Vec::new(), deps: DepTable::with_capacity(0, 0), nlanes }
    }

    /// Append a chunk of `bytes` payload on `res` (at link efficiency
    /// `eff`) in `lane`, charged to `flow` and enabled by the arrival of
    /// `deps`; returns its send index.
    pub(crate) fn push(
        &mut self,
        res: ResourceId,
        lane: u32,
        bytes: u64,
        eff: f64,
        flow: FlowId,
        deps: impl IntoIterator<Item = u32>,
    ) -> u32 {
        self.deps.push_row(deps);
        let wire = ((bytes as f64 / eff).ceil() as u64).max(1);
        self.sends.push(ChunkSend { res, lane, wire, flow });
        (self.sends.len() - 1) as u32
    }

    /// Drive the schedule to completion — coalesced when the run allows
    /// it ([`fast_path_ok`]), explicit otherwise — with `window` chunks
    /// in flight per lane and `step_us` of per-chunk processing, plus the
    /// receive-side processing of the final chunk. Returns the
    /// completion instant.
    pub(crate) fn run(self, ctx: &mut Ctx, window: usize, step_us: f64) -> SimTime {
        if self.sends.is_empty() {
            return ctx.now();
        }
        let mut lanes: Vec<Vec<u32>> = vec![Vec::new(); self.nlanes];
        for (i, s) in self.sends.iter().enumerate() {
            lanes[s.lane as usize].push(i as u32);
        }
        let step = Dur::micros(step_us);
        if fast_path_ok(ctx) {
            drive_schedule_fast(ctx, &self.sends, &lanes, window, step, &self.deps);
        } else {
            drive_schedule(ctx, &self.sends, &lanes, window, step, &self.deps);
        }
        ctx.delay(step);
        ctx.now()
    }
}

/// Should a collective schedule take the event-free coalesced driver?
///
/// Armed contention forces the explicit driver: the weighted-fair
/// queues re-price in-service transfers whenever the backlogged flow
/// set changes, which only the live event machinery models. An armed
/// *fault plan* does **not** force the explicit driver — the coalesced
/// driver prices every reservation through the same kernel path, so
/// per-edge degradation windows perturb the arithmetic march exactly as
/// they perturb explicit events (the fast path disarms per edge, not
/// per run). [`diomp_sim::Sim::force_explicit_schedules`] pins the
/// explicit driver for A/B comparison (the bench gate's uncoalesced
/// reference runs).
pub(crate) fn fast_path_ok(ctx: &Ctx) -> bool {
    !ctx.contention_armed() && !ctx.explicit_schedules_forced()
}

/// Drive a chunked send schedule to completion with explicit events —
/// the reference progress loop shared by the ring, DBT and
/// reduction-server engines. Every lane is a FIFO of send indices; a
/// lane head is issued once every dependency in `deps` has arrived and
/// the lane has a free slot (`window`), charging `step_d` of per-chunk
/// processing before the wire bytes occupy the resource. In-flight
/// completions drain with [`Ctx::wait_any_batched`] — one wake per park
/// — and arrivals enable downstream sends.
///
/// Each chunk is charged to its own [`ChunkSend::flow`] — normally the
/// issuing communicator's QoS flow, but the reduction-server engine
/// charges server fan-back to the communicator's dedicated server flow —
/// so that on a contention-armed simulator concurrent collectives
/// fair-share each link by QoS weight. Disarmed (the default), the
/// charge is bit-identical to a plain FIFO `transfer_from`.
pub(crate) fn drive_schedule(
    ctx: &mut Ctx,
    sends: &[ChunkSend],
    lanes: &[Vec<u32>],
    window: usize,
    step_d: Dur,
    deps: &DepTable,
) {
    debug_assert_eq!(deps.rows(), sends.len());
    let window = window.max(1);
    let nlanes = lanes.len();
    let mut lane_next = vec![0usize; nlanes];
    let mut lane_inflight = vec![0usize; nlanes];
    let mut arrived = BitSet::new(sends.len());
    let mut inflight: Vec<(EventId, u32)> = Vec::new();
    let mut evs: Vec<EventId> = Vec::new();
    loop {
        // Issue every lane head whose dependencies have arrived, up to
        // the per-edge slot window.
        for l in 0..nlanes {
            while lane_next[l] < lanes[l].len() && lane_inflight[l] < window {
                let si = lanes[l][lane_next[l]] as usize;
                if !deps.met(si, &arrived) {
                    break;
                }
                // Per-chunk processing (reduce / copy / flag check)
                // before the chunk is injected on the edge's link.
                let ready = ctx.now() + step_d;
                let ev =
                    ctx.handle().transfer_qos(sends[si].res, sends[si].flow, ready, sends[si].wire);
                inflight.push((ev, si as u32));
                lane_next[l] += 1;
                lane_inflight[l] += 1;
            }
        }
        if inflight.is_empty() {
            assert!(
                lane_next.iter().zip(lanes).all(|(&nx, l)| nx == l.len()),
                "chunk schedule stalled with sends outstanding"
            );
            break;
        }
        evs.clear();
        evs.extend(inflight.iter().map(|&(ev, _)| ev));
        let _ = ctx.wait_any_batched(&evs);
        // Retire everything that completed at this instant.
        inflight.retain(|&(ev, si)| {
            if ctx.event_done(ev) {
                ctx.free_event(ev);
                arrived.set(si as usize);
                lane_inflight[sends[si as usize].lane as usize] -= 1;
                false
            } else {
                true
            }
        });
    }
}

/// Drive the identical schedule without events: an arithmetic march
/// that replays the explicit driver's decisions exactly.
///
/// The explicit loop only ever acts at *arrival instants*: the task
/// wakes at the earliest in-flight completion, retires everything that
/// arrived at that instant, then runs one issue pass over the lanes in
/// index order. This march reproduces that literally — a local min-heap
/// of `(arrive, issue_seq)` stands in for the kernel's event queue, and
/// each issue reserves the real link resource through
/// [`diomp_sim::SimHandle::transfer_flow`]: the same serialisation
/// (`free_at`), the same integer rounding, the same fault-window
/// perturbation and the same flow accounting as the event path, minus
/// the event. The kernel clock stays frozen at the issue instant for
/// the whole march (reservations land in the virtual future, exactly as
/// the FIFO resource model already allows), and the march ends in a
/// single [`Ctx::sleep_until_coalesced`] wake carrying the chunk count
/// — one heap entry standing in for every per-chunk completion.
///
/// Caller contract: contention must be disarmed ([`fast_path_ok`]).
pub(crate) fn drive_schedule_fast(
    ctx: &mut Ctx,
    sends: &[ChunkSend],
    lanes: &[Vec<u32>],
    window: usize,
    step_d: Dur,
    deps: &DepTable,
) {
    debug_assert_eq!(deps.rows(), sends.len());
    let window = window.max(1);
    let nlanes = lanes.len();
    let mut lane_next = vec![0usize; nlanes];
    let mut lane_inflight = vec![0usize; nlanes];
    let mut arrived = BitSet::new(sends.len());
    // Pending in-flight arrivals, earliest first; `seq` breaks arrival
    // ties by issue order, mirroring the kernel queue's FIFO tiebreak.
    let mut heap: BinaryHeap<Reverse<(SimTime, u32, u32)>> = BinaryHeap::new();
    let mut seq = 0u32;
    let mut t = ctx.now();
    loop {
        // Issue pass at instant `t` — identical lane scan order to the
        // explicit driver's pass at the same wake instant.
        for l in 0..nlanes {
            while lane_next[l] < lanes[l].len() && lane_inflight[l] < window {
                let si = lanes[l][lane_next[l]] as usize;
                if !deps.met(si, &arrived) {
                    break;
                }
                let ready = t + step_d;
                let tr = ctx.handle().transfer_flow(
                    sends[si].res,
                    sends[si].flow,
                    ready,
                    sends[si].wire,
                );
                heap.push(Reverse((tr.arrive, seq, si as u32)));
                seq += 1;
                lane_next[l] += 1;
                lane_inflight[l] += 1;
            }
        }
        let Some(&Reverse((at, _, _))) = heap.peek() else {
            assert!(
                lane_next.iter().zip(lanes).all(|(&nx, l)| nx == l.len()),
                "chunk schedule stalled with sends outstanding"
            );
            break;
        };
        // Retire every arrival at this instant, exactly as the explicit
        // loop retires every event completed at its wake instant.
        t = at;
        while let Some(&Reverse((a, _, si))) = heap.peek() {
            if a != t {
                break;
            }
            heap.pop();
            arrived.set(si as usize);
            lane_inflight[sends[si as usize].lane as usize] -= 1;
        }
    }
    // One coalesced wake standing in for every per-chunk completion.
    ctx.sleep_until_coalesced(t, sends.len() as u64);
}
