//! GPU kernels (§3.2.1) on the SIMT simulator.
//!
//! All variants map **one query to one thread** (as the paper does) with
//! [`crate::THREADS_PER_BLOCK`]-thread blocks, traverse the forest tree by
//! tree accumulating votes in registers, and write one 4-byte prediction
//! per query at the end.
//!
//! No kernel decodes a layout. Per level, each active lane advances its
//! cursor through the layout's own `step_with` into a `LaneFetches`
//! recorder — the region offsets of what it fetched, the query feature
//! it compared, the way it went — and the kernel then issues the warp's
//! instructions from those records: attribute reads, the leaf-exit
//! branch, the query read, ALU work, the direction and hop branches and
//! the hop reads. `Region` maps a layout's region offsets onto its
//! device buffers. So the variants differ exactly where the paper's
//! differ — where a node sits and what each read costs:
//!
//! | kernel | node reads / level | hop reads | node residence |
//! |---|---|---|---|
//! | [`csr`] | 2 attribute + `children_arr_idx` + query + `children_arr` | — | global |
//! | [`independent`] | 2 attribute + query | `connection_offset`, `subtree_connection`, next `subtree_node_offset` | global |
//! | [`hybrid`] | root subtree: one shared access; below: as independent; + query | the two connection reads | shared + global |
//! | [`collaborative`] | one shared access + query; every subtree staged, all queries pushed through each | one `subtree_connection` read per hopping lane | shared (staged) |
//! | [`fil`] | 1 colocated 12-byte node + query | — | global |
//! | [`block_per_tree`] | as independent, one block per tree over all queries, atomic votes (§3.2.1 ablation) | none | global |
//!
//! EXPERIMENTS.md D6 lists the hop-charging differences between the
//! hierarchical kernels.

pub mod block_per_tree;
pub mod collaborative;
pub mod csr;
pub mod fil;
pub mod hybrid;
pub mod independent;

use crate::THREADS_PER_BLOCK;
use rfx_core::memprobe::FetchSink;
use rfx_core::Label;
use rfx_gpu_sim::{DeviceBuffer, GpuStats, Grid, LaneAccess};
use std::sync::Mutex;

/// Result of one simulated GPU inference run.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuRun {
    /// Majority-vote prediction per query.
    pub predictions: Vec<Label>,
    /// Simulator counters and modeled time.
    pub stats: GpuStats,
}

/// Launch geometry for `num_queries` one-query-per-thread kernels.
pub(crate) fn grid_for(num_queries: usize) -> Grid {
    Grid {
        num_blocks: num_queries.div_ceil(THREADS_PER_BLOCK).max(1),
        threads_per_block: THREADS_PER_BLOCK,
    }
}

/// Maps the 32 lanes of `(block, warp)` to query indices (None past the
/// end of the batch).
pub(crate) fn lane_queries(
    ctx: &rfx_gpu_sim::BlockCtx,
    warp: usize,
    num_queries: usize,
) -> [Option<u32>; 32] {
    std::array::from_fn(|l| {
        let tid = ctx.thread_id(warp, l);
        (tid < num_queries).then_some(tid as u32)
    })
}

/// Bitmask of lanes holding a query.
pub(crate) fn mask_of(lanes: &[Option<u32>; 32]) -> u32 {
    lanes.iter().enumerate().fold(0u32, |m, (l, q)| if q.is_some() { m | (1 << l) } else { m })
}

/// Per-lane vote counters for one warp.
pub(crate) struct WarpVotes {
    votes: Vec<u32>,
    num_classes: usize,
}

impl WarpVotes {
    pub fn new(num_classes: usize) -> Self {
        Self { votes: vec![0; 32 * num_classes], num_classes }
    }

    #[inline]
    pub fn add(&mut self, lane: usize, label: Label) {
        self.votes[lane * self.num_classes + label as usize] += 1;
    }

    #[inline]
    pub fn winner(&self, lane: usize) -> Label {
        let row = &self.votes[lane * self.num_classes..(lane + 1) * self.num_classes];
        rfx_core::majority(row)
    }
}

/// Shared output sink: each block writes its disjoint query range.
pub(crate) struct PredictionSink {
    out: Mutex<Vec<Label>>,
}

impl PredictionSink {
    pub fn new(num_queries: usize) -> Self {
        Self { out: Mutex::new(vec![0; num_queries]) }
    }

    pub fn write(&self, entries: &[(u32, Label)]) {
        let mut out = self.out.lock().expect("prediction sink poisoned");
        for &(q, label) in entries {
            out[q as usize] = label;
        }
    }

    pub fn into_vec(self) -> Vec<Label> {
        self.out.into_inner().expect("prediction sink poisoned")
    }
}

/// Issues the warp store of final predictions (4 B per live lane) and
/// records them in the sink.
pub(crate) fn store_predictions(
    ctx: &mut rfx_gpu_sim::BlockCtx,
    warp: usize,
    lanes: &[Option<u32>; 32],
    votes: &WarpVotes,
    out_buf: &DeviceBuffer,
    sink: &PredictionSink,
) {
    let mut acc = [LaneAccess::NONE; 32];
    let mut writes = Vec::with_capacity(32);
    for (l, q) in lanes.iter().enumerate() {
        if let Some(q) = q {
            acc[l] = LaneAccess::read(out_buf.addr(*q as u64), 4);
            writes.push((*q, votes.winner(l)));
        }
    }
    ctx.global_write(warp, &acc);
    sink.write(&writes);
}

/// What one lane's `step_with` reported for one level: the region
/// offsets of its attribute and topology fetches (see
/// [`rfx_core::memprobe`]), the query feature it compared and the way it
/// went. A kernel steps each active lane into one of these, then issues
/// the warp's instructions from them.
#[derive(Clone, Copy, Default)]
pub(crate) struct LaneFetches {
    attributes: [u64; 4],
    num_attributes: u8,
    topology: [u64; 3],
    num_topology: u8,
    /// Query feature read by an inner node's comparison.
    pub query: u32,
    /// Whether that comparison sent the walk right.
    pub right: bool,
}

impl LaneFetches {
    /// Attribute-region offsets, in fetch order.
    pub fn attributes(&self) -> &[u64] {
        &self.attributes[..usize::from(self.num_attributes)]
    }

    /// Topology-region offsets, in fetch order.
    pub fn topology(&self) -> &[u64] {
        &self.topology[..usize::from(self.num_topology)]
    }
}

impl FetchSink for LaneFetches {
    #[inline]
    fn attribute(&mut self, offset: u64, _bytes: u32) {
        self.attributes[usize::from(self.num_attributes)] = offset;
        self.num_attributes += 1;
    }

    #[inline]
    fn topology(&mut self, offset: u64, _bytes: u32) {
        self.topology[usize::from(self.num_topology)] = offset;
        self.num_topology += 1;
    }

    #[inline]
    fn query(&mut self, feature: u32) {
        self.query = feature;
    }

    #[inline]
    fn branch(&mut self, right: bool) {
        self.right = right;
    }
}

/// One level of the walks of the lanes in `active`: `step(l, fetches)`
/// advances lane `l` through its layout's `step_with` into its entry of
/// `fetches`, emptied first, and `leaf(l, label)` takes the label of a
/// lane that stood on a leaf. Returns the mask of leaf lanes. The caller
/// keeps `fetches` across levels: filling a fresh array per level cost
/// the simulator ~10 % of its host time.
pub(crate) fn step_lanes(
    active: u32,
    fetches: &mut [LaneFetches; 32],
    mut step: impl FnMut(usize, &mut LaneFetches) -> Option<Label>,
    mut leaf: impl FnMut(usize, Label),
) -> u32 {
    let mut leaves = 0u32;
    for l in lanes_of(active) {
        let f = &mut fetches[l];
        (f.num_attributes, f.num_topology) = (0, 0);
        if let Some(label) = step(l, f) {
            leaves |= 1 << l;
            leaf(l, label);
        }
    }
    leaves
}

/// The lanes of `mask`, lowest first.
fn lanes_of(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let l = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (l < 32).then_some(l)
    })
}

/// The lanes `l` of `mask` for which `pred(l)` holds.
pub(crate) fn lanes_where(mask: u32, pred: impl Fn(usize) -> bool) -> u32 {
    lanes_of(mask).filter(|&l| pred(l)).fold(0, |m, l| m | (1 << l))
}

/// One warp read: lane `l` of `mask` reads `read(l)`, the others idle.
pub(crate) fn reads(mask: u32, read: impl Fn(usize) -> LaneAccess) -> [LaneAccess; 32] {
    std::array::from_fn(|l| if mask & (1 << l) != 0 { read(l) } else { LaneAccess::NONE })
}

/// The warp's query reads: each lane of `mask` reads the feature its
/// step compared from its own row of the row-major `queries` buffer
/// (`nf` features wide).
pub(crate) fn query_reads(
    mask: u32,
    lanes: &[Option<u32>; 32],
    fetches: &[LaneFetches; 32],
    queries: &DeviceBuffer,
    nf: u64,
) -> [LaneAccess; 32] {
    reads(mask, |l| {
        let row = u64::from(lanes[l].expect("an active lane holds a query"));
        LaneAccess::read(queries.addr(row * nf + u64::from(fetches[l].query)), 4)
    })
}

/// The device buffers behind one fetch region of a layout, in the
/// region's order (see [`rfx_core::memprobe`]): maps a region byte
/// offset to the device address of the same byte.
pub(crate) struct Region<const N: usize>([(u64, DeviceBuffer); N]);

impl<const N: usize> Region<N> {
    /// The region that lays `buffers` back to back.
    pub fn new(buffers: [DeviceBuffer; N]) -> Self {
        let mut start = 0;
        Region(buffers.map(|b| {
            let at = start;
            start += b.size_bytes();
            (at, b)
        }))
    }

    /// A lane's read of `bytes` at region `offset`.
    #[inline]
    pub fn read(&self, offset: u64, bytes: u32) -> LaneAccess {
        let &(start, buf) =
            self.0.iter().rev().find(|(start, _)| *start <= offset).expect("regions start at 0");
        debug_assert!(offset - start < buf.size_bytes(), "offset {offset} past the region");
        LaneAccess::read(buf.base() + (offset - start), bytes)
    }
}
