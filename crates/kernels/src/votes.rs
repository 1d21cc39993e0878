//! Fast vote reduction for the sharded engine: bit-sliced popcount
//! tallies and early-exit traversal.
//!
//! The sharded engine's original reduction kept a `u32` count per
//! (row, class) and incremented one of them per tree — a serial scalar
//! tally at the end of every query block. This module replaces that
//! scratch with the popcount/adder-network shape from "Efficient
//! Majority Voting in Digital Hardware": votes land as single bits in
//! **class-major `u64` lanes** (`lane[class][row]`, one bit per tree of
//! the current ≤64-tree window) and are reduced to counts with one
//! `count_ones` per lane when the window closes. A window flush costs
//! `classes × rows` popcounts and happens at most once per 64 trees, so
//! the per-vote cost is a single OR into a hot lane.
//!
//! Exact counts at shard boundaries are what make **early exit** sound:
//! after each tree shard the engine asks whether every row's leading
//! class already holds an *unreachable* lead — strictly more votes than
//! its runner-up could reach even by winning every remaining tree
//! ([`all_decided`]). When that holds the remaining
//! shards cannot change any row's argmax (nor create a tie, so
//! tie-breaking is untouched), and the engine skips them for that query
//! block. The policy choice is [`VotePolicy`], threaded through
//! `EnginePlan`.

use rfx_core::Label;

/// How the sharded engine tallies per-tree votes into labels.
///
/// All three policies produce bit-identical predictions — the exactness
/// proptests pin every one of them to `predict_reference`, argmax and
/// tie order alike. They differ only in how much work the reduction
/// (and, for [`VotePolicy::EarlyExit`], the traversal itself) performs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VotePolicy {
    /// The reference tally: one `u32` count per (row, class),
    /// incremented per tree, reduced row-by-row at block end. Every
    /// tree of every shard is traversed.
    #[default]
    Exact,
    /// Bit-sliced tally: votes accumulate as bits in class-major `u64`
    /// lanes and are reduced with popcounts once per ≤64-tree window.
    /// Same traversal order and work as [`VotePolicy::Exact`].
    BitSliced,
    /// Bit-sliced tally plus early-exit traversal: after each tree
    /// shard, a query block whose every row holds an unreachable lead
    /// (`lead > runner_up + remaining_trees + slack`) skips the
    /// remaining shards. Changes work-*ordering* only, never results;
    /// opt-in because skipped shards make per-batch timings
    /// data-dependent.
    EarlyExit {
        /// Extra votes the lead must clear beyond the provable
        /// `runner_up + remaining_trees` bound. `0` exits as early as
        /// correctness allows; raising it trades skipped work for
        /// more-uniform batch timings.
        slack: u32,
    },
}

impl VotePolicy {
    /// Stable identifier used in telemetry attributes, bench reports,
    /// and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            VotePolicy::Exact => "exact",
            VotePolicy::BitSliced => "bit-sliced",
            VotePolicy::EarlyExit { .. } => "early-exit",
        }
    }
}

impl std::fmt::Display for VotePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VotePolicy::EarlyExit { slack } => write!(f, "early-exit(slack={slack})"),
            other => f.write_str(other.name()),
        }
    }
}

/// One participant's vote scratch for one query block at a time: what
/// the engine's block loop is generic over. Trees are handed over in
/// runs that fit the accumulator's open window — votes of a run arrive
/// in any order, each naming its tree's slot in the run — and exact
/// per-(row, class) counts are readable once the window is closed.
pub(crate) trait VoteAccumulator {
    /// Rebinds the accumulator to a fresh block of `rows` rows.
    fn reset(&mut self, rows: usize);
    /// Trees the open window still takes (at least one).
    fn room(&self) -> usize;
    /// Records `label` for `row` by the tree at `slot` of the run being
    /// recorded, `slot < room()`.
    fn vote(&mut self, row: usize, slot: usize, label: Label);
    /// Marks a run of `trees ≤ room()` trees recorded.
    fn advance(&mut self, trees: usize);
    /// Folds the open window into the counts. Idempotent.
    fn close(&mut self);
    /// Row-major exact counts (`rows × classes`) of every closed window.
    fn counts(&self) -> &[u32];
    /// Window folds that did work (`kernels.votes.popcount_reductions`).
    fn flushes(&self) -> u64 {
        0
    }
}

/// The reference tally ([`VotePolicy::Exact`]): a count per (block row,
/// class), incremented per vote. Its window never fills.
pub(crate) struct Counts {
    votes: Vec<u32>,
    classes: usize,
}

impl Counts {
    /// Tally with capacity for blocks of up to `max_rows` rows.
    pub(crate) fn new(max_rows: usize, classes: usize) -> Self {
        Counts { votes: Vec::with_capacity(max_rows * classes), classes }
    }
}

impl VoteAccumulator for Counts {
    fn reset(&mut self, rows: usize) {
        self.votes.clear();
        self.votes.resize(rows * self.classes, 0);
    }

    #[inline]
    fn room(&self) -> usize {
        usize::MAX
    }

    #[inline]
    fn vote(&mut self, row: usize, _slot: usize, label: Label) {
        self.votes[row * self.classes + label as usize] += 1;
    }

    #[inline]
    fn advance(&mut self, _trees: usize) {}

    fn close(&mut self) {}

    fn counts(&self) -> &[u32] {
        &self.votes
    }
}

/// Bit-sliced vote accumulator for one query block.
///
/// Layout: `lanes[c * rows + r]` (class-major) is a `u64` whose bit `t`
/// says "the window's tree `t` voted class `c` for row `r`"; exact
/// per-(row, class) counts live in row-major `counts` and are only
/// advanced by [`VoteAccumulator::close`] popcount flushes.
/// Windows close automatically after 64 trees and explicitly at shard
/// boundaries (so early-exit checks see exact counts) and block end.
pub(crate) struct BitSlicedVotes {
    /// Class-major tree-window bitmasks, `classes × rows` of them.
    lanes: Vec<u64>,
    /// Row-major exact counts (`rows × classes`), valid after a flush.
    counts: Vec<u32>,
    /// Trees recorded in the open window (bit index of the next tree;
    /// always below 64: a full window closes itself).
    window: u32,
    /// Rows in the current block (≤ the constructed capacity).
    rows: usize,
    classes: usize,
    flushes: u64,
}

impl BitSlicedVotes {
    /// Accumulator with capacity for blocks of up to `max_rows` rows.
    pub(crate) fn new(max_rows: usize, classes: usize) -> Self {
        BitSlicedVotes {
            lanes: vec![0; max_rows * classes],
            counts: vec![0; max_rows * classes],
            window: 0,
            rows: max_rows,
            classes,
            flushes: 0,
        }
    }
}

impl VoteAccumulator for BitSlicedVotes {
    fn reset(&mut self, rows: usize) {
        debug_assert!(rows * self.classes <= self.lanes.len(), "block exceeds capacity");
        self.rows = rows;
        self.window = 0;
        self.lanes[..rows * self.classes].fill(0);
        self.counts[..rows * self.classes].fill(0);
    }

    #[inline]
    fn room(&self) -> usize {
        (u64::BITS - self.window) as usize
    }

    /// One OR into the hot class lane. The slot is explicit because the
    /// tile kernel finishes walks out of tree order.
    #[inline]
    fn vote(&mut self, row: usize, slot: usize, class: Label) {
        self.lanes[class as usize * self.rows + row] |= 1u64 << (self.window as usize + slot);
    }

    /// Flushes automatically when the 64-bit window fills.
    #[inline]
    fn advance(&mut self, trees: usize) {
        self.window += trees as u32;
        debug_assert!(self.window <= u64::BITS, "run of trees overran the vote window");
        if self.window == u64::BITS {
            self.close();
        }
    }

    /// Popcount-reduces the open window into `counts` and clears the
    /// lanes. No-op when the window is empty, so calling it at shard
    /// boundaries *and* block end never double-counts.
    fn close(&mut self) {
        if self.window == 0 {
            return;
        }
        let rows = self.rows;
        for (c, class_lanes) in self.lanes[..rows * self.classes].chunks_exact_mut(rows).enumerate()
        {
            for (r, lane) in class_lanes.iter_mut().enumerate() {
                self.counts[r * self.classes + c] += lane.count_ones();
                *lane = 0;
            }
        }
        self.window = 0;
        self.flushes += 1;
    }

    fn counts(&self) -> &[u32] {
        debug_assert_eq!(self.window, 0, "counts read with an open window");
        &self.counts[..self.rows * self.classes]
    }

    fn flushes(&self) -> u64 {
        self.flushes
    }
}

/// Whether **every** row of `counts` (row-major, `classes` wide) has a
/// leading class with an unreachable lead,
/// `lead > runner_up + remaining + slack`, where `lead` is the leader's
/// count and `runner_up` the best other class.
///
/// Soundness sketch: the leader can only gain votes, so its final
/// count is ≥ `lead`; any other class gains at most `remaining`, so
/// its final count is ≤ `runner_up + remaining` < `lead`. The leader
/// therefore ends a *strict unique* argmax — no tie is possible, so
/// the ties-toward-lower-class convention cannot be disturbed, and
/// `majority` over the partial counts already names the final
/// winner.
///
/// `probe` persists the first undecided row across calls: rows
/// decided at one shard boundary stay decided (leads only widen
/// relative to the shrinking `remaining` bound is *not* guaranteed,
/// so every row is still rechecked — the hint only orders the scan
/// to fail fast on the stubborn row).
pub(crate) fn all_decided(
    counts: &[u32],
    classes: usize,
    remaining: u32,
    slack: u32,
    probe: &mut usize,
) -> bool {
    let rows = counts.len() / classes;
    let need = remaining as u64 + slack as u64;
    let start = (*probe).min(rows.saturating_sub(1));
    for step in 0..rows {
        let r = (start + step) % rows;
        let (mut lead, mut runner) = (0u32, 0u32);
        for &v in &counts[r * classes..(r + 1) * classes] {
            if v > lead {
                runner = lead;
                lead = v;
            } else if v > runner {
                runner = v;
            }
        }
        if u64::from(lead) <= u64::from(runner) + need {
            *probe = r;
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference reducer: plain scalar tally of the same vote
    /// stream.
    fn scalar_tally(votes_per_tree: &[Vec<Label>], rows: usize, classes: usize) -> Vec<u32> {
        let mut counts = vec![0u32; rows * classes];
        for tree_votes in votes_per_tree {
            for (r, &c) in tree_votes.iter().enumerate() {
                counts[r * classes + c as usize] += 1;
            }
        }
        counts
    }

    fn random_votes(seed: u64, trees: usize, rows: usize, classes: usize) -> Vec<Vec<Label>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..trees).map(|_| (0..rows).map(|_| rng.gen_range(0..classes as u32)).collect()).collect()
    }

    fn run_sliced(votes_per_tree: &[Vec<Label>], rows: usize, classes: usize) -> BitSlicedVotes {
        let mut acc = BitSlicedVotes::new(rows, classes);
        acc.reset(rows);
        for tree_votes in votes_per_tree {
            for (r, &c) in tree_votes.iter().enumerate() {
                acc.vote(r, 0, c);
            }
            acc.advance(1);
        }
        acc.close();
        acc
    }

    #[test]
    fn bit_sliced_counts_match_scalar_tally() {
        // Window boundaries on purpose: 63, 64, 65, and a multi-window
        // 200-tree run, across assorted block shapes.
        for (trees, rows, classes) in
            [(1, 1, 1), (7, 3, 4), (63, 17, 2), (64, 64, 3), (65, 5, 5), (200, 31, 6)]
        {
            let votes = random_votes(trees as u64 * 31 + rows as u64, trees, rows, classes);
            let acc = run_sliced(&votes, rows, classes);
            assert_eq!(
                acc.counts(),
                scalar_tally(&votes, rows, classes).as_slice(),
                "trees={trees} rows={rows} classes={classes}"
            );
        }
    }

    #[test]
    fn shard_boundary_flushes_never_double_count() {
        // Close the window after every "shard" of 5 trees; counts must
        // still equal the scalar tally, and idle closes must be no-ops.
        let (trees, rows, classes) = (23, 9, 3);
        let votes = random_votes(99, trees, rows, classes);
        let mut acc = BitSlicedVotes::new(rows, classes);
        acc.reset(rows);
        for (t, tree_votes) in votes.iter().enumerate() {
            for (r, &c) in tree_votes.iter().enumerate() {
                acc.vote(r, 0, c);
            }
            acc.advance(1);
            if (t + 1) % 5 == 0 {
                acc.close();
                acc.close(); // idempotent on an empty window
            }
        }
        acc.close();
        assert_eq!(acc.counts(), scalar_tally(&votes, rows, classes).as_slice());
        assert_eq!(acc.flushes(), 5, "one flush per non-empty close");
    }

    /// The tile kernel finishes walks out of tree order: a run of trees
    /// recorded at explicit bits in any order, then advanced past in one
    /// go, counts exactly like the tree-by-tree stream — across a run
    /// that ends flush on the 64-bit window and one that starts the next.
    #[test]
    fn runs_recorded_out_of_order_count_like_the_ordered_stream() {
        let (trees, rows, classes) = (70, 5, 3);
        let votes = random_votes(17, trees, rows, classes);
        let mut acc = BitSlicedVotes::new(rows, classes);
        acc.reset(rows);
        for (lo, hi) in [(0usize, 40usize), (40, 64), (64, 70)] {
            // Trees descending, rows descending: nothing like tree order.
            for (t, tree_votes) in votes[lo..hi].iter().enumerate().rev() {
                for (r, &c) in tree_votes.iter().enumerate().rev() {
                    acc.vote(r, t, c);
                }
            }
            acc.advance(hi - lo);
        }
        assert_eq!(acc.flushes(), 1, "the window closed itself when the second run filled it");
        acc.close();
        assert_eq!(acc.counts(), scalar_tally(&votes, rows, classes).as_slice());
    }

    #[test]
    fn reset_reuses_capacity_for_smaller_blocks() {
        let mut acc = BitSlicedVotes::new(64, 4);
        acc.reset(64);
        for r in 0..64 {
            acc.vote(r, 0, 3);
        }
        acc.advance(1);
        acc.close();
        // A shorter tail block must see none of the previous votes.
        acc.reset(10);
        for r in 0..10 {
            acc.vote(r, 0, 0);
        }
        acc.advance(1);
        acc.close();
        let counts = acc.counts();
        assert_eq!(counts.len(), 10 * 4);
        for r in 0..10 {
            assert_eq!(&counts[r * 4..(r + 1) * 4], &[1, 0, 0, 0], "row {r}");
        }
    }

    #[test]
    fn unreachable_lead_is_exact_at_the_boundary() {
        let mut acc = BitSlicedVotes::new(1, 2);
        acc.reset(1);
        // 9 votes for class 0, 2 for class 1: lead 9, runner 2.
        for t in 0..11 {
            acc.vote(0, 0, u32::from(t >= 9));
            acc.advance(1);
        }
        acc.close();
        let mut probe = 0;
        // lead > runner + remaining ⇔ 9 > 2 + remaining ⇔ remaining < 7.
        assert!(all_decided(acc.counts(), 2, 6, 0, &mut probe));
        assert!(
            !all_decided(acc.counts(), 2, 7, 0, &mut probe),
            "a 7-tree tail could still force a tie"
        );
        // Slack is extra margin on top of the provable bound.
        assert!(all_decided(acc.counts(), 2, 5, 1, &mut probe));
        assert!(!all_decided(acc.counts(), 2, 6, 1, &mut probe));
    }

    #[test]
    fn ties_are_never_decided() {
        let mut acc = BitSlicedVotes::new(2, 3);
        acc.reset(2);
        // Row 0: 2-2 tie; row 1: 4-0 runaway.
        for t in 0..4u32 {
            acc.vote(0, 0, t % 2);
            acc.vote(1, 0, 0);
            acc.advance(1);
        }
        acc.close();
        let mut probe = 0;
        assert!(
            !all_decided(acc.counts(), 3, 0, 0, &mut probe),
            "tied rows stay undecided even with 0 left"
        );
        assert_eq!(probe, 0, "probe parks on the undecided row");
        // Single-class vote vectors: the runner-up is 0 votes.
        let mut one = BitSlicedVotes::new(1, 1);
        one.reset(1);
        for _ in 0..3 {
            one.vote(0, 0, 0);
            one.advance(1);
        }
        one.close();
        let mut probe = 0;
        assert!(all_decided(one.counts(), 1, 2, 0, &mut probe));
        assert!(!all_decided(one.counts(), 1, 3, 0, &mut probe));
    }

    #[test]
    fn decided_rows_agree_with_eventual_majority() {
        // Randomized soundness check of the exit predicate itself: when
        // `all_decided` says yes after a prefix, the prefix argmax must
        // equal the full-stream argmax no matter what the tail held.
        let (trees, rows, classes) = (40, 16, 4);
        for seed in 0..20u64 {
            let votes = random_votes(seed, trees, rows, classes);
            let full = scalar_tally(&votes, rows, classes);
            for prefix in 1..trees {
                let acc = run_sliced(&votes[..prefix], rows, classes);
                let mut probe = 0;
                if all_decided(acc.counts(), classes, (trees - prefix) as u32, 0, &mut probe) {
                    for r in 0..rows {
                        assert_eq!(
                            rfx_core::majority(&acc.counts()[r * classes..(r + 1) * classes]),
                            rfx_core::majority(&full[r * classes..(r + 1) * classes]),
                            "seed {seed} prefix {prefix} row {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn policy_names_and_display() {
        assert_eq!(VotePolicy::default(), VotePolicy::Exact);
        assert_eq!(VotePolicy::Exact.to_string(), "exact");
        assert_eq!(VotePolicy::BitSliced.to_string(), "bit-sliced");
        assert_eq!(VotePolicy::EarlyExit { slack: 2 }.to_string(), "early-exit(slack=2)");
        assert_eq!(VotePolicy::EarlyExit { slack: 2 }.name(), "early-exit");
    }
}
