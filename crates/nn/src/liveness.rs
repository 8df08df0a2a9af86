//! Liveness-driven arena planning for compiled step sequences.
//!
//! On a deep sequential net the large early-layer activations and the
//! large late-layer workspaces are never live at the same time, so
//! their bytes can be shared. This module computes the exact
//! requirement. Over a compiled step sequence:
//!
//! * the output activation of step *i* is written at *i* and consumed
//!   at *i + 1*, so it is live over the interval `[i, i + 1]` (the last
//!   step writes straight into the caller's output buffer and needs no
//!   arena slot);
//! * a step's workspace is live only over `[i, i]`;
//! * the network input lives in the caller's buffer and never enters
//!   the arena.
//!
//! Intervals that do not overlap in time may share bytes. The classic
//! formulation is interval-graph colouring with weighted nodes; we use
//! the standard greedy first-fit heuristic over intervals sorted by
//! size (largest first), which is exact on the clique bound for the
//! three-way overlap pattern these sequential plans produce and runs in
//! `O(n²)` on plans that are tens of steps long.
//!
//! Every interval is placed at a whole number of 64-byte cache lines
//! and occupies whole lines ([`LINE_ELEMS`] floats), so with the arena
//! itself line-aligned every activation and workspace slice — hence
//! every packed-B panel and merged-C row block a kernel carves from one
//! — starts on a line. The rounding is part of the layout, so
//! `total_elems`, `naive_elems` and [`MemoryFootprint`] all count it.
//!
//! [`ArenaLayout::colour`] produces the one layout the engine runs;
//! [`MemoryFootprint`] summarises it for the planner, the budget
//! solver, and the observability gauges, next to `naive_bytes` — a
//! pure sizing model of an unshared two-buffer layout that the reuse
//! gauge is measured against.

use cnn_stack_tensor::aligned::LINE_ELEMS;

/// `elems` rounded up to whole cache lines: what an interval occupies.
fn whole_lines(elems: usize) -> usize {
    elems.next_multiple_of(LINE_ELEMS)
}

/// Memory extents of one compiled step, in `f32` elements.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepExtent {
    /// Elements of the step's output activation.
    pub output_elems: usize,
    /// Workspace the kernel needs while the step runs (the layer's
    /// `forward_scratch_elems`).
    pub workspace_elems: usize,
}

/// Arena offsets assigned to one step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepSlots {
    /// Offset of the step's output activation. Unused for the final
    /// step, whose output goes to the caller's buffer.
    pub dst_off: usize,
    /// Offset of the step's workspace region.
    pub ws_off: usize,
    /// Workspace elements reserved at `ws_off`.
    pub ws_elems: usize,
}

/// A concrete arena layout for one step sequence: where every
/// activation and workspace lives, and how big the arena must be.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ArenaLayout {
    /// Per-step slot assignment, same order as the plan's steps.
    pub slots: Vec<StepSlots>,
    /// Total arena elements this layout needs.
    pub total_elems: usize,
    /// Counterfactual unshared footprint: two max-size activation
    /// buffers plus the largest workspace region.
    pub naive_elems: usize,
}

/// One live interval awaiting placement.
struct Interval {
    start: usize,
    end: usize,
    elems: usize,
    /// Index into `slots`; activations patch `dst_off`, workspaces
    /// patch `ws_off`.
    step: usize,
    is_workspace: bool,
}

impl ArenaLayout {
    /// Greedy first-fit interval colouring over the step sequence.
    ///
    /// Intervals are placed largest-first; each takes the lowest
    /// offset at which it fits below or between every already-placed
    /// interval whose lifetime overlaps its own. Disjoint lifetimes
    /// share bytes, which is where the reuse comes from.
    pub fn colour(steps: &[StepExtent]) -> ArenaLayout {
        let n = steps.len();
        let mut intervals: Vec<Interval> = Vec::with_capacity(2 * n);
        for (i, s) in steps.iter().enumerate() {
            // The last step's output bypasses the arena entirely.
            if i + 1 < n && s.output_elems > 0 {
                intervals.push(Interval {
                    start: i,
                    end: i + 1,
                    elems: whole_lines(s.output_elems),
                    step: i,
                    is_workspace: false,
                });
            }
            if s.workspace_elems > 0 {
                intervals.push(Interval {
                    start: i,
                    end: i,
                    elems: whole_lines(s.workspace_elems),
                    step: i,
                    is_workspace: true,
                });
            }
        }
        // Largest first; ties broken by start step for determinism.
        intervals.sort_by(|a, b| b.elems.cmp(&a.elems).then(a.start.cmp(&b.start)));

        let mut slots = vec![StepSlots::default(); n];
        for (i, s) in steps.iter().enumerate() {
            slots[i].ws_elems = s.workspace_elems;
        }
        // (offset, len, start, end) of every placed interval.
        let mut placed: Vec<(usize, usize, usize, usize)> = Vec::with_capacity(intervals.len());
        let mut total = 0usize;
        for iv in &intervals {
            let mut busy: Vec<(usize, usize)> = placed
                .iter()
                .filter(|p| p.2 <= iv.end && iv.start <= p.3)
                .map(|p| (p.0, p.1))
                .collect();
            busy.sort_unstable();
            let mut off = 0usize;
            for &(b_off, b_len) in &busy {
                if off + iv.elems <= b_off {
                    break;
                }
                off = off.max(b_off + b_len);
            }
            placed.push((off, iv.elems, iv.start, iv.end));
            total = total.max(off + iv.elems);
            if iv.is_workspace {
                slots[iv.step].ws_off = off;
            } else {
                slots[iv.step].dst_off = off;
            }
        }
        let naive = Self::naive_elems(steps);
        ArenaLayout {
            slots,
            total_elems: total,
            naive_elems: naive,
        }
    }

    /// Elements a two-buffer ping-pong layout would reserve: two
    /// activation buffers sized by the largest step output plus one
    /// workspace region sized by the hungriest kernel, each in whole
    /// lines like the coloured layout's. A sizing model only — no such
    /// layout is ever built.
    fn naive_elems(steps: &[StepExtent]) -> usize {
        let buf = steps.iter().map(|s| s.output_elems).max().unwrap_or(0);
        let workspace = steps.iter().map(|s| s.workspace_elems).max().unwrap_or(0);
        2 * whole_lines(buf) + whole_lines(workspace)
    }

    /// Elements this layout saves over `naive_elems`.
    pub fn reuse_elems(&self) -> usize {
        self.naive_elems.saturating_sub(self.total_elems)
    }
}

/// Byte-level summary of a plan's arena requirement, as predicted at
/// compile time for the full batch executed sequentially. The budget
/// solver compares `peak_bytes` against `ExecConfig::plan_budget`, and
/// the observability layer exports both numbers as gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Peak arena bytes under the coloured layout.
    pub peak_bytes: usize,
    /// Counterfactual bytes of the unshared two-buffer (ping-pong)
    /// sizing model — never a layout the engine runs.
    pub naive_bytes: usize,
}

impl MemoryFootprint {
    /// Footprint of a step sequence (4 bytes per `f32` element).
    pub fn of(steps: &[StepExtent]) -> MemoryFootprint {
        let layout = ArenaLayout::colour(steps);
        MemoryFootprint {
            peak_bytes: layout.total_elems * 4,
            naive_bytes: layout.naive_elems * 4,
        }
    }

    /// Bytes the coloured layout saves over `naive_bytes`.
    pub fn reuse_bytes(&self) -> usize {
        self.naive_bytes.saturating_sub(self.peak_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ext(out: usize, ws: usize) -> StepExtent {
        StepExtent {
            output_elems: out,
            workspace_elems: ws,
        }
    }

    /// Every pair of intervals that overlap in time must occupy
    /// disjoint byte ranges.
    fn assert_disjoint(steps: &[StepExtent], layout: &ArenaLayout) {
        let n = steps.len();
        let mut live: Vec<(usize, usize, usize, usize)> = Vec::new();
        for (i, s) in steps.iter().enumerate() {
            if i + 1 < n && s.output_elems > 0 {
                live.push((i, i + 1, layout.slots[i].dst_off, s.output_elems));
            }
            if s.workspace_elems > 0 {
                live.push((i, i, layout.slots[i].ws_off, s.workspace_elems));
            }
        }
        for (a, ia) in live.iter().enumerate() {
            for ib in live.iter().skip(a + 1) {
                let time_overlap = ia.0 <= ib.1 && ib.0 <= ia.1;
                let byte_overlap = ia.2 < ib.2 + ib.3 && ib.2 < ia.2 + ia.3;
                assert!(
                    !(time_overlap && byte_overlap),
                    "overlapping lifetimes share bytes: {ia:?} vs {ib:?}"
                );
            }
        }
        // Every interval starts on a cache line and the arena is whole
        // lines, so a line-aligned arena hands out line-aligned slices.
        for (_, _, off, len) in live {
            assert!(off + len <= layout.total_elems);
            assert_eq!(off % LINE_ELEMS, 0, "interval at {off} is off-line");
        }
        assert_eq!(layout.total_elems % LINE_ELEMS, 0);
        assert_eq!(layout.naive_elems % LINE_ELEMS, 0);
    }

    #[test]
    fn single_step_needs_only_workspace() {
        let steps = [ext(100, 40)];
        let layout = ArenaLayout::colour(&steps);
        // Sole output goes to the caller's buffer.
        assert_eq!(layout.total_elems, whole_lines(40));
        assert_disjoint(&steps, &layout);
    }

    #[test]
    fn disjoint_lifetimes_share_bytes() {
        // Two big activations far apart in time must overlap in space.
        let steps = [
            ext(1000, 0),
            ext(10, 0),
            ext(10, 0),
            ext(1000, 0),
            ext(5, 0),
        ];
        let layout = ArenaLayout::colour(&steps);
        assert!(layout.total_elems < 2 * 1000);
        assert!(layout.reuse_elems() > 0);
        assert_disjoint(&steps, &layout);
    }

    #[test]
    fn peak_matches_clique_bound_on_uniform_chain() {
        // Identical steps: at step i the previous output, this output
        // and this workspace are all live — the clique is 3k and the
        // greedy layout should hit it exactly.
        let steps = [ext(100, 100), ext(100, 100), ext(100, 100), ext(100, 100)];
        let layout = ArenaLayout::colour(&steps);
        assert_eq!(layout.total_elems, 3 * whole_lines(100));
        assert_disjoint(&steps, &layout);
    }

    #[test]
    fn footprint_reports_reuse() {
        let steps = [ext(1000, 200), ext(10, 0), ext(1000, 0)];
        let fp = MemoryFootprint::of(&steps);
        assert_eq!(
            fp.naive_bytes,
            (2 * whole_lines(1000) + whole_lines(200)) * 4
        );
        assert!(fp.peak_bytes < fp.naive_bytes);
        assert_eq!(fp.reuse_bytes(), fp.naive_bytes - fp.peak_bytes);
    }

    #[test]
    fn colour_never_exceeds_naive() {
        // Pseudo-random extents; the coloured peak must never beat the
        // clique lower bound or exceed the unshared upper bound.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 500) as usize
        };
        for len in 1..12 {
            let steps: Vec<StepExtent> = (0..len).map(|_| ext(next() + 1, next())).collect();
            let layout = ArenaLayout::colour(&steps);
            assert!(layout.total_elems <= layout.naive_elems);
            assert_disjoint(&steps, &layout);
        }
    }
}
