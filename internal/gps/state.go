package gps

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/roadnet"
)

// LearnerState is the serialisable form of a speed learner's accumulators —
// not the derived means but the raw (sum, count) per (edge, slot) cell, so a
// restored learner keeps averaging new observations into old ones exactly as
// if it had never stopped. This is what persists travel-time knowledge
// across the days of a multi-day replay (and across engine restarts, inside
// the engine's full checkpoint).
type LearnerState struct {
	Version int                `json:"version"`
	Cells   []LearnerCellState `json:"cells"`
}

// LearnerCellState is one accumulator cell.
type LearnerCellState struct {
	From roadnet.NodeID `json:"from"`
	To   roadnet.NodeID `json:"to"`
	Slot int            `json:"slot"`
	Sum  float64        `json:"sum"`
	Cnt  int            `json:"cnt"`
}

// learnerStateVersion guards the checkpoint format.
const learnerStateVersion = 1

// ExportState snapshots the learner's accumulators, deterministically
// ordered by (from, to, slot) so identical learners export identical bytes.
func (l *SpeedLearner) ExportState() *LearnerState {
	st := &LearnerState{Version: learnerStateVersion}
	g := l.g
	for u := 0; u < g.NumNodes(); u++ {
		off := g.OutEdgeOffset(roadnet.NodeID(u))
		for i, e := range g.OutEdges(roadnet.NodeID(u)) {
			ei := off + i
			for slot := 0; slot < roadnet.SlotsPerDay; slot++ {
				c := ei*roadnet.SlotsPerDay + slot
				if l.cnt[c] <= 0 {
					continue
				}
				st.Cells = append(st.Cells, LearnerCellState{
					From: roadnet.NodeID(u), To: e.To, Slot: slot,
					Sum: l.sum[c], Cnt: int(l.cnt[c]),
				})
			}
		}
	}
	sort.Slice(st.Cells, func(i, j int) bool {
		a, b := st.Cells[i], st.Cells[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Slot < b.Slot
	})
	return st
}

// ImportState merges a snapshot into the learner: sums and counts add onto
// whatever is already accumulated, so importing day-1's state into a learner
// that then observes day 2 yields the same estimates as one learner running
// both days. Cells are validated — unknown edges, out-of-range slots and
// non-finite or non-positive accumulators are rejected before anything is
// merged, so a bad checkpoint cannot half-apply.
func (l *SpeedLearner) ImportState(st *LearnerState) error {
	if st == nil {
		return fmt.Errorf("gps: nil learner state")
	}
	if st.Version != learnerStateVersion {
		return fmt.Errorf("gps: learner state version %d (want %d)", st.Version, learnerStateVersion)
	}
	// Validate everything — including that the merged counts stay inside
	// the int32 accumulators, accumulated across duplicate cells and onto
	// whatever this learner already holds — before touching any state, so
	// a bad checkpoint cannot half-apply (and cannot silently wrap a count
	// negative, which would make the cell vanish from every later export).
	planned := make(map[int]int64, len(st.Cells))
	for _, c := range st.Cells {
		if c.Slot < 0 || c.Slot >= roadnet.SlotsPerDay {
			return fmt.Errorf("gps: learner state cell %d->%d: slot %d out of range", c.From, c.To, c.Slot)
		}
		if c.Cnt <= 0 || c.Sum <= 0 || math.IsNaN(c.Sum) || math.IsInf(c.Sum, 0) {
			return fmt.Errorf("gps: learner state cell %d->%d slot %d: invalid accumulator (sum=%v cnt=%d)",
				c.From, c.To, c.Slot, c.Sum, c.Cnt)
		}
		if c.From < 0 || int(c.From) >= l.g.NumNodes() || c.To < 0 || int(c.To) >= l.g.NumNodes() {
			return fmt.Errorf("gps: learner state cell %d->%d: node out of range", c.From, c.To)
		}
		ei := l.g.EdgeIndexOf(c.From, c.To)
		if ei < 0 {
			return fmt.Errorf("gps: learner state cell %d->%d: no such edge", c.From, c.To)
		}
		idx := ei*roadnet.SlotsPerDay + c.Slot
		planned[idx] += int64(c.Cnt)
		if int64(l.cnt[idx])+planned[idx] > math.MaxInt32 {
			return fmt.Errorf("gps: learner state cell %d->%d slot %d: merged count overflows (have %d, adding %d)",
				c.From, c.To, c.Slot, l.cnt[idx], planned[idx])
		}
	}
	// Restored cells count as touched: the next incremental publish must
	// carry them to the routers.
	for _, c := range st.Cells {
		ei := l.g.EdgeIndexOf(c.From, c.To)
		l.add(c.From, c.To, ei, c.Slot, c.Sum, int32(c.Cnt))
	}
	return nil
}

// State snapshots the streaming learner's accumulators as a typed document
// — what the engine embeds in its full checkpoint, and what a caller
// carries from one day's learner to the next day's. Safe to call concurrently with observation ingest.
func (l *StreamLearner) State() *LearnerState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base.ExportState()
}

// RestoreState merges a State snapshot into the learner (see
// SpeedLearner.ImportState for the merge and validation semantics).
func (l *StreamLearner) RestoreState(st *LearnerState) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base.ImportState(st)
}

// EndDay closes out one replay day: the per-vehicle ping trails (last
// node-aligned observation and buffered raw chunks) are discarded while the
// learned estimates are kept. Multi-day replays that restart each day's
// clock at midnight MUST call this between days — vehicle ids are reused
// across rosters, and a stale trail from the previous evening paired with a
// fresh late-night ping at a plausible-looking gap would otherwise be
// interpolated as a phantom traversal, smearing observations that never
// happened into the slot-23/slot-0 cells. (Replays on one continuous
// multi-day clock don't need it: roadnet.Slot wraps 23 → 0 on its own.)
func (l *StreamLearner) EndDay() {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.last)
	clear(l.raw)
}
