package core

import (
	"context"
	"fmt"

	"repro/internal/coarsen"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/partition"
)

// MultilevelOptions configures MultilevelRepartition.
type MultilevelOptions struct {
	// Inner configures the fine-level polish pass.
	Inner Options
}

// MultilevelStats reports a two-level multilevel run. The value returned
// by MultilevelRepartition is freshly allocated per call, but Fine points
// at the engine-arena conventions of core.Repartition's one-shot result;
// use Clone to detach a copy that outlives later engine activity.
type MultilevelStats struct {
	CoarseVertices int // coarse-graph size
	CoarseMoved    int // fine-vertex weight moved at the coarse level
	Fine           *Stats
}

// Clone returns a deep copy detached from every engine arena (Fine is
// cloned too).
func (s *MultilevelStats) Clone() *MultilevelStats {
	c := *s
	if s.Fine != nil {
		c.Fine = s.Fine.Clone()
	}
	return &c
}

// MultilevelRepartition incrementally repartitions g via one two-level
// coarsen/balance/uncoarsen cycle followed by a fine-level polish: the
// paper's §4 sketch, built from the coarsen package's kernels. The
// assignment a is updated in place; partition sizes end exactly balanced
// (the polish guarantees it). For deep hierarchies on large graphs use
// the engine's V-cycle mode (engine.Options.Multilevel / the public
// igp.WithMultilevel) instead — it keeps the coarse hierarchy alive
// across calls and repairs it from the edit journal.
func MultilevelRepartition(ctx context.Context, g *graph.Graph, a *partition.Assignment, opt MultilevelOptions) (*MultilevelStats, error) {
	st := &MultilevelStats{}
	if _, _, err := Assign(g, a); err != nil {
		return nil, err
	}
	match := coarsen.Match(g, a)
	gc, fineToCoarse, ca := coarsen.Contract(g, a, match)
	st.CoarseVertices = gc.NumVertices()

	solver := opt.Inner.Solver
	if solver == nil {
		solver = lp.Default()
	}
	targets := partition.Targets(g.NumVertices(), a.P)
	moved, err := coarsen.CoarseBalance(ctx, gc, ca, targets, solver, 1)
	if err != nil {
		return nil, fmt.Errorf("coarsen: %w", err)
	}
	st.CoarseMoved = moved

	// Project the coarse decision back to the fine level.
	for _, v := range g.Vertices() {
		a.Part[v] = ca.Part[fineToCoarse[v]]
	}

	// Fine polish: the residual imbalance is at most a few cluster
	// granularities, so this converges in one or two cheap stages.
	fine, err := Repartition(ctx, g, a, opt.Inner)
	if err != nil {
		return nil, err
	}
	st.Fine = fine
	return st, nil
}
