package igp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lp"
	"repro/internal/parallel"
	"repro/internal/refine"
)

// Event is one stage-level observation streamed to a [WithObserver]
// callback during Repartition: phase start/end spans with wall-clock,
// the ε and vertex count of every balance stage, and each applied
// refinement round. Events arrive in pipeline order on the calling
// goroutine; see the Kind/Phase fields for the exact contract.
type Event = engine.Event

// EventKind distinguishes observer events.
type EventKind = engine.EventKind

// Phase names one of the pipeline's four phases.
type Phase = engine.Phase

// The observer event kinds.
const (
	EventStart = engine.EventStart
	EventEnd   = engine.EventEnd
	EventRound = engine.EventRound
)

// The pipeline phases reported in events and PhaseTimings. PhaseCoarsen
// and PhaseUncoarsen appear only under [WithMultilevel].
const (
	PhaseAssign    = engine.PhaseAssign
	PhaseLayer     = engine.PhaseLayer
	PhaseBalance   = engine.PhaseBalance
	PhaseRefine    = engine.PhaseRefine
	PhaseCoarsen   = engine.PhaseCoarsen
	PhaseUncoarsen = engine.PhaseUncoarsen
)

// config is the validated product of applying functional options.
type config struct {
	solver       Solver
	refine       bool
	epsilonMax   float64
	maxStages    int
	refineRounds int
	tolerance    int
	batches      int
	parallelism  int
	accuracy     float64
	fullRefresh  bool
	observer     func(Event)
	multilevel   engine.MultilevelOptions
}

// An Option configures an [Engine] (or a one-shot [Repartition] call).
// Options are validated eagerly: a misconfiguration — an unknown solver
// name, a non-positive stage cap, batches < 1 — is reported by NewEngine
// or Repartition before any work starts, never mid-run.
type Option func(*config) error

// buildConfig applies opts over the defaults, failing on the first
// invalid option.
func buildConfig(opts []Option) (*config, error) {
	cfg := &config{batches: 1}
	for _, o := range opts {
		if o == nil {
			return nil, fmt.Errorf("igp: nil Option")
		}
		if err := o(cfg); err != nil {
			return nil, err
		}
	}
	if cfg.solver == nil {
		s, err := lp.Lookup("")
		if err != nil {
			return nil, err
		}
		cfg.solver = s
	}
	return cfg, nil
}

// WithRefine enables the cut-refinement phase (the paper's IGPR).
func WithRefine() Option {
	return func(c *config) error {
		c.refine = true
		return nil
	}
}

// WithRefineRounds enables refinement and caps its LP rounds at n ≥ 1
// (the default is 8).
func WithRefineRounds(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("igp: WithRefineRounds(%d): rounds must be ≥ 1", n)
		}
		c.refine = true
		c.refineRounds = n
		return nil
	}
}

// WithSolver selects the LP solver by registry name: "network" (the
// default), "dense", "bounded", "dual-warm", "mwu", or anything added
// via [RegisterSolver]. Unknown names fail at NewEngine/Repartition
// time. "revised", a removed solver, is an alias of the default.
//
// "network" is a spanning-tree network simplex over integer flows: the
// balance and refinement LPs are flows on the partition quotient graph,
// so it pivots a tree of P+1 nodes instead of a tableau. Any LP that is
// not graph shaped goes to a private "dual-warm" session
// ([Stats.MWUFallbacks] counts those).
//
// "dual-warm" is the warm-started dual simplex: it retains the optimal
// basis of each LP structure it solves and resumes from it when a later
// balance stage or refinement round differs only in RHS and bounds,
// cutting Stats.LPIterations on repeated stages well below the cold
// solvers. Basis lifetime is the engine session: [NewEngine] forks a
// private solver instance whose cache dies with the engine (a one-shot
// [Repartition] therefore warms only across the stages within that one
// call). A retained basis is keyed and verified by exact LP structure,
// so graph edits between calls are safe — a changed pair structure
// simply misses the cache and solves cold.
func WithSolver(name string) Option {
	return func(c *config) error {
		s, err := lp.Lookup(name)
		if err != nil {
			return fmt.Errorf("igp: WithSolver: %w", err)
		}
		c.solver = s
		return nil
	}
}

// WithAccuracy sets the target accuracy eps > 0 for approximate LP
// solvers: an Optimal objective is guaranteed within a (1+eps) factor of
// the true optimum. It configures the "mwu" multiplicative-weight solver
// (see [WithSolver]); the exact simplex solvers ignore it. The default —
// also used when WithAccuracy is not given — is 0.05. Looser targets
// close the solver's quality bracket in fewer iterations; tighter ones
// push more solves onto the exact fallback path (counted by
// [Stats.MWUFallbacks]).
func WithAccuracy(eps float64) Option {
	return func(c *config) error {
		if eps <= 0 {
			return fmt.Errorf("igp: WithAccuracy(%g): accuracy target must be > 0", eps)
		}
		c.accuracy = eps
		return nil
	}
}

// WithTolerance allows partition sizes to deviate from their ideal
// targets by up to n ≥ 0 vertices (default 0 = the paper's exact
// balance). Positive values trade residual imbalance for less movement.
func WithTolerance(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("igp: WithTolerance(%d): tolerance must be ≥ 0", n)
		}
		c.tolerance = n
		return nil
	}
}

// WithEpsilonMax bounds the balance relaxation factor ε at c ≥ 1 (the
// paper's upper bound C; default 8).
func WithEpsilonMax(eps float64) Option {
	return func(c *config) error {
		if eps < 1 {
			return fmt.Errorf("igp: WithEpsilonMax(%g): bound must be ≥ 1", eps)
		}
		c.epsilonMax = eps
		return nil
	}
}

// WithMaxStages caps multi-stage balancing at n ≥ 1 stages (default 16).
func WithMaxStages(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("igp: WithMaxStages(%d): stage cap must be ≥ 1", n)
		}
		c.maxStages = n
		return nil
	}
}

// WithBatches reveals the new vertices in k ≥ 1 groups (ordered by
// distance from the old region) and repartitions after each — the
// paper's §2.3 fallback for incremental changes too severe for a single
// correction. k = 1 (the default) is the ordinary single pass.
func WithBatches(k int) Option {
	return func(c *config) error {
		if k < 1 {
			return fmt.Errorf("igp: WithBatches(%d): batches must be ≥ 1", k)
		}
		c.batches = k
		return nil
	}
}

// WithParallelism sets the worker count n ≥ 1 for the engine's sharded
// multi-core kernels — the incremental boundary recompute, the layering
// BFS level expansion, the refinement gain scan, the orphan-cluster
// flood, the V-cycle, and the LP simplex kernels (column-sharded
// pricing, ratio test and tableau update inside the balance and refine
// solves). The default is runtime.GOMAXPROCS(0); n = 1 selects the
// exact sequential code path.
//
// Parallelism is purely a latency property: results are bit-identical
// to the sequential engine's for every worker count (work is sharded
// deterministically and per-worker results merge in shard order, or by
// a total order for the simplex argmin candidates — fuzz-verified).
// Per-worker busy time is reported in [Stats.WorkerBusy], and
// [Stats.LPParallel] counts the LP solves that actually forked.
func WithParallelism(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("igp: WithParallelism(%d): workers must be ≥ 1", n)
		}
		c.parallelism = n
		return nil
	}
}

// WithFullRefresh disables every delta shortcut in the engine's
// derived-state pipeline: CSR snapshots are fully rebuilt instead of
// patched from the graph's edit journal, the partition-boundary set is
// rebuilt from scratch on every sync, cutset statistics come from a full
// arc rescan, and phase 1 runs the one-shot flood-fill assignment
// instead of the touched-set-seeded form. Results are bit-identical
// either way — the incremental paths are fuzz-verified against these
// full recomputations — so the option exists as an escape hatch and a
// divergence-debugging lever, at the cost of making every call pay
// O(n+m) regardless of how little changed. [Stats.CSRPatched] and
// [Stats.CutIncremental] report zero under it.
func WithFullRefresh() Option {
	return func(c *config) error {
		c.fullRefresh = true
		return nil
	}
}

// WithObserver streams stage-level [Event]s to fn during Repartition —
// phase spans, per-stage ε and movement, refinement rounds — for live
// dashboards and tracing. fn runs synchronously on the repartitioning
// goroutine and must not be nil.
func WithObserver(fn func(Event)) Option {
	return func(c *config) error {
		if fn == nil {
			return fmt.Errorf("igp: WithObserver(nil): observer must not be nil")
		}
		c.observer = fn
		return nil
	}
}

// WithMultilevel enables the multilevel V-cycle: instead of balancing
// the full graph directly, the pipeline coarsens it by repeated
// same-partition heavy-edge matching to a small core, partitions that
// core (weighted balance LP, or a spectral bisection when the incoming
// assignment is degenerate), and projects the decision back down with
// greedy refinement at every level — the fine stage loop then acts as an
// exact-balance polish on an already-good configuration. On
// paper-scale meshes (10⁵–10⁶ vertices) this turns a minutes-long cold
// partition into seconds while staying within a small factor of the flat
// pipeline's cut.
//
// Inside an [Engine] the coarse hierarchy is part of the session: a warm
// Repartition after a small edit batch repairs it from the graph's edit
// journal — only the clusters whose members were touched dissolve and
// re-match — instead of recoarsening from scratch
// ([Stats.HierarchyRepaired] reports which path ran). The V-cycle is a
// sequential kernel: results are bit-identical at every
// [WithParallelism] value for a fixed [CoarsenSeed].
//
// Sub-options ([CoarsenTo], [CoarsenLevels], [CoarsenSeed]) tune the
// hierarchy; WithMultilevel() alone picks sensible defaults.
func WithMultilevel(opts ...MultilevelOption) Option {
	return func(c *config) error {
		c.multilevel.Enabled = true
		for _, o := range opts {
			if o == nil {
				return fmt.Errorf("igp: WithMultilevel: nil sub-option")
			}
			if err := o(&c.multilevel); err != nil {
				return err
			}
		}
		return nil
	}
}

// A MultilevelOption tunes [WithMultilevel].
type MultilevelOption func(*engine.MultilevelOptions) error

// CoarsenTo stops coarsening once a level has at most n ≥ 2 live
// vertices (the default is max(64, 16·P), clamped to at least 2·P).
// Smaller cores make the coarsest solve cheaper but lean harder on
// per-level refinement.
func CoarsenTo(n int) MultilevelOption {
	return func(o *engine.MultilevelOptions) error {
		if n < 2 {
			return fmt.Errorf("igp: CoarsenTo(%d): core size must be ≥ 2", n)
		}
		o.CoarsenTo = n
		return nil
	}
}

// CoarsenLevels caps the hierarchy depth at n ≥ 1 levels (default 32;
// coarsening also stops when it stalls or reaches [CoarsenTo]).
func CoarsenLevels(n int) MultilevelOption {
	return func(o *engine.MultilevelOptions) error {
		if n < 1 {
			return fmt.Errorf("igp: CoarsenLevels(%d): depth cap must be ≥ 1", n)
		}
		o.MaxLevels = n
		return nil
	}
}

// CoarsenSeed fixes the seed of the spectral coarsest-level solve used
// when the incoming assignment is degenerate (0 keeps the package
// default). A fixed seed plus a fixed edit history yields bit-identical
// assignments at every worker count.
func CoarsenSeed(seed int64) MultilevelOption {
	return func(o *engine.MultilevelOptions) error {
		o.Seed = seed
		return nil
	}
}

// WithOptions merges a legacy [Options] struct into the functional-option
// world, with the legacy defaulting rules (zero values mean defaults,
// non-positive caps fall back rather than erroring). New code should use
// the individual With* options, which validate eagerly.
func WithOptions(opt Options) Option {
	return func(c *config) error {
		s, err := lp.Lookup(string(opt.Solver))
		if err != nil {
			return fmt.Errorf("igp: %w", err)
		}
		c.solver = s
		c.refine = opt.Refine
		c.epsilonMax = opt.EpsilonMax
		c.maxStages = opt.MaxStages
		c.refineRounds = opt.RefineRounds
		c.tolerance = opt.Tolerance
		return nil
	}
}

// coreOptions assembles the internal engine configuration.
func (c *config) coreOptions() core.Options {
	return core.Options{
		Solver:      c.solver,
		EpsilonMax:  c.epsilonMax,
		MaxStages:   c.maxStages,
		Tolerance:   c.tolerance,
		Refine:      c.refine,
		Parallelism: c.parallelism,
		Accuracy:    c.accuracy,
		FullRefresh: c.fullRefresh,
		Multilevel:  c.multilevel,
		RefineOptions: refine.Options{
			MaxRounds: c.refineRounds,
			Solver:    c.solver,
		},
		Observer: c.observer,
	}
}

// parallelOptions assembles the SPMD simulator configuration.
func (c *config) parallelOptions() parallel.Options {
	return parallel.Options{
		EpsilonMax:   c.epsilonMax,
		MaxStages:    c.maxStages,
		Refine:       c.refine,
		RefineRounds: c.refineRounds,
	}
}

// SolverName selects a simplex implementation in the legacy [Options]
// struct. See [WithSolver] for the functional form.
type SolverName string

// Available built-in simplex implementations.
const (
	SolverNetwork SolverName = "network" // spanning-tree network simplex (default)
	SolverDense   SolverName = "dense"   // the paper's dense tableau
	SolverBounded SolverName = "bounded" // implicit variable bounds
	SolverRevised SolverName = "revised" // removed; an alias of the default
)

// Options is the legacy flat configuration struct.
//
// Deprecated: Use functional options ([WithRefine], [WithSolver],
// [WithTolerance], …) with [Repartition] or [NewEngine]; bridge existing
// structs with [WithOptions].
type Options struct {
	// Refine enables the cut-refinement phase (the paper's IGPR).
	Refine bool
	// Solver picks the simplex implementation (default network).
	Solver SolverName
	// EpsilonMax bounds the balance relaxation factor ε (default 8).
	EpsilonMax float64
	// MaxStages caps multi-stage balancing (default 16).
	MaxStages int
	// RefineRounds caps refinement LP rounds (default 8).
	RefineRounds int
	// Tolerance allows partition sizes to deviate from their ideal targets
	// by up to this many vertices (default 0 = the paper's exact balance).
	// Positive values trade residual imbalance for less vertex movement.
	Tolerance int
}
