package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	igp "repro"
	"repro/internal/lp"
	"repro/internal/par"
)

// span is one traced interval. Start and End are nanoseconds since the
// recorder's epoch; Parent is the enclosing span's ID (-1 for a root);
// Call groups the spans of one benchmark operation (-1: an episode's
// set-up calls).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Call   int    `json:"call"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run writes them out. Spans
// opened with begin nest on a stack, which suits the single goroutine
// that drives a library workload; leaf spans from other goroutines (the
// serve sessions' LP solves, the load generator's requests) are added
// under the same mutex with an explicit parent.
//
// Every closed span's self time (its duration minus the part its child
// spans cover) is added to self under the span's name, so a caller can
// read per-layer self time for one operation without re-walking spans.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	call  int
	spans []span
	child []int64 // per span: nanoseconds covered by its children
	stack []int
	self  map[string]time.Duration
	count map[string]int
}

func newRecorder() *recorder {
	return &recorder{
		epoch: time.Now(),
		self:  map[string]time.Duration{},
		count: map[string]int{},
	}
}

// startCall begins a new operation: later spans carry its id, and the
// per-name self-time totals restart from zero.
func (r *recorder) startCall(id int) {
	r.mu.Lock()
	r.call = id
	clear(r.self)
	clear(r.count)
	r.mu.Unlock()
}

// selfTimes returns a copy of the current operation's per-name self
// times and span counts.
func (r *recorder) selfTimes() (map[string]time.Duration, map[string]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := make(map[string]time.Duration, len(r.self))
	for k, v := range r.self {
		s[k] = v
	}
	c := make(map[string]int, len(r.count))
	for k, v := range r.count {
		c[k] = v
	}
	return s, c
}

// begin opens a nested span under the innermost open one.
func (r *recorder) begin(name string) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Call: r.call, Name: name, Start: now, End: -1})
	r.child = append(r.child, 0)
	r.stack = append(r.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.stack); n == 0 || r.stack[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	r.stack = r.stack[:len(r.stack)-1]
	r.close(id, now)
}

// leaf records a finished span under parent (or, when parent is -1 and
// a span is open on the driving goroutine's stack, under that one).
func (r *recorder) leaf(name string, parent int, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if parent < 0 && len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Call: r.call, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds()})
	r.child = append(r.child, 0)
	r.close(id, end.Sub(r.epoch).Nanoseconds())
}

// close stamps the end of span id and folds its duration into its
// parent's child cover and its own name's self time. Caller holds mu.
func (r *recorder) close(id int, now int64) {
	s := &r.spans[id]
	s.End = now
	d := s.End - s.Start
	if s.Parent >= 0 {
		r.child[s.Parent] += d
	}
	r.self[s.Name] += time.Duration(d - r.child[id])
	r.count[s.Name]++
}

// observer turns the engine's WithObserver events into phase spans.
// Whole-phase spans (assign, coarsen, uncoarsen, refine) and the
// per-stage layer and balance spans nest under the open call span. The
// per-level coarsen/uncoarsen events are emitted back to back after the
// level work, so their timestamps carry nothing: level times come from
// Stats.Levels instead.
func (r *recorder) observer() func(igp.Event) {
	var open []int
	return func(ev igp.Event) {
		if (ev.Phase == igp.PhaseCoarsen || ev.Phase == igp.PhaseUncoarsen) && ev.Stage > 0 {
			return
		}
		switch ev.Kind {
		case igp.EventStart:
			open = append(open, r.begin("phase."+ev.Phase.String()))
		case igp.EventEnd:
			id := open[len(open)-1]
			open = open[:len(open)-1]
			r.end(id)
		}
	}
}

// write stores the spans as JSON under dir.
func (r *recorder) write(dir, name string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(r.spans)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}

// tracedSolverName is the registry name of the forwarding solver that
// records one span per LP solve.
const tracedSolverName = "perfbench-traced"

// activeRecorder is where the forwarding solver records; nil disables
// recording (the solver still forwards).
var activeRecorder atomic.Pointer[recorder]

func init() {
	inner, err := lp.Lookup(lp.DefaultSolverName)
	if err != nil {
		panic(err)
	}
	if err := igp.RegisterSolver(tracedSolverName, tracedSolver{inner: inner}); err != nil {
		panic(err)
	}
}

// tracedSolver forwards every call to the configured solver and records
// a span per Solve. It keeps the inner solver's session, worker,
// parallel-solve, fallback and accuracy behaviour: each of those
// methods forwards when the inner solver has it and is a no-op (or
// reports zero) otherwise.
type tracedSolver struct {
	inner lp.Solver
}

func (s tracedSolver) Name() string { return s.inner.Name() }

func (s tracedSolver) Solve(ctx context.Context, p *lp.Problem) (*lp.Solution, error) {
	start := time.Now()
	sol, err := s.inner.Solve(ctx, p)
	if r := activeRecorder.Load(); r != nil {
		r.leaf("lp.solve", -1, start, time.Now())
	}
	return sol, err
}

// NewSession forks the inner solver's session and wraps it.
func (s tracedSolver) NewSession() lp.Solver {
	if ss, ok := s.inner.(lp.SessionSolver); ok {
		return &tracedSession{tracedSolver{inner: ss.NewSession()}}
	}
	return &tracedSession{s}
}

// tracedSession is the per-engine instance; its methods forward the
// optional solver interfaces the engine probes for.
type tracedSession struct{ tracedSolver }

func (s *tracedSession) SetWorkers(grp *par.Group, workers int) {
	if ps, ok := s.inner.(lp.ParallelSolver); ok {
		ps.SetWorkers(grp, workers)
	}
}

func (s *tracedSession) ParallelSolves() int {
	if ps, ok := s.inner.(lp.ParallelSolver); ok {
		return ps.ParallelSolves()
	}
	return 0
}

func (s *tracedSession) Fallbacks() int {
	if fs, ok := s.inner.(lp.FallbackSolver); ok {
		return fs.Fallbacks()
	}
	return 0
}

func (s *tracedSession) SetAccuracy(eps float64) {
	if as, ok := s.inner.(interface{ SetAccuracy(float64) }); ok {
		as.SetAccuracy(eps)
	}
}
