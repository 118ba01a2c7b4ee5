package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	igp "repro"
	"repro/internal/serve"
)

// serve-mixed: igpserve's handler on a loopback listener in this
// process, 2 sessions over 2000-vertex meshes at P=16, engines at
// WithRefine and procs=1. An open-loop generator sends edit submissions
// and assignment reads in equal numbers on a fixed schedule at a
// reference rate well under capacity; the traced run also climbs a
// ladder of rates.
const (
	serveSessions = 2
	serveMeshN    = 2000
	serveP        = 16
	serveEdits    = 4                     // edits per submission
	serveRefRate  = 40.0                  // edit submissions per second at the reference rate
	serveSLO      = 50 * time.Millisecond // edit p99 limit of a ladder step
	// serveParts is how many parts an untraced run's reference phase
	// is cut into. Each part runs on a freshly started server whose
	// start is one setup_s sample, so the set-up samples spread over
	// the whole run.
	serveParts = 10
)

// serveLadder is the rate ladder in edit submissions per second (each
// step sends as many reads as edits).
var serveLadder = []float64{120, 135, 150, 165, 180, 195, 210}

// serveConns is the generator's worker and connection count.
var serveConns = runtime.NumCPU()

type sessionState struct {
	id    string
	n0    int     // vertices at creation; edits only reference these
	w0    float64 // total edge weight at creation
	spec  []byte  // the POST /graphs body
	added []versionWeight
}

// versionWeight records the edge weight one served edit submission
// added and the assignment version its batch produced.
type versionWeight struct {
	version uint64
	w       float64
}

// serveEnv is one running server and its sessions.
type serveEnv struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	sess   []*sessionState
}

// serveGraph is session i's mesh. The meshes are the same for every
// workload seed, which drives the request stream only: differences
// between meshes would swamp run-to-run comparisons of set-up and call
// times.
func serveGraph(i int) (*igp.Graph, error) {
	return igp.NewMeshGraph(serveMeshN, configSeed*31+int64(i))
}

// serveInputs builds the sessions' graphs (untimed) as explicit
// vertex/edge specs, so session creation pays the server's work — graph
// construction from the spec, RSB, the priming call — and not mesh
// generation.
func serveInputs() ([]*sessionState, error) {
	out := make([]*sessionState, serveSessions)
	for i := range out {
		g, err := serveGraph(i)
		if err != nil {
			return nil, err
		}
		spec := serve.GraphSpec{Vertices: g.Order(), P: serveP, Seed: configSeed}
		g.ForEachVertex(func(v igp.Vertex) {
			for _, u := range g.Neighbors(v) {
				if v < u {
					spec.Edges = append(spec.Edges, [2]int{int(v), int(u)})
				}
			}
		})
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		out[i] = &sessionState{n0: g.Order(), w0: float64(len(spec.Edges)), spec: body}
	}
	return out, nil
}

// startServe is the timed set-up: start the server on a loopback
// listener and create every session over HTTP.
func startServe(inputs []*sessionState, traced bool) (*serveEnv, error) {
	opts := []igp.Option{igp.WithRefine(), igp.WithParallelism(1)}
	if traced {
		opts = append(opts, igp.WithSolver(tracedSolverName))
	}
	srv := serve.New(serve.Config{EngineOptions: opts})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &serveEnv{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
		}},
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	for _, in := range inputs {
		s := *in
		s.added = nil
		resp, err := e.client.Post(e.base+"/graphs", "application/json", bytes.NewReader(s.spec))
		if err != nil {
			e.stop()
			return nil, fmt.Errorf("create session: %w", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			e.stop()
			return nil, fmt.Errorf("create session: status %d: %s", resp.StatusCode, body)
		}
		var info serve.GraphInfo
		if err := json.Unmarshal(body, &info); err != nil {
			e.stop()
			return nil, fmt.Errorf("create session: %w", err)
		}
		s.id = info.ID
		e.sess = append(e.sess, &s)
	}
	return e, nil
}

// stop shuts the HTTP server and every session down and waits for both.
func (e *serveEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // the server is discarded either way
	<-e.served
	e.srv.Close()
	e.client.CloseIdleConnections()
}

// A job is one scheduled request; due is its offset from the phase
// start.
type job struct {
	due  time.Duration
	edit bool
	sess int
	body []byte
	w    float64 // edge weight an edit submission adds
}

// schedule lays out a phase: rate edit submissions and rate reads per
// second for d, interleaved at even spacing and alternating sessions.
// Edit bodies follow loadgen's shape: a quarter attach_vertex growth,
// the rest vertex-weight updates, all against the sessions' original
// vertices so every edit is valid in any order.
func (e *serveEnv) schedule(rate float64, d time.Duration, rng *rand.Rand) []job {
	n := int(rate * d.Seconds())
	jobs := make([]job, 0, 2*n)
	gap := time.Duration(float64(time.Second) / (2 * rate))
	for k := 0; k < 2*n; k++ {
		j := job{due: time.Duration(k) * gap, edit: k%2 == 0, sess: (k / 2) % len(e.sess)}
		if j.edit {
			n0 := e.sess[j.sess].n0
			var b bytes.Buffer
			b.WriteString(`{"edits": [`)
			for i := 0; i < serveEdits; i++ {
				if i > 0 {
					b.WriteString(", ")
				}
				if rng.Intn(4) == 0 {
					u, v := rng.Intn(n0), rng.Intn(n0)
					fmt.Fprintf(&b, `{"op": "attach_vertex", "u": %d, "v": %d}`, u, v)
					j.w += 1
					if u != v {
						j.w += 1
					}
				} else {
					fmt.Fprintf(&b, `{"op": "set_vertex_weight", "u": %d, "weight": %.3f}`, rng.Intn(n0), 1+rng.Float64()*3)
				}
			}
			b.WriteString(`]}`)
			j.body = b.Bytes()
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// outcome is one request's record: offsets from the phase start of
// when it was due, sent and answered.
type outcome struct {
	due, sent, done time.Duration
	status          int
	err             error
	body            []byte
}

func (o outcome) latency() time.Duration { return o.done - o.due }

// drive runs the open-loop generator: serveConns workers, one
// connection each, take jobs in schedule order, wait until a job is due
// and send it, so a stall delays the requests behind it and shows in
// their latency from due time.
func (e *serveEnv) drive(jobs []job) []outcome {
	out := make([]outcome, len(jobs))
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				if d := time.Until(t0.Add(j.due)); d > 0 {
					time.Sleep(d)
				}
				o := &out[i]
				o.due = j.due
				o.sent = time.Since(t0)
				o.status, o.body, o.err = e.send(j)
				o.done = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	return out
}

func (e *serveEnv) send(j job) (int, []byte, error) {
	id := e.sess[j.sess].id
	var resp *http.Response
	var err error
	if j.edit {
		resp, err = e.client.Post(e.base+"/graphs/"+id+"/edits", "application/json", bytes.NewReader(j.body))
	} else {
		resp, err = e.client.Get(e.base + "/graphs/" + id + "/assignment")
	}
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// phaseStats is a checked phase: latencies from due time, the batches
// the edits were answered by, and the failure ledger.
type phaseStats struct {
	editMS, readMS, lagMS []float64
	sendMS                []float64 // edit latency from send time
	metrics               []serve.RequestMetrics
	batches               []serve.RequestMetrics // one per (session, version)
	cutFrac               []float64
	attempted, failed     int
	shed                  int
	lastLag               time.Duration
	notes                 []string
}

func (p *phaseStats) fail(format string, args ...any) {
	p.failed++
	if p.failed <= 5 {
		p.notes = append(p.notes, fmt.Sprintf(format, args...))
	}
}

// merge adds another phase's records to p.
func (p *phaseStats) merge(q *phaseStats) {
	p.editMS = append(p.editMS, q.editMS...)
	p.readMS = append(p.readMS, q.readMS...)
	p.lagMS = append(p.lagMS, q.lagMS...)
	p.sendMS = append(p.sendMS, q.sendMS...)
	p.metrics = append(p.metrics, q.metrics...)
	p.batches = append(p.batches, q.batches...)
	p.cutFrac = append(p.cutFrac, q.cutFrac...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.shed += q.shed
	p.lastLag = q.lastLag
	p.notes = append(p.notes, q.notes...)
}

// check validates every response of a phase after it ends: any
// transport error or non-2xx status is a failure (429, 504 and 410 are
// also counted as shed), every read must be a valid, balanced
// assignment of at least the sessions' original vertices.
func (e *serveEnv) check(jobs []job, out []outcome) *phaseStats {
	p := &phaseStats{attempted: len(jobs)}
	type answered struct {
		sess int
		m    serve.RequestMetrics
		v    uint64
	}
	var edits []answered
	for i, o := range out {
		j := jobs[i]
		p.lagMS = append(p.lagMS, ms(o.sent-o.due))
		switch {
		case o.err != nil:
			p.fail("request %d: %v", i, o.err)
			continue
		case o.status == http.StatusTooManyRequests, o.status == http.StatusGatewayTimeout, o.status == http.StatusGone:
			p.shed++
			p.fail("request %d: shed with status %d", i, o.status)
			continue
		case o.status/100 != 2:
			p.fail("request %d: status %d: %s", i, o.status, o.body)
			continue
		}
		if j.edit {
			var r serve.Response
			if err := json.Unmarshal(o.body, &r); err != nil {
				p.fail("edit %d: %v", i, err)
				continue
			}
			s := e.sess[j.sess]
			s.added = append(s.added, versionWeight{r.Version, j.w})
			edits = append(edits, answered{j.sess, r.Metrics, r.Version})
			p.editMS = append(p.editMS, ms(o.latency()))
			p.sendMS = append(p.sendMS, ms(o.done-o.sent))
			p.metrics = append(p.metrics, r.Metrics)
			continue
		}
		var a struct {
			Version uint64  `json:"version"`
			P       int     `json:"p"`
			Parts   []int32 `json:"parts"`
		}
		if err := json.Unmarshal(o.body, &a); err != nil {
			p.fail("read %d: %v", i, err)
			continue
		}
		if err := validParts(a.Parts, a.P, e.sess[j.sess].n0); err != nil {
			p.fail("read %d: %v", i, err)
			continue
		}
		p.readMS = append(p.readMS, ms(o.latency()))
	}
	// One record per batch, once every edit's weight is known: a batch
	// may hold edits answered later in the schedule.
	type batchKey struct {
		sess    int
		version uint64
	}
	seen := map[batchKey]bool{}
	for _, a := range edits {
		if k := (batchKey{a.sess, a.v}); !seen[k] {
			seen[k] = true
			p.batches = append(p.batches, a.m)
			p.cutFrac = append(p.cutFrac, a.m.CutAfter/e.sess[a.sess].edgeWeightAt(a.v))
		}
	}
	if n := len(out); n > 0 {
		p.lastLag = out[n-1].sent - out[n-1].due
	}
	return p
}

// edgeWeightAt is the session's total edge weight once every edit
// answered at or before version has been applied.
func (s *sessionState) edgeWeightAt(version uint64) float64 {
	w := s.w0
	for _, a := range s.added {
		if a.version <= version {
			w += a.w
		}
	}
	return w
}

// validParts checks a read assignment: the partition count, at least
// the original vertices, every vertex in a partition (the workload
// never removes vertices), and exact vertex-count balance.
func validParts(parts []int32, p, n0 int) error {
	if p != serveP {
		return fmt.Errorf("p = %d, want %d", p, serveP)
	}
	if len(parts) < n0 {
		return fmt.Errorf("%d vertices, want at least %d", len(parts), n0)
	}
	sizes := make([]int, p)
	for v, q := range parts {
		if q < 0 || int(q) >= p {
			return fmt.Errorf("vertex %d in partition %d", v, q)
		}
		sizes[q]++
	}
	lo, hi := sizes[0], sizes[0]
	for _, s := range sizes {
		lo, hi = min(lo, s), max(hi, s)
	}
	if hi-lo > 1 {
		return errors.New("imbalanced: partition sizes differ by " + strconv.Itoa(hi-lo))
	}
	return nil
}

// runServe is one benchmark run of serve-mixed.
func runServe(seed int64, seconds float64, trace bool, traceDir string) (*result, error) {
	inputs, err := serveInputs()
	if err != nil {
		return nil, err
	}
	if trace {
		return serveTraced(inputs, seed, seconds, traceDir)
	}
	rng := rand.New(rand.NewSource(seed))
	part := seconds2d(seconds / serveParts)
	ref := &phaseStats{}
	var setupWall, setupCPU []float64
	var cpu time.Duration
	heap := 0.0
	for i := 0; i < serveParts; i++ {
		cpu0, t0 := cpuTime(), time.Now()
		env, err := startServe(inputs, false)
		if err != nil {
			return nil, err
		}
		setupWall = append(setupWall, time.Since(t0).Seconds())
		setupCPU = append(setupCPU, (cpuTime() - cpu0).Seconds())
		if i == 0 {
			heap = liveHeapMB()
		}
		jobs := env.schedule(serveRefRate, part, rng)
		cpu0 = cpuTime()
		out := env.drive(jobs)
		cpu += cpuTime() - cpu0
		ref.merge(env.check(jobs, out))
		if i == serveParts-1 {
			heap = math.Max(heap, liveHeapMB())
		}
		env.stop()
	}

	var callMS, moved []float64
	for _, b := range ref.batches {
		callMS = append(callMS, ms(b.Repartition))
		moved = append(moved, float64(b.Moved))
	}
	res := &result{attempted: ref.attempted, failed: ref.failed, notes: ref.notes}
	res.notef("reference rate %g edit/s + %g read/s over %d connections, %d parts: %d edits, %d reads, %d batches",
		serveRefRate, serveRefRate, serveConns, serveParts, len(ref.editMS), len(ref.readMS), len(ref.batches))
	res.noteDist("call", callMS)
	res.noteDist("edit", ref.editMS)
	res.noteDist("read", ref.readMS)
	res.notef("set-up wall time: median %.4g s of %d", median(setupWall), len(setupWall))
	res.add("setup_s", median(setupCPU), "s")
	res.add("call_cpu_ms", ms(cpu)/float64(max(len(ref.batches), 1)), "ms")
	res.add("edit_p50_ms", median(ref.editMS), "ms")
	res.add("read_p50_ms", median(ref.readMS), "ms")
	res.add("cut_frac", mean(ref.cutFrac), "ratio")
	res.add("moved_per_call", mean(moved), "count")
	res.add("live_heap_mb", heap, "MB")
	return res, nil
}

// ladder climbs the rate ladder on e, step long per rate, notes each
// step in res and returns max_rps: the highest rate whose step had edit
// p99 within the limit, nothing failed, and the generator ended on
// schedule (no backlog). The climb stops after two failing steps in a
// row.
func (e *serveEnv) ladder(step time.Duration, rng *rand.Rand, res *result) float64 {
	maxRPS, misses := 0.0, 0
	for _, rate := range serveLadder {
		jobs := e.schedule(rate, step, rng)
		st := e.check(jobs, e.drive(jobs))
		res.attempted += st.attempted
		res.failed += st.failed
		res.notes = append(res.notes, st.notes...)
		p99 := quantile(st.editMS, 0.99)
		ok := st.failed == 0 && p99 <= ms(serveSLO) && st.lastLag <= serveSLO
		res.notef("ladder %g edit/s: edit p99 %.2f ms, failed %d, final lag %.2f ms, pass=%v",
			rate, p99, st.failed, ms(st.lastLag), ok)
		if ok {
			maxRPS, misses = rate, 0
		} else if misses++; misses == 2 {
			break
		}
	}
	return maxRPS
}

// serveTraced is the --trace 1 run of serve-mixed, in thirds of the
// run: the reference phase untraced, then again on a fresh server whose
// engines solve through the forwarding LP solver, with a span per
// request and per LP solve, then the rate ladder on a fresh untraced
// server.
func serveTraced(inputs []*sessionState, seed int64, seconds float64, traceDir string) (*result, error) {
	// RSB of one session's graph, as session creation runs it.
	g, err := serveGraph(0)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := igp.PartitionRSB(g, serveP, configSeed); err != nil {
		return nil, err
	}
	rsb := time.Since(t0)

	third := seconds2d(seconds / 3)
	phase := func(traced bool, rec *recorder) (*phaseStats, error) {
		env, err := startServe(inputs, traced)
		if err != nil {
			return nil, err
		}
		defer env.stop()
		if rec != nil {
			activeRecorder.Store(rec)
			defer activeRecorder.Store(nil)
		}
		jobs := env.schedule(serveRefRate, third, rand.New(rand.NewSource(seed)))
		t := time.Now()
		out := env.drive(jobs)
		if rec != nil {
			for i, o := range out {
				name := "serve.read"
				if jobs[i].edit {
					name = "serve.edit"
				}
				rec.leaf(name, -1, t.Add(o.sent), t.Add(o.done))
			}
		}
		return env.check(jobs, out), nil
	}
	plain, err := phase(false, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	traced, err := phase(true, rec)
	if err != nil {
		return nil, err
	}
	path, err := rec.write(traceDir, fmt.Sprintf("%s-seed%d.json", serveMixed, seed))
	if err != nil {
		return nil, err
	}
	res := &result{
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
		notes:     append(plain.notes, traced.notes...),
	}
	res.notef("spans written to %s", path)

	env, err := startServe(inputs, false)
	if err != nil {
		return nil, err
	}
	maxRPS := env.ladder(third/time.Duration(len(serveLadder)), rand.New(rand.NewSource(seed)), res)
	env.stop()
	res.notef("max_rps: %g edit/s", maxRPS)
	res.add("serve.max_rps", maxRPS, "1/s")

	perBatch := func(f func(serve.RequestMetrics) float64) float64 {
		var xs []float64
		for _, b := range plain.batches {
			xs = append(xs, f(b))
		}
		return mean(xs)
	}
	perRequest := func(f func(serve.RequestMetrics) float64) float64 {
		var xs []float64
		for _, m := range plain.metrics {
			xs = append(xs, f(m))
		}
		return mean(xs)
	}
	selfAll, countAll := rec.selfTimes()
	batches := float64(max(len(traced.batches), 1))
	res.add("lp.solve_ms", ms(selfAll["lp.solve"])/batches, "ms")
	res.add("lp.solves", float64(countAll["lp.solve"])/batches, "count")
	pivots := perBatch(func(m serve.RequestMetrics) float64 { return float64(m.LPIterations) })
	res.add("lp.pivots", pivots, "count")
	res.add("lp.pivots_per_solve", pivots/math.Max(float64(countAll["lp.solve"])/batches, 1), "count")
	res.add("lp.parallel_solves", 0, "count")
	// The server installs its own observer, so phase times here include
	// the LP solves inside them.
	res.add("engine.assign_ms", perBatch(func(m serve.RequestMetrics) float64 { return ms(m.Assign) }), "ms")
	res.add("layering.layer_ms", perBatch(func(m serve.RequestMetrics) float64 { return ms(m.Layer) }), "ms")
	res.add("balance.balance_ms", perBatch(func(m serve.RequestMetrics) float64 { return ms(m.Balance) }), "ms")
	res.add("refine.refine_ms", perBatch(func(m serve.RequestMetrics) float64 { return ms(m.Refine) }), "ms")
	res.add("engine.other_ms", perBatch(func(m serve.RequestMetrics) float64 {
		return ms(m.Repartition - m.Assign - m.Layer - m.Balance - m.Refine)
	}), "ms")
	res.add("balance.stages", perBatch(func(m serve.RequestMetrics) float64 { return float64(m.Stages) }), "count")
	res.add("graph.csr_patched_frac", perBatch(func(m serve.RequestMetrics) float64 {
		if m.CSRPatched > 0 {
			return 1
		}
		return 0
	}), "ratio")
	for _, name := range []string{"refine.rounds", "refine.moved", "balance.moved", "engine.allocs_per_call",
		"coarsen.coarsen_ms", "coarsen.uncoarsen_ms", "coarsen.levels", "coarsen.repaired_frac",
		"coarsen.rebuilt_levels", "coarsen.dissolve_amp", "graph.apply_ms", "par.busy_frac"} {
		res.add(name, 0, unitOf(name))
	}
	for k := 0; k < maxLevels; k++ {
		res.add(fmt.Sprintf("coarsen.L%d.ms", k), 0, "ms")
		res.add(fmt.Sprintf("coarsen.L%d.dissolved", k), 0, "count")
	}
	res.add("spectral.rsb_s", rsb.Seconds(), "s")
	res.add("spectral.init_calls", serveSessions, "count")

	queue := perRequest(func(m serve.RequestMetrics) float64 { return ms(m.QueueWait) })
	rep := perRequest(func(m serve.RequestMetrics) float64 { return ms(m.Repartition) })
	httpMS := mean(plain.sendMS) - queue - rep
	res.add("serve.queue_wait_ms", queue, "ms")
	res.add("serve.batch_size", perRequest(func(m serve.RequestMetrics) float64 { return float64(m.BatchSize) }), "count")
	res.add("serve.repartition_ms", rep, "ms")
	res.add("serve.http_ms", httpMS, "ms")
	res.add("serve.shed_frac", float64(plain.shed)/float64(max(plain.attempted, 1)), "ratio")
	lag := mean(plain.lagMS)
	res.add("gen.lag_ms", lag, "ms")
	res.add("trace.overhead_frac", median(traced.editMS)/median(plain.editMS)-1, "ratio")
	res.add("trace.accounted_frac", (queue+rep+lag)/mean(plain.editMS), "ratio")
	return res, nil
}

// addServeZeros reports the serve-only layers as zero on a library
// workload.
func addServeZeros(res *result) {
	for _, name := range []string{"serve.queue_wait_ms", "serve.batch_size", "serve.repartition_ms",
		"serve.http_ms", "serve.shed_frac", "serve.max_rps", "gen.lag_ms"} {
		res.add(name, 0, unitOf(name))
	}
}

func unitOf(name string) string {
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("perfbench: unknown metric " + name)
}
