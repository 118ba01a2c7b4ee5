package coarsen

// parallel.go holds the hierarchy's sharded kernels: the deterministic
// mutual-proposal matcher shared by build/rematch/Match, and the
// fork-join sweeps behind repair (purity detection, free collection +
// upward projection), connectGroups (coarse-arc aggregation), Uncoarsen
// (downward projection) and refineLevel (weight totals, seed collection,
// the initial move scan).
//
// Every kernel follows the engine's determinism discipline
// (internal/par): contiguous shards that are pure functions of the
// input, per-worker buffers merged in shard order, atomic claims
// deciding membership only, and total-order sorts erasing scheduling.
// Procs <= 1 runs the identical code inline through Group.Run — the
// exact sequential path — so every worker count produces bit-identical
// hierarchies and assignments.

import (
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
)

const (
	// parMatchMin is the per-round dirty-set size below which a matching
	// round's propose/collect scans run inline; late rounds shrink to a
	// few vertices and forking them costs more than the scan.
	parMatchMin = 48
	// parSweepMin is the slot-range size below which the O(order) sweeps
	// (purity, projection, weights, seed collection) run inline.
	parSweepMin = 2048
	// parSeedMin is the seed-list size below which the refinement move
	// scan and seed marking run inline.
	parSeedMin = 48
	// parConnectArcMin is the total fine-arc count below which
	// connectGroups aggregates inline.
	parConnectArcMin = 4096
)

// vertexBuf is one worker's private collection arenas.
type vertexBuf struct {
	v []graph.Vertex
	h []hopPair
}

func growBufs(bufs *[]vertexBuf, n int) {
	for len(*bufs) < n {
		*bufs = append(*bufs, vertexBuf{})
	}
}

// splitByDeg cuts list into contiguous shards carrying near-equal arc
// work (degree+1 per vertex) so skewed degrees — power-law hubs — do
// not serialize a region behind one worker. shards and cum are arenas;
// both are returned for reuse. Pure function of (graph, list, workers).
func splitByDeg(fg *graph.Graph, list []graph.Vertex, workers int, shards []par.Range, cum []int32) ([]par.Range, []int32) {
	shards = shards[:0]
	if workers <= 1 {
		return par.Split(shards, len(list), 1), cum
	}
	cum = append(cum[:0], 0)
	t := int32(0)
	for _, v := range list {
		t += int32(fg.Degree(v)) + 1
		cum = append(cum, t)
	}
	return par.SplitByWeight(shards, cum, workers), cum
}

// edgeHash is a fixed 64-bit mix of an undirected edge's endpoints —
// the matcher's tie-break among equal-weight candidate edges. A plain
// id tie-break serializes unit-weight meshes into a wavefront (one
// mutual pair per round creeping along each row); the hash makes ties
// locally random so a constant fraction of the remaining free edges is
// mutual each round, while staying a pure function of the graph and
// therefore identical at every worker count and on every run.
func edgeHash(a, b graph.Vertex) uint64 {
	if a > b {
		a, b = b, a
	}
	x := uint64(uint32(a))<<32 | uint64(uint32(b))
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// matcher is the deterministic heavy-edge matcher shared by the
// hierarchy's build/rematch paths and the package-level Match.
//
// A greedy HEM visits vertices in one global order, so any sharding of
// it changes the result. The matcher instead runs rounds of mutual
// proposals: every free vertex proposes its best incident free
// same-partition edge under a total edge order (weight descending, then
// edgeHash, then endpoint ids), and every mutually-proposing pair
// matches. The globally best free edge is always mutual, so each round
// makes progress and the loop terminates with a maximal matching; the
// hashed tie-break makes a constant fraction of the remaining free
// edges mutual per round in expectation (the classic local-max matching
// argument). Only vertices whose proposed target was matched away
// re-propose — as the free set only shrinks, everyone else's proposal
// stays optimal — so total work stays near-linear.
//
// The outcome is a pure function of (graph, partition, free set):
// proposals are per-vertex functions of frozen shared state, pair
// application is sequential over the sorted dirty list, and the
// re-dirty set is decided by claims (membership only) and sorted. Every
// worker count therefore produces the identical matching.
type matcher struct {
	group *par.Group
	own   par.Group
	procs int

	prop     []graph.Vertex // current proposal target (per slot)
	mate     []graph.Vertex // result: partner, self until matched
	freeFlag []bool         // eligible and not yet matched
	dirtyA   []graph.Vertex
	dirtyB   []graph.Vertex
	matched  []graph.Vertex
	cum      []int32
	shards   []par.Range
	stamps   par.Stamps
	bufs     []vertexBuf
	hops     []hopPair
	pend     []graph.Vertex

	ptask proposeTask
	ctask collectTask
	htask hopTask
}

func (m *matcher) g() *par.Group {
	if m.group != nil {
		return m.group
	}
	return &m.own
}

// workers picks the fork width for a region of the given size — a pure
// function of the input size, never of scheduling.
func (m *matcher) workers(units, min int) int {
	if m.procs > 1 && units >= min {
		return m.procs
	}
	return 1
}

func (m *matcher) grow(n int) {
	if m.procs < 1 {
		m.procs = 1
	}
	for len(m.prop) < n {
		m.prop = append(m.prop, -1)
		m.mate = append(m.mate, graph.Vertex(len(m.mate)))
		m.freeFlag = append(m.freeFlag, false)
	}
}

// run matches the vertices of free (ascending slot order) among
// themselves, restricted to same-partition pairs. On return mate[v] is
// v's partner (self = unmatched) for every v in free; other slots hold
// garbage from earlier runs. Scratch grows to fg.Order() and is reused.
func (m *matcher) run(fg *graph.Graph, part []int32, free []graph.Vertex) {
	n := fg.Order()
	m.grow(n)
	for _, v := range free {
		m.freeFlag[v] = true
		m.mate[v] = v
	}
	dirty := append(m.dirtyA[:0], free...)
	next := m.dirtyB[:0]
	m.stamps.Grow(n)
	m.stamps.Next()
	for _, v := range dirty {
		m.stamps.TryMark(v)
	}
	for len(dirty) > 0 {
		// 1. Re-propose: every dirty vertex recomputes its best free
		// same-partition edge — a pure per-vertex function of shared
		// frozen state, so any sharding is bitwise-equivalent.
		m.shards, m.cum = splitByDeg(fg, dirty, m.workers(len(dirty), parMatchMin), m.shards, m.cum)
		m.ptask = proposeTask{m: m, fg: fg, part: part, list: dirty}
		m.g().Run(len(m.shards), &m.ptask)
		m.ptask = proposeTask{}
		// 2. Match mutual pairs, sequential over the sorted dirty list.
		// Proposals are frozen here and prop is a function, so mutual
		// pairs are vertex-disjoint; a pair with both ends dirty is
		// reported by its smaller end, one with a non-dirty end (whose
		// standing proposal is still optimal) by the dirty end.
		matched := m.matched[:0]
		for _, v := range dirty {
			u := m.prop[v]
			if u < 0 || !m.freeFlag[v] || !m.freeFlag[u] {
				continue
			}
			if m.prop[u] == v && (v < u || !m.stamps.Marked(u)) {
				m.freeFlag[v], m.freeFlag[u] = false, false
				m.mate[v], m.mate[u] = u, v
				matched = append(matched, v, u)
			}
		}
		m.matched = matched
		if len(matched) == 0 {
			// No mutual pair anywhere implies no free same-partition
			// edge remains (the globally best one would be mutual, and
			// every new mutual pair involves a dirty vertex): maximal.
			break
		}
		// 3. Re-dirty: a free vertex re-proposes iff its target was just
		// matched away. Claims decide membership only — the claimed set
		// is a pure function of the round — and the sort erases worker
		// merge order.
		m.stamps.Next()
		next = next[:0]
		m.shards, m.cum = splitByDeg(fg, matched, m.workers(len(matched), parMatchMin), m.shards, m.cum)
		growBufs(&m.bufs, len(m.shards))
		m.ctask = collectTask{m: m, fg: fg, list: matched}
		m.g().Run(len(m.shards), &m.ctask)
		m.ctask = collectTask{}
		for w := range m.shards {
			next = append(next, m.bufs[w].v...)
			m.bufs[w].v = m.bufs[w].v[:0]
		}
		slices.Sort(next)
		dirty, next = next, dirty[:0]
	}
	m.twoHop(fg, part, free)
	for _, v := range free {
		m.freeFlag[v] = false
	}
	m.dirtyA, m.dirtyB = dirty[:0], next[:0]
}

// twoHop pairs leftover singletons that share a common neighbor — the
// Metis two-hop device. A maximal matching strands every satellite of a
// star whose hub is matched (its only free edge leads to a non-free
// vertex), and those stars dominate deep coarse levels: without this
// pass the per-level reduction ratio decays toward 1 and the hierarchy
// both deepens and trips the stall guard on warm repairs. Emission
// shards over the singleton list; the (center, singleton) pairs are
// sorted under their total order and consecutive same-partition
// singletons within each center run pair up in ascending order, so the
// result is a pure function of (graph, partition, free set).
func (m *matcher) twoHop(fg *graph.Graph, part []int32, free []graph.Vertex) {
	singles := m.matched[:0]
	for _, v := range free {
		if m.freeFlag[v] {
			singles = append(singles, v)
		}
	}
	m.matched = singles
	if len(singles) < 2 {
		return
	}
	m.shards, m.cum = splitByDeg(fg, singles, m.workers(len(singles), parMatchMin), m.shards, m.cum)
	growBufs(&m.bufs, len(m.shards))
	m.htask = hopTask{m: m, fg: fg, list: singles}
	m.g().Run(len(m.shards), &m.htask)
	m.htask = hopTask{}
	hops := m.hops[:0]
	for w := range m.shards {
		hops = append(hops, m.bufs[w].h...)
		m.bufs[w].h = m.bufs[w].h[:0]
	}
	slices.SortFunc(hops, hopPairCmp)
	pend := m.pend[:0]
	for i := 0; i < len(hops); {
		j := i
		pend = pend[:0]
		for ; j < len(hops) && hops[j].u == hops[i].u; j++ {
			s := hops[j].s
			if !m.freeFlag[s] {
				continue
			}
			// At most one pending singleton per partition: the second
			// arrival pairs immediately.
			paired := false
			for k, t := range pend {
				if m.freeFlag[t] && part[t] == part[s] {
					m.freeFlag[s], m.freeFlag[t] = false, false
					m.mate[s], m.mate[t] = t, s
					pend[k] = pend[len(pend)-1]
					pend = pend[:len(pend)-1]
					paired = true
					break
				}
			}
			if !paired {
				pend = append(pend, s)
			}
		}
		i = j
	}
	m.hops, m.pend = hops[:0], pend[:0]
}

// hopPair links a leftover singleton s to one of its neighbors u (the
// candidate meeting point of the two-hop pass).
type hopPair struct{ u, s graph.Vertex }

// hopPairCmp is the total order on hop pairs: center, then singleton.
// Pairs are unique (u appears once in s's adjacency), so any sort
// produces the same permutation.
func hopPairCmp(a, b hopPair) int {
	if a.u != b.u {
		return int(a.u) - int(b.u)
	}
	return int(a.s) - int(b.s)
}

type hopTask struct {
	m    *matcher
	fg   *graph.Graph
	list []graph.Vertex
}

func (t *hopTask) Do(w int) {
	m := t.m
	r := m.shards[w]
	buf := m.bufs[w].h[:0]
	for _, s := range t.list[r.Lo:r.Hi] {
		for _, u := range t.fg.Neighbors(s) {
			buf = append(buf, hopPair{u, s})
		}
	}
	m.bufs[w].h = buf
}

// propose recomputes v's best incident free same-partition edge under
// the total edge order (weight desc, edgeHash asc, partner id asc).
func (m *matcher) propose(fg *graph.Graph, part []int32, v graph.Vertex) {
	var best graph.Vertex = -1
	var bestW float64
	var bestH uint64
	pv := part[v]
	ws := fg.EdgeWeights(v)
	for i, u := range fg.Neighbors(v) {
		if u == v || !m.freeFlag[u] || part[u] != pv {
			continue
		}
		w := ws[i]
		if best >= 0 && w < bestW {
			continue
		}
		h := edgeHash(v, u)
		if best < 0 || w > bestW || h < bestH || (h == bestH && u < best) {
			best, bestW, bestH = u, w, h
		}
	}
	m.prop[v] = best
}

type proposeTask struct {
	m    *matcher
	fg   *graph.Graph
	part []int32
	list []graph.Vertex
}

func (t *proposeTask) Do(w int) {
	r := t.m.shards[w]
	for _, v := range t.list[r.Lo:r.Hi] {
		t.m.propose(t.fg, t.part, v)
	}
}

type collectTask struct {
	m    *matcher
	fg   *graph.Graph
	list []graph.Vertex
}

func (t *collectTask) Do(w int) {
	m := t.m
	r := m.shards[w]
	buf := m.bufs[w].v[:0]
	for _, x := range t.list[r.Lo:r.Hi] {
		for _, y := range t.fg.Neighbors(x) {
			if m.freeFlag[y] && m.prop[y] == x && m.stamps.Claim(y) {
				buf = append(buf, y)
			}
		}
	}
	m.bufs[w].v = buf
}

// sweepWorker is one worker's private arenas for the hierarchy sweeps.
type sweepWorker struct {
	verts   []graph.Vertex
	entries []moveEntry
	conn    []float64
	weights []float64
	total   float64
	maxW    float64
	pairs   []cwPair
	runs    []int32
	// connectTask's scatter accumulator: acc is indexed by coarse slot
	// and valid where seen is marked; keys lists a group's endpoints.
	acc  []float64
	seen par.Stamps
	keys []graph.Vertex
}

func growSweeps(sw *[]sweepWorker, n int) {
	for len(*sw) < n {
		*sw = append(*sw, sweepWorker{})
	}
}

// Sweep kinds for sweepTask.
const (
	sweepPurity = iota
	sweepProject
	sweepUncoarsen
	sweepWeights
	sweepSeedMark
	sweepSeedCollect
	sweepMoveScan
)

// sweepTask multiplexes the hierarchy's sharded scans; exactly one
// region runs at a time, so one reusable task struct serves them all.
type sweepTask struct {
	h    *Hierarchy
	kind int
	l    int
	fg   *graph.Graph
	part []int32
	lv   *level
	list []graph.Vertex
}

func (t *sweepTask) Do(w int) {
	h := t.h
	r := h.shards[w]
	switch t.kind {
	case sweepPurity:
		// Detect groups whose members' partitions diverged. Pure
		// predicate over frozen state; per-worker lists merge in shard
		// order, reproducing the ascending sequential scan.
		buf := h.sweeps[w].verts[:0]
		for v := r.Lo; v < r.Hi; v++ {
			vv := graph.Vertex(v)
			if !t.fg.Alive(vv) || t.lv.f2c[v] < 0 {
				continue
			}
			if u := t.lv.match[v]; u != vv && t.part[u] != t.part[v] {
				buf = append(buf, vv)
			}
		}
		h.sweeps[w].verts = buf
	case sweepProject:
		// Project the fine assignment up through surviving groups and
		// collect unmapped vertices. The coarse write is owned by the
		// group's smallest member (match[v] >= v), so it is race-free;
		// both members carry the same partition post-purity, so the
		// value equals the sequential both-members write.
		buf := h.sweeps[w].verts[:0]
		for v := r.Lo; v < r.Hi; v++ {
			vv := graph.Vertex(v)
			if !t.fg.Alive(vv) {
				continue
			}
			if cv := t.lv.f2c[v]; cv >= 0 {
				if t.lv.match[v] >= vv {
					t.lv.ca.Part[cv] = t.part[v]
				}
			} else {
				buf = append(buf, vv)
			}
		}
		h.sweeps[w].verts = buf
	case sweepUncoarsen:
		// Downward projection: each slot's write is shard-owned.
		buf := h.sweeps[w].verts[:0]
		for v := r.Lo; v < r.Hi; v++ {
			vv := graph.Vertex(v)
			if !t.fg.Alive(vv) || t.lv.f2c[v] < 0 {
				continue
			}
			if np := t.lv.ca.Part[t.lv.f2c[v]]; t.part[v] != np {
				t.part[v] = np
				buf = append(buf, vv)
			}
		}
		h.sweeps[w].verts = buf
	case sweepWeights:
		// Per-partition cardinality sums; level weights are level-0
		// counts (small integers), so float accumulation is exact and
		// any partial split merges bitwise-identically.
		ws := &h.sweeps[w]
		for v := r.Lo; v < r.Hi; v++ {
			vv := graph.Vertex(v)
			if !t.fg.Alive(vv) {
				continue
			}
			wt := h.levelWeight(t.l, vv)
			ws.total += wt
			if q := t.part[v]; q >= 0 {
				ws.weights[q] += wt
			}
			if wt > ws.maxW {
				ws.maxW = wt
			}
		}
	case sweepSeedMark:
		// Membership marking only: who claims a slot is scheduling-
		// dependent, the claimed set is not.
		for _, v := range t.list[r.Lo:r.Hi] {
			h.seedMarks.Claim(v)
			for _, u := range t.fg.Neighbors(v) {
				h.seedMarks.Claim(u)
			}
		}
	case sweepSeedCollect:
		buf := h.sweeps[w].verts[:0]
		for v := r.Lo; v < r.Hi; v++ {
			if h.seedMarks.Marked(int32(v)) {
				buf = append(buf, graph.Vertex(v))
			}
		}
		h.sweeps[w].verts = buf
	case sweepMoveScan:
		// The same conn[] accumulation as pushMoves, appended to a
		// per-worker buffer instead of pushed; concatenated in worker
		// order over the ascending seed list this replays the exact
		// sequential push sequence.
		ws := &h.sweeps[w]
		conn := ws.conn[:h.p]
		for _, v := range t.list[r.Lo:r.Hi] {
			if !t.fg.Alive(v) {
				continue
			}
			own := t.part[v]
			if own < 0 {
				continue
			}
			for q := range conn {
				conn[q] = 0
			}
			ews := t.fg.EdgeWeights(v)
			for i, u := range t.fg.Neighbors(v) {
				if q := t.part[u]; q >= 0 {
					conn[q] += ews[i]
				}
			}
			base := conn[own]
			for q := 0; q < h.p; q++ {
				if int32(q) != own && conn[q] > base {
					ws.entries = append(ws.entries, moveEntry{gain: conn[q] - base, v: v, to: int32(q)})
				}
			}
		}
	}
}

// group returns the fork-join group the hierarchy's regions run on: the
// engine's (so V-cycle busy time rolls into Stats.WorkerBusy) or a
// hierarchy-private one.
func (h *Hierarchy) group() *par.Group {
	if h.opt.Group != nil {
		return h.opt.Group
	}
	return &h.mt.own
}

// workers picks the fork width for a region of the given size — a pure
// function of the input size.
func (h *Hierarchy) workers(units, min int) int {
	if h.opt.Procs > 1 && units >= min {
		return h.opt.Procs
	}
	return 1
}

// collectImpure returns the ascending list of group members whose
// partner's partition diverged (arena: h.orderBuf).
func (h *Hierarchy) collectImpure(lv *level, fg *graph.Graph, fa *partition.Assignment) []graph.Vertex {
	n := fg.Order()
	h.shards = par.Split(h.shards[:0], n, h.workers(n, parSweepMin))
	growSweeps(&h.sweeps, len(h.shards))
	h.swTask = sweepTask{h: h, kind: sweepPurity, fg: fg, part: fa.Part, lv: lv}
	h.group().Run(len(h.shards), &h.swTask)
	h.swTask = sweepTask{}
	out := h.orderBuf[:0]
	for i := range h.shards {
		out = append(out, h.sweeps[i].verts...)
		h.sweeps[i].verts = h.sweeps[i].verts[:0]
	}
	h.orderBuf = out[:0]
	return out
}

// collectFree projects the fine assignment up through surviving groups
// and returns the ascending list of unmapped live vertices (arena:
// h.freeBuf).
func (h *Hierarchy) collectFree(lv *level, fg *graph.Graph, fa *partition.Assignment) []graph.Vertex {
	n := fg.Order()
	h.shards = par.Split(h.shards[:0], n, h.workers(n, parSweepMin))
	growSweeps(&h.sweeps, len(h.shards))
	h.swTask = sweepTask{h: h, kind: sweepProject, fg: fg, part: fa.Part, lv: lv}
	h.group().Run(len(h.shards), &h.swTask)
	h.swTask = sweepTask{}
	out := h.freeBuf[:0]
	for i := range h.shards {
		out = append(out, h.sweeps[i].verts...)
		h.sweeps[i].verts = h.sweeps[i].verts[:0]
	}
	h.freeBuf = out[:0]
	return out
}

// projectDown applies the coarse decision to level l's fine side and
// returns the ascending list of changed vertices (arena: h.changeBuf).
func (h *Hierarchy) projectDown(lv *level, fg *graph.Graph, fa *partition.Assignment) []graph.Vertex {
	n := fg.Order()
	h.shards = par.Split(h.shards[:0], n, h.workers(n, parSweepMin))
	growSweeps(&h.sweeps, len(h.shards))
	h.swTask = sweepTask{h: h, kind: sweepUncoarsen, fg: fg, part: fa.Part, lv: lv}
	h.group().Run(len(h.shards), &h.swTask)
	h.swTask = sweepTask{}
	out := h.changeBuf[:0]
	for i := range h.shards {
		out = append(out, h.sweeps[i].verts...)
		h.sweeps[i].verts = h.sweeps[i].verts[:0]
	}
	h.changeBuf = out[:0]
	return out
}

// levelWeights computes the per-partition level-0 cardinality weights,
// their total and the heaviest single cluster, sharded over the slot
// range. All three reductions are sums/maxes of small integers, so
// float accumulation is exact and any shard merge is bitwise-identical.
func (h *Hierarchy) levelWeights(l int, fg *graph.Graph, fa *partition.Assignment) (weights []float64, total, maxW float64) {
	p := h.p
	if cap(h.wBuf) < p {
		h.wBuf = make([]float64, p)
	}
	weights = h.wBuf[:p]
	for q := range weights {
		weights[q] = 0
	}
	n := fg.Order()
	h.shards = par.Split(h.shards[:0], n, h.workers(n, parSweepMin))
	growSweeps(&h.sweeps, len(h.shards))
	for i := range h.shards {
		ws := &h.sweeps[i]
		if cap(ws.weights) < p {
			ws.weights = make([]float64, p)
		}
		ws.weights = ws.weights[:p]
		for q := range ws.weights {
			ws.weights[q] = 0
		}
		ws.total, ws.maxW = 0, 0
	}
	h.swTask = sweepTask{h: h, kind: sweepWeights, l: l, fg: fg, part: fa.Part}
	h.group().Run(len(h.shards), &h.swTask)
	h.swTask = sweepTask{}
	for i := range h.shards {
		ws := &h.sweeps[i]
		for q := 0; q < p; q++ {
			weights[q] += ws.weights[q]
		}
		total += ws.total
		if ws.maxW > maxW {
			maxW = ws.maxW
		}
	}
	return weights, total, maxW
}

// collectSeeds returns the ascending, deduplicated refinement seed set:
// the changed vertices plus their neighborhoods (arena: h.orderBuf).
// Two strategies produce the identical list, chosen purely by input
// size: small changed sets gather and sort; large ones — the cold
// V-cycle projects a big share of the level — mark membership in a
// stamp set and collect with an ascending slot scan, which is O(order),
// shards, and is naturally sorted and deduplicated.
func (h *Hierarchy) collectSeeds(fg *graph.Graph, changed []graph.Vertex) []graph.Vertex {
	n := fg.Order()
	seeds := h.orderBuf[:0]
	if n < parSweepMin || len(changed)*32 < n {
		seeds = append(seeds, changed...)
		for _, v := range changed {
			seeds = append(seeds, fg.Neighbors(v)...)
		}
		slices.Sort(seeds)
		out := seeds[:0]
		var prev graph.Vertex = -1
		for _, v := range seeds {
			if v != prev {
				out = append(out, v)
				prev = v
			}
		}
		return out
	}
	h.seedMarks.Grow(n)
	h.seedMarks.Next()
	h.shards, h.cum = splitByDeg(fg, changed, h.workers(len(changed), parSeedMin), h.shards, h.cum)
	h.swTask = sweepTask{h: h, kind: sweepSeedMark, fg: fg, list: changed}
	h.group().Run(len(h.shards), &h.swTask)
	h.shards = par.Split(h.shards[:0], n, h.workers(n, parSweepMin))
	growSweeps(&h.sweeps, len(h.shards))
	h.swTask = sweepTask{h: h, kind: sweepSeedCollect, fg: fg}
	h.group().Run(len(h.shards), &h.swTask)
	h.swTask = sweepTask{}
	for i := range h.shards {
		seeds = append(seeds, h.sweeps[i].verts...)
		h.sweeps[i].verts = h.sweeps[i].verts[:0]
	}
	return seeds
}

// scanSeeds computes every strictly positive-gain move of the seed
// vertices and pushes them onto the heap. The per-seed scan shards
// arc-balanced over the seed list; per-worker entry buffers
// concatenated in worker order over the ascending seed list replay the
// exact sequential push sequence, so the heap array is bit-identical at
// every worker count.
func (h *Hierarchy) scanSeeds(fg *graph.Graph, fa *partition.Assignment, seeds []graph.Vertex) {
	h.shards, h.cum = splitByDeg(fg, seeds, h.workers(len(seeds), parSeedMin), h.shards, h.cum)
	growSweeps(&h.sweeps, len(h.shards))
	for i := range h.shards {
		ws := &h.sweeps[i]
		if cap(ws.conn) < h.p {
			ws.conn = make([]float64, h.p)
		}
		ws.entries = ws.entries[:0]
	}
	h.swTask = sweepTask{h: h, kind: sweepMoveScan, fg: fg, part: fa.Part, list: seeds}
	h.group().Run(len(h.shards), &h.swTask)
	h.swTask = sweepTask{}
	for i := range h.shards {
		for _, e := range h.sweeps[i].entries {
			h.heapPush(e)
		}
		h.sweeps[i].entries = h.sweeps[i].entries[:0]
	}
}

// connectTask aggregates the coarse adjacency of each new group in a
// shard into a worker-private scatter accumulator indexed by coarse
// slot: the first arc to a coarse endpoint claims it in the worker's
// stamp set (a new generation per group, so nothing is reset) and
// records it; later arcs add to its slot. The group's (endpoint, weight)
// run is then emitted in ascending coarse-slot order by the cheaper of
// a scan over the span of stamped slots and a sort of the k distinct
// endpoints (par.ScanBeatsSort) — a hub group's endpoints can cover most
// of the level. Weights sum in adjacency order, which is exact for
// integral weights. All output is worker-private; insertion replays
// sequentially afterwards.
type connectTask struct {
	h    *Hierarchy
	fg   *graph.Graph
	lv   *level
	reps []graph.Vertex
}

func (t *connectTask) Do(w int) {
	h := t.h
	r := h.shards[w]
	ws := &h.sweeps[w]
	pairs, runs, acc := ws.pairs[:0], ws.runs[:0], ws.acc
	for i := r.Lo; i < r.Hi; i++ {
		v := t.reps[i]
		cv := t.lv.f2c[v]
		ws.seen.Next()
		keys := ws.keys[:0]
		lo, hi := graph.Vertex(math.MaxInt32), graph.Vertex(-1)
		members := [2]graph.Vertex{v, t.lv.match[v]}
		cnt := 1
		if members[1] != v {
			cnt = 2
		}
		for _, mb := range members[:cnt] {
			ews := t.fg.EdgeWeights(mb)
			for j, nb := range t.fg.Neighbors(mb) {
				cw := t.lv.f2c[nb]
				if cw == cv || cw < 0 {
					continue
				}
				if ws.seen.TryMark(cw) {
					keys = append(keys, cw)
					acc[cw] = ews[j]
					if cw < lo {
						lo = cw
					}
					if cw > hi {
						hi = cw
					}
				} else {
					acc[cw] += ews[j]
				}
			}
		}
		if k := len(keys); k > 0 && par.ScanBeatsSort(k, int(hi-lo)+1) {
			for cw := lo; cw <= hi; cw++ {
				if ws.seen.Marked(cw) {
					pairs = append(pairs, cwPair{cw, acc[cw]})
				}
			}
		} else {
			slices.Sort(keys)
			for _, cw := range keys {
				pairs = append(pairs, cwPair{cw, acc[cw]})
			}
		}
		runs = append(runs, int32(len(pairs)))
		ws.keys = keys[:0]
	}
	ws.pairs, ws.runs = pairs, runs
}
