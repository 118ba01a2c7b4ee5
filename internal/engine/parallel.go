// The sharded form of the engine's boundary maintenance. Both O(n)
// passes — the from-scratch rebuild and the assignment-diff scan — are
// split into arc-balanced contiguous vertex shards run on the engine's
// fork-join group. The rebuild writes each vertex's membership and size
// attribution from its owning shard and merges per-worker lists in
// shard order, reproducing the sequential ascending-id boundary
// exactly. The diff scan claims every re-examined vertex through an
// atomic compare-and-swap on the engine's recompute stamp, so each
// vertex's membership flip, size-attribution move and pending-collect
// is decided and applied by exactly one worker; membership and
// attribution (pure functions of graph + assignment) stay deterministic
// even though the claim winner — and hence the unordered boundary
// list's layout — is not. The boundary's documented contract is an
// unordered duplicate-free set, and every downstream consumer (seeded
// layering, seeded gains, the sorted cut report, the sorted phase-1
// seed list) is order-independent, which FuzzParallelEquivalence
// exercises. The per-partition size counters are summed from per-worker
// integer deltas at the join — integer addition is order-free, so they
// too are exact for every worker count.
package engine

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
)

// parBoundaryMin is the snapshot order below which the boundary passes
// run inline instead of forking the worker group — the same
// small-input cutoff the layering and gains kernels apply. The
// threshold depends only on the graph order, and boundary membership
// is worker-count independent anyway, so determinism is unaffected.
// (FuzzBoundaryExact and FuzzParallelEquivalence generate graphs on
// both sides of this constant; keep that true if it changes.)
const parBoundaryMin = 256

// boundaryWorker is one worker's private arena for boundary passes.
type boundaryWorker struct {
	add   []graph.Vertex // vertices that entered the boundary
	pend  []graph.Vertex // vertices newly collected for phase 1
	psize []int          // per-partition size deltas (rebuild: counts)
	dirty bool           // a vertex left the boundary (list needs compaction)
}

// growWorkers readies the per-worker arenas for P partitions.
func (e *Engine) growWorkers(p int) {
	for len(e.bws) < e.procs {
		e.bws = append(e.bws, boundaryWorker{})
	}
	for w := range e.bws[:e.procs] {
		ws := &e.bws[w]
		if cap(ws.psize) < p {
			ws.psize = make([]int, p)
		}
		ws.psize = ws.psize[:p]
	}
}

// joinBoundaryWorkers merges the per-worker boundary additions, pending
// collections and size deltas in shard order.
func (e *Engine) joinBoundaryWorkers(workers int) {
	for w := 0; w < workers; w++ {
		ws := &e.bws[w]
		e.boundary = append(e.boundary, ws.add...)
		e.pendingNew = append(e.pendingNew, ws.pend...)
		for q, d := range ws.psize {
			e.partSizes[q] += d
		}
		if ws.dirty {
			e.listDirty = true
		}
	}
}

// rebuildBoundaryPar is the sharded full rebuild; the caller has already
// truncated e.boundary, zeroed e.partSizes and grown the tracker arrays.
func (e *Engine) rebuildBoundaryPar(a *partition.Assignment) {
	e.growWorkers(a.P)
	e.shards = e.csr.Shards(e.shards[:0], e.procs)
	e.rb = rebuildTask{e: e, a: a}
	e.group.Run(len(e.shards), &e.rb)
	e.rb = rebuildTask{} // drop the assignment pointer after the region
	e.joinBoundaryWorkers(len(e.shards))
}

// rebuildTask scans one vertex-range shard for boundary membership,
// size attribution and pending collection. Shards are disjoint, so
// every per-vertex write is owned by exactly one worker.
type rebuildTask struct {
	e *Engine
	a *partition.Assignment
}

func (t *rebuildTask) Do(w int) {
	e := t.e
	ws := &e.bws[w]
	ws.add = ws.add[:0]
	ws.pend = ws.pend[:0]
	for q := range ws.psize {
		ws.psize[q] = 0
	}
	ws.dirty = false
	sh := e.shards[w]
	for v := sh.Lo; v < sh.Hi; v++ {
		member := e.isBoundary(graph.Vertex(v), t.a)
		e.inBoundary[v] = member
		if member {
			ws.add = append(ws.add, graph.Vertex(v))
		}
		want := e.attrOf(graph.Vertex(v), t.a)
		e.sizeAttr[v] = want
		if want >= 0 {
			ws.psize[want]++
		}
		e.collectPending(graph.Vertex(v), t.a, &ws.pend)
	}
}

// diffAssignmentPar is the sharded assignment-diff scan.
func (e *Engine) diffAssignmentPar(a *partition.Assignment) {
	e.growWorkers(a.P)
	e.shards = e.csr.Shards(e.shards[:0], e.procs)
	e.df = diffTask{e: e, a: a}
	e.group.Run(len(e.shards), &e.df)
	e.df = diffTask{} // drop the assignment pointer after the region
	e.joinBoundaryWorkers(len(e.shards))
}

// diffTask scans one vertex-range shard for assignment changes,
// re-examining changed vertices and their neighbors.
type diffTask struct {
	e *Engine
	a *partition.Assignment
}

func (t *diffTask) Do(w int) {
	e := t.e
	ws := &e.bws[w]
	ws.add = ws.add[:0]
	ws.pend = ws.pend[:0]
	for q := range ws.psize {
		ws.psize[q] = 0
	}
	ws.dirty = false
	sh := e.shards[w]
	for v := sh.Lo; v < sh.Hi; v++ {
		if t.a.Part[v] == e.prevPart[v] {
			continue
		}
		e.recomputePar(ws, graph.Vertex(v), t.a)
		for _, u := range e.csr.Row(graph.Vertex(v)) {
			e.recomputePar(ws, u, t.a)
		}
	}
}

// sortedBoundary returns the (unordered, duplicate-free) boundary set in
// ascending order — the seed order partition.CutSeededInto/
// CutSeededWeight expect — by the cheaper of two sequential builds
// (par.ScanBeatsSort). When the boundary is a large share of the order
// n, a scan of inBoundary[:n] emits the members already sorted, at O(n);
// otherwise a copy of the small list is sorted, at O(b log b) for b
// members. Ascending order is a property of the set, so both builds
// return the same list at every worker count, and the cut served from it
// stays bit-identical to partition.Cut. The returned slice is
// engine-owned scratch, valid until the next call.
func (e *Engine) sortedBoundary() []graph.Vertex {
	n := e.csr.Order()
	if par.ScanBeatsSort(len(e.boundary), n) {
		out := e.cutBuf[:0]
		for v, in := range e.inBoundary[:n] {
			if in {
				out = append(out, graph.Vertex(v))
			}
		}
		e.cutBuf = out
		return out
	}
	e.cutBuf = append(e.cutBuf[:0], e.boundary...)
	slices.Sort(e.cutBuf)
	return e.cutBuf
}

// recomputePar is recompute with an atomic claim: the stamp CAS admits
// exactly one worker per vertex per sync, so the inBoundary, sizeAttr
// and inPending reads and writes below are race-free. Stamps already
// claimed by the sequential journal pass (which runs before the diff
// region starts) are seen as current and skipped, exactly like the
// sequential path.
func (e *Engine) recomputePar(ws *boundaryWorker, v graph.Vertex, a *partition.Assignment) {
	if !e.stamps.Claim(v) {
		return
	}
	e.moveAttr(v, a, ws.psize)
	e.collectPending(v, a, &ws.pend)
	now := e.isBoundary(v, a)
	if now == e.inBoundary[v] {
		return
	}
	e.inBoundary[v] = now
	if now {
		ws.add = append(ws.add, v)
	} else {
		ws.dirty = true
	}
}
