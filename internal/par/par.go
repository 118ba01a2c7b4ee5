// Package par provides the deterministic fork-join primitives the
// sharded engine kernels are built on: contiguous shard computation
// (Split, SplitByWeight) and a reusable worker Group whose steady-state
// Run costs zero heap allocations.
//
// # Determinism contract
//
// Shards are pure functions of (size, worker count): the same inputs
// always produce the same contiguous ranges, so a kernel that gives
// worker w shard w and merges per-worker results in shard order is
// deterministic by construction. Nothing here depends on scheduling,
// timing, or GOMAXPROCS.
//
// # Allocation contract
//
// A Group grows its per-worker thunks and timing slots to the largest
// worker count seen and then reuses them. Goroutines are spawned through
// pre-built argument-less closures (a `go f(x)` statement allocates its
// argument frame on every call; `go thunk()` does not), so a warm
// Group.Run performs no heap allocation — the property the engine's
// 0 allocs/op steady state is built on.
package par

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Range is one contiguous shard: the half-open interval [Lo, Hi).
type Range struct{ Lo, Hi int }

// Len returns the number of items in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Split appends at most workers near-equal contiguous ranges covering
// [0, n) to dst and returns the extended slice. At least one range is
// always produced (empty when n <= 0), never more than n non-empty
// ones, and the result is a pure function of (n, workers).
func Split(dst []Range, n, workers int) []Range {
	if n <= 0 {
		return append(dst, Range{})
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		dst = append(dst, Range{Lo: w * n / workers, Hi: (w + 1) * n / workers})
	}
	return dst
}

// SplitByWeight appends at most workers contiguous ranges covering
// [0, len(cum)-1) to dst, cutting so every range carries a near-equal
// share of the cumulative weight. cum must be a monotone prefix-sum
// array (cum[i] <= cum[i+1]); a CSR row-pointer array is exactly this
// shape, so sharding vertices with cum = XAdj balances arc work across
// workers even when degrees are skewed. Like Split, the result is a
// pure function of its inputs; individual ranges may be empty.
func SplitByWeight(dst []Range, cum []int32, workers int) []Range {
	n := len(cum) - 1
	if n <= 0 {
		return append(dst, Range{})
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	total := int64(cum[n] - cum[0])
	lo := 0
	for w := 0; w < workers; w++ {
		hi := n
		if w < workers-1 {
			target := int64(cum[0]) + total*int64(w+1)/int64(workers)
			hi = lo
			for hi < n && int64(cum[hi+1]) <= target {
				hi++
			}
			// Take one more vertex when that lands the cut nearer the
			// target — a heavy vertex belongs on whichever side leaves
			// the split more even.
			if hi < n && int64(cum[hi+1])-target < target-int64(cum[hi]) {
				hi++
			}
		}
		dst = append(dst, Range{Lo: lo, Hi: hi})
		lo = hi
	}
	return dst
}

// Stamps is a reusable generation-stamped marker set over a dense index
// range — the claim/dedup primitive every sharded kernel in this
// repository is built on. Advancing the generation (Next) invalidates
// all marks in O(1), so a kernel can dedup or claim per call without an
// O(n) clear; slots grow to the largest index range seen and are then
// reused.
//
// Two marking forms exist with one shared meaning ("the first caller
// per generation wins"):
//
//   - TryMark is the sequential form (plain loads and stores);
//   - Claim is the parallel form: an atomic compare-and-swap admits
//     exactly one worker per slot per generation, so concurrent workers
//     can use a claim to decide *membership* deterministically (who won
//     is scheduling-dependent, but the claimed set is a pure function of
//     the inputs) while keeping the slot's dependent writes race-free.
//
// Mixing the forms across phases of one generation is safe when the
// sequential phase completes before the parallel region starts (the
// fork establishes the happens-before edge) — the pattern the engine's
// journal-then-diff boundary sync uses.
type Stamps struct {
	s   []uint32
	gen uint32
}

// Grow extends the slot range to cover indices [0, n).
func (st *Stamps) Grow(n int) {
	if cap(st.s) < n {
		s := make([]uint32, n)
		copy(s, st.s)
		st.s = s
		return
	}
	for len(st.s) < n {
		st.s = append(st.s, 0)
	}
}

// Next starts a new generation, invalidating every mark. On the (rare)
// 2^32nd call the counter wraps and the slots are cleared so a stamp
// from exactly 2^32 generations ago cannot masquerade as current.
func (st *Stamps) Next() {
	st.gen++
	if st.gen == 0 {
		for i := range st.s {
			st.s[i] = 0
		}
		st.gen = 1
	}
}

// Marked reports whether i has been marked this generation. It must not
// race with concurrent Claim calls on the same slot.
func (st *Stamps) Marked(i int32) bool { return st.s[i] == st.gen }

// TryMark marks i, reporting whether this call was the first this
// generation. Sequential form — callers inside a parallel region must
// use Claim.
func (st *Stamps) TryMark(i int32) bool {
	if st.s[i] == st.gen {
		return false
	}
	st.s[i] = st.gen
	return true
}

// Claim atomically marks i, reporting true for exactly one caller per
// generation — the parallel form of TryMark.
func (st *Stamps) Claim(i int32) bool {
	cur := atomic.LoadUint32(&st.s[i])
	return cur != st.gen && atomic.CompareAndSwapUint32(&st.s[i], cur, st.gen)
}

// ScanBeatsSort is the cost rule for listing k distinct members of a
// dense index span of n slots in ascending order: it reports whether
// scanning the span's membership marks (O(n)) is cheaper than sorting
// the k members (O(k log k)). A scanned slot costs about a quarter of a
// sort comparison, so the scan wins when n ≤ 4·k·⌈log₂(k+1)⌉. Both
// methods produce the same list; the rule only picks the cheaper one.
func ScanBeatsSort(k, n int) bool { return n <= 4*k*bits.Len(uint(k)) }

// Task is one shardable parallel region. Do(w) is invoked exactly once
// per worker index w in [0, workers); implementations shard their input
// by w and must touch only worker-private state plus data-race-free
// shared reads (or atomically claimed slots).
type Task interface {
	Do(w int)
}

// Group is a reusable fork-join executor. The zero value is ready to
// use. A Group is not safe for concurrent Run calls — it belongs to one
// engine (or one scratch), mirroring the engine's own single-threaded
// contract — but the workers it spawns are, of course, concurrent.
//
// Group additionally accumulates per-worker busy time (the wall clock
// each worker spent inside Task.Do, excluding the join wait) across Run
// calls, which the engine rolls up into Stats.WorkerBusy.
type Group struct {
	wg     sync.WaitGroup
	task   Task
	thunks []func()
	times  []time.Duration
}

// grow readies the per-worker thunks and timing slots.
func (g *Group) grow(workers int) {
	for len(g.thunks) < workers {
		w := len(g.thunks)
		g.thunks = append(g.thunks, func() { g.runWorker(w) })
	}
	for len(g.times) < workers {
		g.times = append(g.times, 0)
	}
}

// runWorker executes the current task's shard w on a spawned goroutine.
func (g *Group) runWorker(w int) {
	defer g.wg.Done()
	t0 := time.Now()
	g.task.Do(w)
	g.times[w] += time.Since(t0)
}

// Run executes t.Do(w) for every w in [0, workers): workers-1 spawned
// goroutines plus the calling goroutine as worker 0, returning after
// all complete. workers <= 1 runs t.Do(0) inline with no goroutines —
// the exact sequential path. A warm Run allocates nothing.
func (g *Group) Run(workers int, t Task) {
	if workers < 1 {
		workers = 1
	}
	g.grow(workers)
	if workers == 1 {
		t0 := time.Now()
		t.Do(0)
		g.times[0] += time.Since(t0)
		return
	}
	g.task = t
	g.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go g.thunks[w]()
	}
	t0 := time.Now()
	t.Do(0)
	g.times[0] += time.Since(t0)
	g.wg.Wait()
	g.task = nil
}

// Times returns the accumulated per-worker busy durations since the
// last Reset. The slice is owned by the Group and valid until the next
// Run; index w is worker w.
func (g *Group) Times() []time.Duration { return g.times }

// Reset zeroes the per-worker busy-time accumulators.
func (g *Group) Reset() {
	for i := range g.times {
		g.times[i] = 0
	}
}
