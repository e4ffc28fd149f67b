package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// ctxCheckMask throttles context polling on the traversal hot path: the
// deadline is re-checked every 64 visited nodes, so an expired query
// abandons a deep local traversal within a bounded number of pops
// without paying an atomic load per node.
const ctxCheckMask = 63

// queryCtx is the per-query execution context of the k-nearest engine:
// the scratch result set, the explicit visit stack, the remote subtrees
// the local traversal ran into, the work counters reported back with
// the response, and the collector state for parallel fan-outs. Contexts
// are pooled — a query borrows one, traverses, copies its result onto
// the wire and releases it — so steady-state searches allocate only the
// response slice and the fan-out messages.
type queryCtx struct {
	rs      resultSet
	stack   []knnFrame
	pending []knnFrame        // remote subtrees deferred until the local bound is final
	fp      []kdtree.Neighbor // scratch Rs snapshot for probe-miss detection
	steps   int64             // visited-node counter driving the periodic ctx check

	// stats accumulates this partition's own traversal work plus the
	// folded stats of every downstream response. Plain increments are
	// only performed by the traversal goroutine strictly before the
	// fan-out goroutines launch; the goroutines fold under mu.
	stats queryStats

	mu       sync.Mutex
	wg       sync.WaitGroup
	partials [][]kdtree.Neighbor
	err      error
}

// knnFrame is one pending subtree visit. guardSq >= 0 guards the
// visit: no point of the subtree can lie closer to the query than
// sqrt(guardSq), so the subtree is skipped when the result ball no
// longer reaches it. The guard is the exact squared min distance from
// the query to the subtree's bounding box (falling back to the squared
// splitting-plane distance when a remote region is unknown, or always
// under Config.PlaneGuardOnly) and is evaluated at pop time — after
// the nearer sibling's subtree has been fully explored — which is the
// backtracking condition of §III-B.3 (visit the unexplored side when
// Rs.length() < K or the worst kept distance still reaches the
// region). We skip only when the guard is *strictly* beyond the worst
// kept candidate: at exact equality a point on the region's boundary
// could tie the k-th best with a smaller ID, and every guard
// (plane or box, sequential or fan-out) must keep the same winner for
// all modes to stay bit-identical. guardSq < 0 marks an unconditional
// visit.
//
// A far child is pushed lazy: guardSq then holds only the squared
// splitting-plane distance, a lower bound of the exact guard, and the
// box min-distance is computed at pop time only where it can change
// something — when the plane bound alone does not prune and the result
// set is full, or when the frame leaves the partition or reaches a
// tombstone, whose hop must carry the exact guard. Either way the
// prune decision equals the eager guard's.
type knnFrame struct {
	ref     childRef
	guardSq float64
	lazy    bool
	// home marks a subtree the traversal reached unconditionally — the
	// query's own descent path lies in it. Deferred home subtrees are
	// re-guarded by their region like any sibling (a provably-worse one
	// is pruned outright), but while one survives it keeps the paper's
	// probe priority: the partition holding the query's own region is
	// probed first, which tightens the ball best.
	home bool
}

var queryCtxPool = sync.Pool{New: func() any { return new(queryCtx) }}

func getQueryCtx(k int, seed []kdtree.Neighbor) *queryCtx {
	c := queryCtxPool.Get().(*queryCtx)
	c.rs.reset(k, seed)
	c.stack = c.stack[:0]
	c.pending = c.pending[:0]
	c.steps = 0
	c.stats = queryStats{}
	c.err = nil
	return c
}

func putQueryCtx(c *queryCtx) {
	for i := range c.partials {
		c.partials[i] = nil // drop wire slices; only the scratch is pooled
	}
	c.partials = c.partials[:0]
	for i := range c.fp {
		c.fp[i] = kdtree.Neighbor{} // likewise: snapshots alias result points
	}
	c.fp = c.fp[:0]
	queryCtxPool.Put(c)
}

func (c *queryCtx) push(ref childRef, guardSq float64, lazy bool) {
	c.stack = append(c.stack, knnFrame{ref: ref, guardSq: guardSq, lazy: lazy})
}

// pruned reports the backtracking prune: the result ball cannot reach
// a region no point of which lies closer than sqrt(guardSq).
func (c *queryCtx) pruned(guardSq float64) bool {
	return guardSq >= 0 && c.rs.Full() && c.rs.Worst() < guardSq
}

// snapshotRs copies the current result set into the scratch
// fingerprint buffer, for comparing against the post-merge set.
func (c *queryCtx) snapshotRs() {
	c.fp = append(c.fp[:0], c.rs.Items...)
}

// noteMiss counts a probe miss when the downstream reply left the
// result set exactly as the snapshot it was seeded with: the remote
// region was probed and contributed nothing — the work a tighter
// guard would have skipped outright. Each call is judged against its
// own seed, never against what other partials found, so the count is
// deterministic regardless of fan-out completion order.
func (c *queryCtx) noteMiss() {
	if neighborsEqual(c.fp, c.rs.Items) {
		c.stats.Misses++
	}
}

// neighborsEqual compares two result slices entry-by-entry on the
// (ID, Dist) identity the equivalence contract is stated in.
func neighborsEqual(a, b []kdtree.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Point.ID != b[i].Point.ID || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

func (c *queryCtx) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

func (c *queryCtx) collect(items []kdtree.Neighbor, st queryStats, miss bool) {
	c.mu.Lock()
	c.partials = append(c.partials, items)
	c.stats.fold(st)
	if miss {
		c.stats.Misses++
	}
	c.mu.Unlock()
}

// checkCtx polls ctx every ctxCheckMask+1 visited nodes. It returns a
// non-nil error once the query is cancelled or past its deadline.
func (c *queryCtx) checkCtx(ctx context.Context) error {
	c.steps++
	if c.steps&ctxCheckMask == 0 {
		return ctx.Err()
	}
	return nil
}

// handleKNN implements the distributed k-nearest search (§III-B.3).
// The request carries the caller's current result set Rs (squared
// distances, see knnReq); the local traversal continues the
// backtracking algorithm over an explicit visit stack. Remote subtrees
// are handled two ways:
//
//   - Seq mode: the paper's sequential protocol — a synchronous fabric
//     call forwards Rs and adopts the merged set before continuing, so
//     later pruning uses the tightest possible bound.
//   - Default (parallel): remote subtrees whose guard still crosses the
//     search ball are deferred until the local traversal finishes, then
//     re-checked against the now-final local bound, grouped by hosting
//     partition, and dispatched as one goroutine-backed fabric call per
//     partition (at most M−1 per wave), mirroring the range search's
//     border-node navigation (§III-B.4). The returned partial sets are
//     merged under the (Dist, ID) tie-break ordering.
//
// Both modes return identical result sets: the snapshot seed and the
// deferred guard re-check only change how much work pruning saves (a
// remote may examine more candidates, never fewer), and every
// candidate either beats the final k-th best or is discarded on merge.
//
// Cancellation is checked between traversal strides (every 64 node
// pops), before each remote hop, and between fan-out waves; the fabric
// calls themselves carry ctx, so an expired query abandons in-flight
// partition replies at the transport instead of waiting them out. The
// wait on the fan-out WaitGroup is therefore bounded by the fabric's
// cancellation latency, which keeps the pooled context safe to reuse.
//
// The read lock is held for the whole local traversal, so references
// cannot go stale mid-search; nested calls only ever go downstream in
// the partition DAG, so locking cannot cycle. The fan-out runs after
// the lock is released, exactly like handleRange's collector.
func (p *partition) handleKNN(ctx context.Context, r knnReq) (any, error) {
	if r.K <= 0 {
		return knnResp{}, nil
	}
	c := getQueryCtx(r.K, r.Rs)
	defer putQueryCtx(c)
	p.mu.RLock()
	start := time.Now()
	//semtree:allow lockedcall: Seq-mode remote hops only descend the partition DAG (child partitions never call back up), so the read lock cannot cycle
	err := p.knnTraverse(ctx, r, c)
	elapsed := time.Since(start)
	p.mu.RUnlock()
	if err == nil && c.stats.Msgs == 0 && c.stats.Nodes > 0 {
		// Hop-free traversal: pure local compute, the cost model's
		// per-node price observation (in Seq mode the traversal embeds
		// synchronous hops, which Msgs exposes — those runs are skipped).
		p.t.model.observeCompute(elapsed, c.stats.Nodes)
	}
	if err == nil {
		p.dispatchPending(ctx, r, c)
	}
	c.wg.Wait()
	if err == nil {
		err = c.err
	}
	if err != nil {
		return nil, err
	}
	for _, partial := range c.partials {
		c.rs.merge(partial)
	}
	st := c.stats
	st.Parts++ // this partition's own handler execution
	return knnResp{Rs: c.rs.export(), Stats: st}, nil
}

func (p *partition) knnTraverse(ctx context.Context, r knnReq, c *queryCtx) error {
	if len(r.Entries) > 0 {
		// Fan-out continuation: seed the stack with every guarded
		// entry, reversed so the first entry pops first.
		for i := len(r.Entries) - 1; i >= 0; i-- {
			c.push(childRef{Part: p.id, Node: r.Entries[i].Node}, r.Entries[i].GuardSq, false)
		}
	} else {
		c.push(childRef{Part: p.id, Node: r.Node}, -1, false)
	}
	for len(c.stack) > 0 {
		f := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		if c.pruned(f.guardSq) {
			continue // backtracking prune: the result ball cannot reach the region
		}
		if f.lazy && (c.rs.Full() || !p.local(f.ref) || p.nodes[f.ref.Node].moved) {
			// The plane bound did not prune; the exact region guard
			// (never looser) may, and a hop must carry it.
			f.guardSq = p.guardSq(f.ref, r.Query, f.guardSq)
			if c.pruned(f.guardSq) {
				continue
			}
		}
		if err := c.checkCtx(ctx); err != nil {
			return err
		}
		c.stats.Nodes++
		if !p.local(f.ref) {
			if err := p.remoteKNN(ctx, f.ref, f.guardSq, r, c); err != nil {
				return err
			}
			continue
		}
		n := &p.nodes[f.ref.Node]
		switch {
		case n.moved:
			if err := p.remoteKNN(ctx, n.fwd, f.guardSq, r, c); err != nil {
				return err
			}
		case n.leaf:
			c.stats.Buckets++
			c.stats.Dists += int64(n.size())
			p.scanLeaf(n, r.Query, &c.rs)
		default:
			near, far := n.left, n.right
			if r.Query[n.splitDim] > n.splitVal {
				near, far = far, near
			}
			plane := r.Query[n.splitDim] - n.splitVal
			// LIFO: far pops only after near's whole subtree has been
			// explored, guarded by its region's exact min-distance
			// (plane² fallback for an unknown remote region), which the
			// pop resolves lazily from the plane bound.
			c.push(far, plane*plane, true)
			c.push(near, -1, false)
		}
	}
	return nil
}

// scanLeaf offers every point of a leaf to rs, walking the leaf's
// coordinate block row by row. Once the set is full, a point strictly
// beyond the k-th best is dropped without an Offer — exactly the points
// Offer would reject; ties still reach it for the ID tie-break. Kept
// points alias their row of the block, which stays valid after the
// read lock is released (see pnode).
func (p *partition) scanLeaf(n *pnode, q []float64, rs *resultSet) {
	dim := p.t.cfg.Dim
	worst := rs.Worst()
	for i, id := range n.ids {
		c := n.row(i, dim)
		d := euclideanSq(q, c)
		if d > worst {
			continue
		}
		rs.Offer(kdtree.Neighbor{Point: kdtree.Point{Coords: c, ID: id}, Dist: d})
		worst = rs.Worst()
	}
}

// remoteKNN hands a remote subtree off. In Seq mode the call is
// synchronous and Rs travels with the request; the merged set replaces
// ours and tightens all later pruning, the paper's protocol. Otherwise
// the subtree joins the pending list — with the guard it already
// passed, so the final local bound can still rule it out — for the
// per-partition fan-out after the local traversal.
func (p *partition) remoteKNN(ctx context.Context, ref childRef, guardSq float64, r knnReq, c *queryCtx) error {
	// A near-side subtree reaches here unconditional (guardSq < 0) —
	// the traversal had to descend toward it — but crossing the
	// partition boundary is a message either way, and the remote
	// region's exact min-distance can rule the hop out like any guarded
	// sibling. Re-guard it with its cached box; it stays unconditional
	// when the region is unknown, or under the plane-guard ablation,
	// whose baseline must keep the paper's semantics.
	home := guardSq < 0
	if home && !p.t.cfg.PlaneGuardOnly {
		if minSq, ok := p.childBoxMinSq(ref, r.Query); ok {
			guardSq = minSq
		}
	}
	if c.pruned(guardSq) {
		return nil // provably beyond the k-th best: no message spent
	}
	if r.Seq {
		c.snapshotRs()
		resp, err := p.t.callCtx(ctx, p.id, ref.Part,
			knnReq{Node: ref.Node, Query: r.Query, K: r.K, Rs: c.rs.Items, Seq: true})
		if err != nil {
			return err
		}
		kr := resp.(knnResp)
		c.rs.replace(kr.Rs)
		c.stats.fold(kr.Stats)
		c.noteMiss()
		return nil
	}
	c.pending = append(c.pending, knnFrame{ref: ref, guardSq: guardSq, home: home})
	return nil
}

// dispatchPending resolves the remote subtrees the local traversal ran
// into, in three steps:
//
//  1. Re-check every deferred subtree against the now-final local bound
//     and group the survivors by hosting partition (one message per
//     partition — each wave stays within the paper's M−1 parallel
//     operations, and the remote side prunes across its entries with
//     its own evolving bound).
//  2. Probe the most promising partition — the one holding the subtree
//     whose region has the smallest exact min-distance to the query
//     (true min-distance ranking; the splitting-plane distance is only
//     the fallback for an unknown region) — *synchronously*, exactly
//     like the sequential protocol's first hop. Its merged set tightens
//     the search ball, which usually rules most other partitions out;
//     when only one partition qualifies this degrades to the sequential
//     protocol and costs nothing extra.
//  3. Fan the remaining partitions out on goroutines against a snapshot
//     of the tightened Rs, and let handleKNN merge the partials.
//
// The context is re-checked before each wave; once it is done no
// further messages are dispatched and the error surfaces via c.err.
// Returning a dispatch error is handled by the caller via c.err.
func (p *partition) dispatchPending(ctx context.Context, r knnReq, c *queryCtx) {
	if len(c.pending) == 0 {
		return
	}
	groups := make(map[cluster.NodeID][]knnEntry)
	minGuard := make(map[cluster.NodeID]float64)
	for _, f := range c.pending {
		if c.pruned(f.guardSq) {
			continue
		}
		guard := f.guardSq
		if f.home || guard < 0 {
			// The query's own region lives there: a surviving home
			// subtree keeps first probe priority regardless of its
			// re-guard — it tightens the ball best.
			guard = math.Inf(-1)
		}
		if cur, ok := minGuard[f.ref.Part]; !ok || guard < cur {
			minGuard[f.ref.Part] = guard
		}
		groups[f.ref.Part] = append(groups[f.ref.Part],
			knnEntry{Node: f.ref.Node, GuardSq: f.guardSq})
	}
	if len(groups) == 0 {
		return
	}
	if err := ctx.Err(); err != nil {
		c.fail(err)
		return
	}
	probe := cluster.NodeID(-1)
	for part, guard := range minGuard {
		if probe < 0 || guard < minGuard[probe] ||
			(guard == minGuard[probe] && part < probe) {
			probe = part
		}
	}
	c.snapshotRs()
	resp, err := p.t.callCtx(ctx, p.id, probe,
		knnReq{Query: r.Query, K: r.K, Rs: c.rs.Items, Entries: groups[probe]})
	if err != nil {
		c.fail(err)
		return
	}
	kr := resp.(knnResp)
	c.rs.replace(kr.Rs)
	c.stats.fold(kr.Stats)
	c.noteMiss()
	delete(groups, probe)

	if err := ctx.Err(); err != nil {
		if len(groups) > 0 {
			c.fail(err)
		}
		return
	}
	var seed []kdtree.Neighbor
	for part, entries := range groups {
		kept := entries[:0]
		for _, e := range entries {
			if c.pruned(e.GuardSq) {
				continue // the probe's tightened ball rules it out
			}
			kept = append(kept, e)
		}
		if len(kept) == 0 {
			continue
		}
		if seed == nil {
			seed = c.rs.export()
		}
		c.wg.Add(1)
		go func(part cluster.NodeID, entries []knnEntry) {
			defer c.wg.Done()
			resp, err := p.t.callCtx(ctx, p.id, part,
				knnReq{Query: r.Query, K: r.K, Rs: seed, Entries: entries})
			if err != nil {
				c.fail(err)
				return
			}
			kr := resp.(knnResp)
			// A wave reply is judged a miss against the shared seed it
			// was sent — not against the evolving merged set — so the
			// count does not depend on completion order.
			c.collect(kr.Rs, kr.Stats, neighborsEqual(seed, kr.Rs))
		}(part, kept)
	}
}

// handleRange implements the distributed range search (§III-B.4).
// Descending, both children are visited when |P[SI] − Sv| <= D; "if the
// current node is a border node, the navigation is performed in a
// parallel way": remote subtrees are queried on their own goroutines
// while the local side proceeds, and the partial result sets are merged
// on the way back. Matches carry squared distances and arrive unsorted;
// Tree.RangeSearch applies the single sort and sqrt (see rangeResp).
// Cancellation follows the k-NN handler's scheme: periodic checks in
// the local traversal, ctx-carrying fabric calls for the fan-outs.
func (p *partition) handleRange(ctx context.Context, r rangeReq) (any, error) {
	if r.D < 0 {
		return rangeResp{}, nil
	}
	col := &rangeCollector{}
	p.mu.RLock()
	//semtree:allow lockedcall: remote range hops only descend the partition DAG, so the read lock cannot cycle
	p.rangeVisit(ctx, r.Node, r.Query, r.D, col)
	p.mu.RUnlock()
	col.wg.Wait()
	if col.err != nil {
		return nil, col.err
	}
	st := col.local
	st.merge(col.remote)
	st.Parts++
	return rangeResp{Neighbors: col.out, Stats: st}, nil
}

// rangeCollector accumulates matches and work counters from the local
// traversal and any parallel remote fan-outs. Unlike the k-NN fan-out,
// remote range calls overlap the local traversal, so the counters are
// split: local is owned by the traversal goroutine, remote is folded
// under mu by the fan-out goroutines, and the two are combined only
// after the WaitGroup drains. done flips on the first failure
// (including ctx expiry) and short-circuits the rest of the traversal,
// so a cancelled range query stops descending instead of finishing the
// local walk.
type rangeCollector struct {
	steps int64
	local queryStats // traversal goroutine only
	done  atomic.Bool

	mu     sync.Mutex
	wg     sync.WaitGroup
	remote queryStats // downstream responses, folded under mu
	out    []kdtree.Neighbor
	err    error
}

func (c *rangeCollector) add(ns []kdtree.Neighbor) {
	c.mu.Lock()
	c.out = append(c.out, ns...)
	c.mu.Unlock()
}

func (c *rangeCollector) collect(ns []kdtree.Neighbor, st queryStats) {
	c.mu.Lock()
	c.out = append(c.out, ns...)
	c.remote.fold(st)
	c.mu.Unlock()
}

func (c *rangeCollector) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.done.Store(true)
}

func (p *partition) rangeVisit(ctx context.Context, idx int32, q []float64, d float64, col *rangeCollector) {
	if col.done.Load() {
		return // a failure or ctx expiry already aborted the query
	}
	col.steps++
	if col.steps&ctxCheckMask == 0 {
		if err := ctx.Err(); err != nil {
			col.fail(err)
			return
		}
	}
	col.local.Nodes++
	n := &p.nodes[idx]
	if n.moved {
		p.remoteRange(ctx, n.fwd, q, d, col, false)
		return
	}
	if n.leaf {
		var local []kdtree.Neighbor
		dd := d * d
		dim := p.t.cfg.Dim
		col.local.Buckets++
		col.local.Dists += int64(n.size())
		for i, id := range n.ids {
			c := n.row(i, dim)
			if sq := euclideanSq(q, c); sq <= dd {
				local = append(local, kdtree.Neighbor{Point: kdtree.Point{Coords: c, ID: id}, Dist: sq})
			}
		}
		if local != nil {
			col.add(local)
		}
		return
	}
	// Border node (the ball crosses the splitting plane): both subtrees
	// qualify on the plane bound, remote ones in parallel. The region
	// guard then skips any qualifying child whose bounding box provably
	// holds no match — the exact min-distance form of the same test —
	// unless the ablation pins the plane bound.
	border := math.Abs(q[n.splitDim]-n.splitVal) <= d
	left := border || q[n.splitDim] <= n.splitVal
	right := border || q[n.splitDim] > n.splitVal
	if !p.t.cfg.PlaneGuardOnly {
		dd := d * d
		if left {
			if minSq, ok := p.childBoxMinSq(n.left, q); ok && minSq > dd {
				left = false
			}
		}
		if right {
			if minSq, ok := p.childBoxMinSq(n.right, q); ok && minSq > dd {
				right = false
			}
		}
	}
	if left {
		p.rangeChild(ctx, n.left, q, d, col, border)
	}
	if right {
		p.rangeChild(ctx, n.right, q, d, col, border)
	}
}

func (p *partition) rangeChild(ctx context.Context, ref childRef, q []float64, d float64, col *rangeCollector, parallel bool) {
	if p.local(ref) {
		p.rangeVisit(ctx, ref.Node, q, d, col)
		return
	}
	p.remoteRange(ctx, ref, q, d, col, parallel)
}

func (p *partition) remoteRange(ctx context.Context, ref childRef, q []float64, d float64, col *rangeCollector, parallel bool) {
	call := func() {
		resp, err := p.t.callCtx(ctx, p.id, ref.Part, rangeReq{Node: ref.Node, Query: q, D: d})
		if err != nil {
			col.fail(err)
			return
		}
		rr := resp.(rangeResp)
		col.collect(rr.Neighbors, rr.Stats)
	}
	if !parallel {
		call()
		return
	}
	col.wg.Add(1)
	go func() {
		defer col.wg.Done()
		call()
	}()
}

// euclideanSq is the shared distance kernel (kdtree.EuclideanSq).
// Search runs entirely on squared distances — ordering and the
// backtracking bound are unchanged because squaring is monotone — and
// the single sqrt per result is deferred to the client boundary.
func euclideanSq(q, p []float64) float64 { return kdtree.EuclideanSq(q, p) }
