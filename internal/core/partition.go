package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// pnode is one tree node hosted by a partition. Exactly one of three
// states holds:
//
//   - leaf:    data node, ids/coords valid;
//   - routing: splitDim/splitVal/left/right valid — an *edge node* when
//     a child lives on another partition, *internal* otherwise (§III-B.1);
//   - moved:   tombstone left behind by the build-partition algorithm;
//     fwd is the direct link to the adopting partition, so in-flight
//     operations that resolved this node keep working.
//
// lo/hi is the node's region metadata: the exact bounding box of every
// point in its *logical* subtree — including points hosted by other
// partitions beneath cross-partition children — maintained exactly
// like the sequential tree's (expanded on the insert descent path,
// recomputed from buckets on splits, shipped with relocations). The
// box is the k-NN/range pruning guard; a tombstone's box is cleared
// (its region lives on in the parent's edge and the remote-box cache).
type pnode struct {
	leaf  bool
	moved bool
	// migrating marks a leaf the background repacker is draining to
	// another partition: it keeps serving reads and absorbing inserts
	// (the deltas forward before commit), but splits are deferred and
	// spills skip it until the migration commits or aborts.
	migrating bool
	fwd       childRef
	splitDim  int32
	splitVal  float64
	left      childRef
	right     childRef
	// A leaf's bucket is stored as a structure of arrays: ids[i] is
	// point i's ID and coords holds the points' coordinates row-major,
	// Dim values per point, in one contiguous block the leaf scan walks
	// linearly. Inserts append in place; a written slot is never
	// overwritten — a split, adoption, install or restore gives the
	// node a fresh block instead — so a row handed out by row() stays
	// valid and unchanged after the lock is released.
	ids    []uint64
	coords []float64
	lo, hi []float64
}

// size returns the number of points a leaf holds.
func (n *pnode) size() int { return len(n.ids) }

// row returns point i's coordinates as a capacity-capped view of the
// block: an append through the view cannot reach the next row.
func (n *pnode) row(i, dim int) []float64 {
	o := i * dim
	return n.coords[o : o+dim : o+dim]
}

// appendPoint adds one point to the leaf's block in place.
func (n *pnode) appendPoint(pt kdtree.Point) {
	n.ids = append(n.ids, pt.ID)
	n.coords = append(n.coords, pt.Coords...)
}

// setPoints gives the leaf a fresh block holding copies of pts (nil
// when pts is empty). Callers have validated every point's dimension.
func (n *pnode) setPoints(pts []kdtree.Point, dim int) {
	n.ids, n.coords = nil, nil
	if len(pts) == 0 {
		return
	}
	n.ids = make([]uint64, len(pts))
	n.coords = make([]float64, 0, len(pts)*dim)
	for i, pt := range pts {
		n.ids[i] = pt.ID
		n.coords = append(n.coords, pt.Coords...)
	}
}

// points converts the leaf to the []kdtree.Point form messages and
// snapshots carry; the Coords alias the block (see row).
func (n *pnode) points(dim int) []kdtree.Point {
	if len(n.ids) == 0 {
		return nil
	}
	out := make([]kdtree.Point, len(n.ids))
	for i, id := range n.ids {
		out[i] = kdtree.Point{Coords: n.row(i, dim), ID: id}
	}
	return out
}

// partition is one fabric-hosted piece of the SemTree. Nodes live in an
// arena addressed by index; cross-partition children are childRefs with
// a foreign Part. Navigation takes the read lock; mutation (insert,
// split, spill) the write lock. Locks are never held while waiting on
// an *upstream* partition — call edges follow the partition DAG, so
// lock acquisition cannot cycle.
type partition struct {
	t  *Tree
	id cluster.NodeID

	mu     sync.RWMutex
	nodes  []pnode
	points int

	// remoteBoxes caches the bounding box of every cross-partition
	// subtree this partition links to, keyed by the edge's childRef.
	// Entries are installed when a subtree registers (buildPartition's
	// adopt handshake, rebalance's trunk install) and expanded when an
	// insert forwards through the edge, so the search guard for a
	// remote child is the same exact min-distance bound a local child
	// gets. Guarded by mu like the arena; boxes are owned copies, never
	// aliased with another partition's (the remote side keeps expanding
	// its own).
	remoteBoxes map[childRef]box

	// boxWork counts box-maintenance writes (path-box growth plus
	// remote-edge cache expansions). Guarded by mu: every writer holds
	// the write lock, handleStats reads under the read lock.
	boxWork int64

	navSteps atomic.Int64 // nodes traversed by insert descents
	inserts  atomic.Int64 // insertions applied locally
	spills   atomic.Int64 // build-partition runs
}

// handle dispatches one fabric message. Only the query handlers consume
// the caller's context: mutating operations (insert, adopt, rebalance
// plumbing) run to completion once delivered, so a cancelled client
// never leaves the tree half-modified.
func (p *partition) handle(ctx context.Context, from cluster.NodeID, req any) (any, error) {
	switch r := req.(type) {
	case insertReq:
		return p.handleInsert(r)
	case insertBatchReq:
		return p.handleInsertBatch(r)
	case bulkAddReq:
		return p.handleBulkAdd(r)
	case graftReq:
		return p.handleBulkGraft(r)
	case snapshotReq:
		return p.handleSnapshot()
	case restoreReq:
		return p.handleRestore(r)
	case knnReq:
		return p.handleKNN(ctx, r)
	case rangeReq:
		return p.handleRange(ctx, r)
	case adoptReq:
		return p.handleAdopt(r)
	case statsReq:
		return p.handleStats()
	case heightReq:
		return p.handleHeight(r)
	case collectReq:
		return p.handleCollect(r)
	case resetReq:
		return p.handleReset(r)
	case installReq:
		return p.handleInstall(r)
	case repackScanReq:
		return p.handleRepackScan()
	case migrateReq:
		return p.handleMigrate(r)
	default:
		return nil, fmt.Errorf("core: partition %d: unknown request %T", p.id, req)
	}
}

// local reports whether ref points into this partition (Cp == Childp).
func (p *partition) local(ref childRef) bool { return ref.Part == p.id }

// addNode appends a node to the arena; callers hold the write lock.
func (p *partition) addNode(n pnode) int32 {
	p.nodes = append(p.nodes, n)
	return int32(len(p.nodes) - 1)
}

// descend walks from idx towards the leaf that should hold pt, under
// at least the read lock. It stops at a local leaf (remote == false)
// or at the first reference leaving the partition (remote == true),
// appending every non-tombstone node it routes through to path — the
// nodes whose bounding boxes must grow when the insert lands (routing
// decisions are immutable once made, so a recorded path stays the
// point's route even if a later lock upgrade raced a leaf split).
func (p *partition) descend(idx int32, pt []float64, path *[]int32) (leafIdx int32, ref childRef, remote bool) {
	steps := int64(0)
	defer func() { p.navSteps.Add(steps) }()
	for {
		n := &p.nodes[idx]
		steps++
		if n.moved {
			return 0, n.fwd, true
		}
		*path = append(*path, idx)
		if n.leaf {
			return idx, childRef{}, false
		}
		var c childRef
		if pt[n.splitDim] <= n.splitVal {
			c = n.left
		} else {
			c = n.right
		}
		if !p.local(c) {
			return 0, c, true
		}
		idx = c.Node
	}
}

// handleInsert implements the distributed insertion algorithm
// (§III-B.1). Navigation runs under the read lock; the leaf mutation
// re-validates under the write lock (a concurrent split or spill may
// have changed the node in between) and loops or forwards as needed.
// No lock is held while forwarding to another partition. Whatever the
// outcome — local landing or cross-partition forward — every box on
// the descent path expands to include the point (the point belongs to
// each of those logical subtrees), and a forward additionally grows
// the cached box of the edge it leaves through. Expansion precedes the
// forward, so on a lossy or failing fabric a dropped point can leave
// boxes covering a point that never landed: dilation is always
// pruning-safe (a looser box only skips less), and exactness — what
// the consistency checks assert — holds under reliable delivery,
// matching the batch pipeline's at-most-once contract (a drop already
// loses the point itself).
func (p *partition) handleInsert(r insertReq) (any, error) {
	forward := func(ref childRef) error {
		_, err := p.t.call(p.id, ref.Part, insertReq{Node: ref.Node, Point: r.Point})
		return err
	}
	idx := r.Node
	var path []int32
	for {
		p.mu.RLock()
		leafIdx, ref, remote := p.descend(idx, r.Point.Coords, &path)
		needsExpand := remote && p.forwardNeedsExpand(path, ref, r.Point.Coords)
		p.mu.RUnlock()
		if remote {
			// Warm path: a point inside every region it routes through
			// forwards without the write lock.
			if needsExpand {
				p.mu.Lock()
				p.expandPathBoxes(path, r.Point.Coords)
				p.expandRemoteBox(ref, r.Point.Coords)
				p.mu.Unlock()
			}
			return insertResp{}, forward(ref)
		}

		p.mu.Lock()
		n := &p.nodes[leafIdx]
		switch {
		case n.moved:
			ref := n.fwd
			p.expandPathBoxes(path, r.Point.Coords)
			p.expandRemoteBox(ref, r.Point.Coords)
			p.mu.Unlock()
			return insertResp{}, forward(ref)
		case !n.leaf:
			// A concurrent insert split this leaf; resume from it. The
			// path keeps accumulating — descend re-appends leafIdx, and
			// box expansion is idempotent.
			idx = leafIdx
			p.mu.Unlock()
			continue
		}
		p.expandPathBoxes(path, r.Point.Coords)
		n.appendPoint(r.Point)
		p.points++
		p.inserts.Add(1)
		if n.size() > p.t.cfg.BucketSize {
			p.splitLeaf(leafIdx)
		}
		spill := p.capacityExceededLocked()
		p.mu.Unlock()
		if spill {
			p.buildPartition()
		}
		return insertResp{}, nil
	}
}

// handleInsertBatch applies a batch of pipelined inserts. The whole
// batch runs under one write lock (no per-point lock churn and no
// re-validation needed); entries whose descent leaves the partition are
// re-grouped per target and forwarded as one message each, after the
// lock is released.
func (p *partition) handleInsertBatch(r insertBatchReq) (any, error) {
	var forwards map[cluster.NodeID][]batchEntry
	var path []int32
	p.mu.Lock()
	for _, e := range r.Entries {
		path = path[:0]
		leafIdx, ref, remote := p.descend(e.Node, e.Point.Coords, &path)
		p.expandPathBoxes(path, e.Point.Coords)
		if remote {
			p.expandRemoteBox(ref, e.Point.Coords)
			if forwards == nil {
				forwards = make(map[cluster.NodeID][]batchEntry)
			}
			forwards[ref.Part] = append(forwards[ref.Part], batchEntry{Node: ref.Node, Point: e.Point})
			continue
		}
		n := &p.nodes[leafIdx]
		n.appendPoint(e.Point)
		p.points++
		p.inserts.Add(1)
		if n.size() > p.t.cfg.BucketSize {
			p.splitLeaf(leafIdx)
		}
	}
	spill := p.capacityExceededLocked()
	p.mu.Unlock()
	for part, entries := range forwards {
		// One-way, at-most-once: a drop loses the batch.
		_ = p.t.fabric.Send(p.id, part, insertBatchReq{Entries: entries})
	}
	if spill {
		p.buildPartition()
	}
	return insertResp{}, nil
}

// splitLeaf turns a saturated leaf into a routing node with two local
// leaf children (Figure 1). Callers hold the write lock.
func (p *partition) splitLeaf(idx int32) {
	if p.nodes[idx].migrating {
		// A migration is draining this bucket; splitting would detach
		// the delta stream. The adopting side splits on arrival.
		return
	}
	dims := p.t.cfg.Dim
	leaf := &p.nodes[idx]
	var dim int
	var splitVal float64
	var ok bool
	if p.t.cfg.Unbalanced {
		dim, splitVal, ok = chainSplit(leaf.coords, dims)
	}
	if !ok {
		dim, splitVal, ok = medianSplit(leaf.coords, dims)
	}
	if !ok {
		return // all points identical: oversized leaf stands
	}
	nl := 0
	for o := dim; o < len(leaf.coords); o += dims {
		if leaf.coords[o] <= splitVal {
			nl++
		}
	}
	nr := leaf.size() - nl
	l := pnode{leaf: true, ids: make([]uint64, 0, nl), coords: make([]float64, 0, nl*dims)}
	r := pnode{leaf: true, ids: make([]uint64, 0, nr), coords: make([]float64, 0, nr*dims)}
	for i, id := range leaf.ids {
		c := leaf.row(i, dims)
		side := &r
		if c[dim] <= splitVal {
			side = &l
		}
		side.appendPoint(kdtree.Point{Coords: c, ID: id})
		side.expandBox(c)
	}
	li := p.addNode(l)
	ri := p.addNode(r)
	n := &p.nodes[idx] // re-take: addNode may have grown the arena
	n.leaf = false
	n.ids, n.coords = nil, nil
	n.splitDim = int32(dim)
	n.splitVal = splitVal
	n.left = childRef{Part: p.id, Node: li}
	n.right = childRef{Part: p.id, Node: ri}
}

// medianSplit picks the widest dimension of a row-major block of
// dims-wide points and a value separating it (median when it
// separates, midpoint otherwise).
func medianSplit(coords []float64, dims int) (dim int, splitVal float64, ok bool) {
	bestSpread := 0.0
	var lo, hi float64
	for d := 0; d < dims; d++ {
		mn, mx := coords[d], coords[d]
		for o := d + dims; o < len(coords); o += dims {
			v := coords[o]
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		if spread := mx - mn; spread > bestSpread {
			bestSpread, dim, lo, hi, ok = spread, d, mn, mx, true
		}
	}
	if !ok {
		return 0, 0, false
	}
	vals := make([]float64, 0, len(coords)/dims)
	for o := dim; o < len(coords); o += dims {
		vals = append(vals, coords[o])
	}
	//semtree:allow boundaryonce: construction-time median selection when splitting a leaf; not on the query-result path
	sort.Float64s(vals)
	med := vals[(len(vals)-1)/2]
	if med < hi {
		return dim, med, true
	}
	return dim, (lo + hi) / 2, true
}

// chainSplit is the degenerate split policy behind the paper's "totally
// unbalanced" curves: split on dimension 0 at the predecessor of the
// maximum, so monotonically increasing inserts grow a right-leaning
// chain. ok is false when dimension 0 has no spread.
func chainSplit(coords []float64, dims int) (dim int, splitVal float64, ok bool) {
	mx := coords[0]
	for o := dims; o < len(coords); o += dims {
		if v := coords[o]; v > mx {
			mx = v
		}
	}
	// splitVal is the largest value strictly below the maximum, so the
	// maximum (and its duplicates) form the right side.
	havePred := false
	var pred float64
	for o := 0; o < len(coords); o += dims {
		if v := coords[o]; v < mx && (!havePred || v > pred) {
			pred, havePred = v, true
		}
	}
	if !havePred {
		return 0, 0, false // no spread on dim 0
	}
	return 0, pred, true
}

// capacityExceededLocked evaluates the partition's resource condition
// (§III-B.1: "dynamically evaluated at run-time … or statically
// fixed"). Callers hold at least the read lock.
func (p *partition) capacityExceededLocked() bool {
	cfg := p.t.cfg
	if !p.t.hasPartitionBudget() {
		return false
	}
	if cfg.CapacityCheck != nil {
		return cfg.CapacityCheck(PartitionInfo{
			Points:   p.points,
			Nodes:    len(p.nodes),
			Capacity: cfg.PartitionCapacity,
		})
	}
	return cfg.PartitionCapacity > 0 && p.points > cfg.PartitionCapacity
}

// buildPartition implements §III-B.2: when the resource condition
// fires, the partition's leaf nodes are moved into newly created
// partitions and direct links replace the local references; the moved
// leaves stay behind as forwarding tombstones for in-flight operations.
// When fewer compute nodes remain than leaves exist, the available new
// partitions adopt the leaves as the placement kernel assigns them —
// geometrically close leaves together (Config.Placement; round-robin
// under the ablation policy) — a budget-limited variant of the paper's
// one-partition-per-leaf procedure.
func (p *partition) buildPartition() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.capacityExceededLocked() {
		return // a concurrent spill already ran
	}

	// Movable leaves are leaf children of local routing nodes; the
	// partition's own subtree roots must stay for routing.
	type move struct {
		parent int32
		right  bool
		leaf   int32
	}
	var moves []move
	for i := range p.nodes {
		n := &p.nodes[i]
		if n.leaf || n.moved {
			continue
		}
		if p.local(n.left) {
			if c := &p.nodes[n.left.Node]; c.leaf && !c.moved && !c.migrating {
				moves = append(moves, move{int32(i), false, n.left.Node})
			}
		}
		if p.local(n.right) {
			if c := &p.nodes[n.right.Node]; c.leaf && !c.moved && !c.migrating {
				moves = append(moves, move{int32(i), true, n.right.Node})
			}
		}
	}
	if len(moves) == 0 {
		return
	}
	targets := p.t.allocPartitions(len(moves))
	if len(targets) == 0 {
		return
	}
	p.spills.Add(1)
	// Assign every movable leaf a target up front: the placement
	// kernel packs geometrically close leaves onto the same partition
	// (round-robin under the ablation policy). The kernel is pure
	// computation over the leaves' boxes, safe under the spill lock.
	assign := make([]cluster.NodeID, len(moves))
	if p.t.cfg.Placement == PlacementRoundRobin {
		for k := range moves {
			assign[k] = targets[k%len(targets)]
		}
	} else {
		subs := make([]placeBox, len(moves))
		for k, mv := range moves {
			leaf := &p.nodes[mv.leaf]
			subs[k] = placeBox{lo: leaf.lo, hi: leaf.hi, points: leaf.size()}
		}
		tgs := make([]placeTarget, len(targets))
		for i, id := range targets {
			tgs[i] = placeTarget{id: id}
		}
		for k, ti := range placeSubtrees(subs, tgs, p.t.model.hopToNs) {
			assign[k] = targets[ti]
		}
	}
	for k, mv := range moves {
		target := assign[k]
		leaf := &p.nodes[mv.leaf]
		// The subtree's region ships with its registration: the adopted
		// side installs it as the new root's box, and the cached copy
		// here keeps pruning the relocated subtree by exact
		// min-distance (and grows when inserts forward through the
		// direct link).
		//semtree:allow lockedcall: adoption targets are fresh partitions that never call back into this one; the spill lock cannot cycle
		resp, err := p.t.call(p.id, target, adoptReq{Bucket: leaf.points(p.t.cfg.Dim), Lo: leaf.lo, Hi: leaf.hi})
		if err != nil {
			continue // leaf stays local; a later spill may retry
		}
		ref := childRef{Part: target, Node: resp.(adoptResp).Node}
		if leaf.lo != nil {
			if p.remoteBoxes == nil {
				p.remoteBoxes = make(map[childRef]box)
			}
			p.remoteBoxes[ref] = copyBox(leaf.lo, leaf.hi)
		}
		if mv.right {
			p.nodes[mv.parent].right = ref
		} else {
			p.nodes[mv.parent].left = ref
		}
		p.points -= leaf.size()
		leaf.ids, leaf.coords = nil, nil
		leaf.moved = true
		leaf.leaf = false
		leaf.fwd = ref
		leaf.lo, leaf.hi = nil, nil
	}
}

// handleAdopt installs a moved leaf bucket as a new subtree root and
// returns its node index (the other end of Figure 2's direct link).
// The shipped region becomes the new root's box — recomputed from the
// bucket when an older sender did not provide one — and is copied, so
// this partition's future expansions never alias the sender's cache.
func (p *partition) handleAdopt(r adoptReq) (any, error) {
	lo, hi := r.Lo, r.Hi
	if lo == nil {
		lo, hi = kdtree.BoxOf(r.Bucket)
	}
	n := pnode{
		leaf: true,
		lo:   append([]float64(nil), lo...),
		hi:   append([]float64(nil), hi...),
	}
	n.setPoints(r.Bucket, p.t.cfg.Dim)
	p.mu.Lock()
	defer p.mu.Unlock()
	idx := p.addNode(n)
	p.points += len(r.Bucket)
	return adoptResp{Node: idx}, nil
}

// handleStats reports local counters.
func (p *partition) handleStats() (any, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	leaves := 0
	for i := range p.nodes {
		if p.nodes[i].leaf {
			leaves++
		}
	}
	return statsResp{
		Points:   p.points,
		Nodes:    len(p.nodes),
		Leaves:   leaves,
		NavSteps: p.navSteps.Load(),
		BoxWork:  p.boxWork,
	}, nil
}

// handleHeight computes the height of the subtree rooted at r.Node,
// following cross-partition links.
func (p *partition) handleHeight(r heightReq) (any, error) {
	h, err := p.heightVisit(r.Node)
	if err != nil {
		return nil, err
	}
	return heightResp{Height: h}, nil
}

func (p *partition) heightVisit(idx int32) (int, error) {
	p.mu.RLock()
	n := p.nodes[idx] // copy: we release the lock around remote calls
	p.mu.RUnlock()
	if n.moved {
		return p.remoteHeight(n.fwd)
	}
	if n.leaf {
		return 1, nil
	}
	childHeight := func(ref childRef) (int, error) {
		if p.local(ref) {
			return p.heightVisit(ref.Node)
		}
		return p.remoteHeight(ref)
	}
	lh, err := childHeight(n.left)
	if err != nil {
		return 0, err
	}
	rh, err := childHeight(n.right)
	if err != nil {
		return 0, err
	}
	if rh > lh {
		lh = rh
	}
	return lh + 1, nil
}

func (p *partition) remoteHeight(ref childRef) (int, error) {
	resp, err := p.t.call(p.id, ref.Part, heightReq{Node: ref.Node})
	if err != nil {
		return 0, err
	}
	return resp.(heightResp).Height, nil
}
