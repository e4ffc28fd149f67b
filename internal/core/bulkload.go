package core

import (
	"context"
	"fmt"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// The sorted bulk loader: streaming ingest lands as coordinate batches,
// not single points, and the paper's own observation — "Kd-trees are
// more efficient in bulk-loading situations (as required by our
// approach)" (§III-B) — applies to the distributed tree too. BulkLoad
// turns a batch into median-partitioned balanced fragments client-side
// and installs them wholesale, so construction costs O(batch/bucket)
// fabric messages instead of one navigation + split cascade per point:
//
//   - Empty tree: build the whole balanced tree client-side, cut its
//     top into a routing trunk plus frontier subtrees, install one
//     group of subtrees per data partition as the placement kernel
//     assigns them (geometrically close subtrees together), and graft
//     the trunk onto the root partition's entry leaf — the same shape
//     as Rebalance, minus the collect, and safe against concurrent
//     inserts: the graft merges any points that raced into the entry
//     leaf and refuses (falling back to the merge path) if the root
//     stopped being a leaf.
//   - Live tree: route the batch down the existing structure like a
//     pipelined insert batch, but replace each destination leaf with a
//     balanced fragment bulk-built over (bucket ∪ assigned points) in
//     one step — no per-point split cascade — and forward the entries
//     that leave the partition as nested bulk batches.
//
// Both paths keep the PR 5 region invariant: fragment boxes come out
// of the kdtree bulk builder exact, and every box on a descent path
// expands before the point lands, exactly as single inserts do.

// DefaultBulkChunk is the per-message batch size of the bulk merge
// path. Chunking bounds message size; each chunk is applied under one
// partition write lock per partition it touches.
const DefaultBulkChunk = 2048

// bulkAddReq routes a batch of points from their entry nodes and grafts
// balanced fragments at the destination leaves. Unlike insertBatchReq
// it is synchronous: the response acknowledges that the whole batch —
// including entries forwarded across partitions — has landed.
type bulkAddReq struct {
	Entries []batchEntry
}

// bulkAddResp acknowledges a bulk batch, all forwards included.
type bulkAddResp struct{}

// graftReq asks a partition to replace leaf node Entry with a
// serialized balanced fragment (Nodes[0] is the fragment root, landing
// in Entry's arena slot). Points already in the entry leaf are re-routed
// down the installed fragment, so a graft composes with concurrent
// inserts. The receiver refuses — OK false, nothing installed — when
// Entry is no longer a plain leaf (split, tombstoned or migrating).
type graftReq struct {
	Entry int32
	Nodes []wireNode
}

// graftResp reports whether the fragment was installed.
type graftResp struct {
	OK bool
}

func init() {
	cluster.RegisterMessage(bulkAddReq{})
	cluster.RegisterMessage(bulkAddResp{})
	cluster.RegisterMessage(graftReq{})
	cluster.RegisterMessage(graftResp{})
}

// BulkLoad inserts a batch of points through the bulk path. On an empty
// tree it builds the balanced layout client-side and distributes it
// across partitions via the placement kernel; on a live tree it merges
// the batch by grafting balanced fragments at the destination leaves.
// The call is synchronous: when it returns, every point is queryable.
// Concurrent BulkLoad calls serialize; concurrent Insert and queries
// are safe throughout. The input slice is not modified.
func (t *Tree) BulkLoad(ctx context.Context, pts []kdtree.Point) error {
	for i, p := range pts {
		if len(p.Coords) != t.cfg.Dim {
			return fmt.Errorf("core: point %d has %d coords, tree dimension is %d", i, len(p.Coords), t.cfg.Dim)
		}
	}
	if len(pts) == 0 {
		return nil
	}
	t.bulkMu.Lock()
	defer t.bulkMu.Unlock()
	if t.size.Load() == 0 {
		//semtree:allow lockedcall: bulkMu only serializes bulk passes; no handler or query path acquires it, so no lock cycle is possible
		ok, err := t.bulkBuild(pts)
		if err != nil {
			return err
		}
		if ok {
			t.size.Add(int64(len(pts)))
			return nil
		}
		// The root grew under us (concurrent inserts split the entry
		// leaf while we were building): merge instead.
	}
	//semtree:allow lockedcall: bulkMu only serializes bulk passes; no handler or query path acquires it, so no lock cycle is possible
	return t.bulkMerge(ctx, pts)
}

// bulkShouldDistribute decides whether a from-scratch bulk build spreads
// frontier subtrees across data partitions: only when spilling is
// configured and one partition hosting the whole batch would trip the
// resource condition anyway.
func (t *Tree) bulkShouldDistribute(n int) bool {
	cfg := t.cfg
	if cfg.MaxPartitions <= 1 {
		return false
	}
	if cfg.CapacityCheck != nil {
		// Estimate the node count of a balanced tree over n points.
		nodes := 1
		if cfg.BucketSize > 0 {
			nodes = 2*(n/cfg.BucketSize) + 1
		}
		return cfg.CapacityCheck(PartitionInfo{Points: n, Nodes: nodes, Capacity: cfg.PartitionCapacity})
	}
	return cfg.PartitionCapacity > 0 && n > cfg.PartitionCapacity
}

// bulkBuild is the empty-tree fast path: balanced build, frontier cut,
// placement-kernel assignment, one install per frontier subtree, trunk
// graft on the root. It reports ok=false — with any partial installs
// undone — when the root partition's entry leaf stopped being a leaf
// while the client-side build ran, in which case the caller falls back
// to the merge path.
func (t *Tree) bulkBuild(pts []kdtree.Point) (bool, error) {
	ordered := append([]kdtree.Point(nil), pts...) // the kdtree builder reorders in place
	seq, err := kdtree.BulkLoad(ordered, t.cfg.Dim, t.cfg.BucketSize)
	if err != nil {
		return false, fmt.Errorf("core: bulk build: %w", err)
	}
	flat := seq.Flatten()
	root := t.rootPartition()

	var targets []cluster.NodeID
	if t.bulkShouldDistribute(len(pts)) && !flat[0].Leaf {
		targets = t.allocPartitions(t.cfg.MaxPartitions)
	}
	if len(targets) == 0 || flat[0].Leaf {
		// Single partition (or nothing to distribute over): graft the
		// whole balanced tree onto the root's entry leaf. The graft
		// handler runs the capacity check afterwards, so a dynamic
		// resource condition still spills normally.
		resp, err := t.call(cluster.ClientID, root.id, graftReq{Entry: 0, Nodes: wireNodes(flat)})
		if err != nil {
			return false, fmt.Errorf("core: bulk graft: %w", err)
		}
		return resp.(graftResp).OK, nil
	}

	frontier := cutFrontier(flat, len(targets))
	assign := t.assignFrontier(flat, frontier, targets)
	isFrontier := make(map[int32]childRef, len(frontier))
	used := make(map[cluster.NodeID]bool)
	undo := func() {
		for id := range used {
			// Fresh partitions hold only our fragments; reset precisely
			// undoes the install. The partitions stay allocated (empty)
			// and rejoin the layout through later spills or rebalance.
			_, _ = t.call(cluster.ClientID, id, resetReq{})
		}
	}
	for i, idx := range frontier {
		target := assign[i]
		sub, err := kdtree.Subtree(flat, idx)
		if err != nil {
			undo()
			return false, fmt.Errorf("core: bulk cut: %w", err)
		}
		resp, err := t.call(cluster.ClientID, target, installReq{Nodes: wireNodes(sub)})
		if err != nil {
			undo()
			return false, fmt.Errorf("core: bulk install: %w", err)
		}
		used[target] = true
		isFrontier[idx] = childRef{Part: target, Node: resp.(installResp).Node}
	}
	trunk := trunkNodes(flat, isFrontier)
	resp, err := t.call(cluster.ClientID, root.id, graftReq{Entry: 0, Nodes: trunk})
	if err != nil {
		undo()
		return false, fmt.Errorf("core: bulk trunk graft: %w", err)
	}
	if !resp.(graftResp).OK {
		undo()
		return false, nil
	}
	return true, nil
}

// bulkMerge streams the batch into a live tree in chunks, each chunk a
// synchronous bulkAddReq entering at the root.
func (t *Tree) bulkMerge(ctx context.Context, pts []kdtree.Point) error {
	root := t.rootPartition()
	for start := 0; start < len(pts); start += DefaultBulkChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := start + DefaultBulkChunk
		if end > len(pts) {
			end = len(pts)
		}
		entries := make([]batchEntry, 0, end-start)
		for _, p := range pts[start:end] {
			entries = append(entries, batchEntry{Node: 0, Point: p})
		}
		if _, err := t.call(cluster.ClientID, root.id, bulkAddReq{Entries: entries}); err != nil {
			return fmt.Errorf("core: bulk merge: %w", err)
		}
		t.size.Add(int64(end - start))
	}
	return nil
}

// cutFrontier cuts a flat balanced tree below its root: BFS until the
// frontier is at least want wide (leaves stop growing). The root is
// always expanded, so the returned frontier never contains index 0 and
// a trunk always exists above it. The caller guarantees the root is not
// a leaf.
func cutFrontier(flat []kdtree.FlatNode, want int) []int32 {
	frontier := []int32{flat[0].Left, flat[0].Right}
	for len(frontier) < want {
		grew := false
		var next []int32
		for _, idx := range frontier {
			n := flat[idx]
			if n.Leaf {
				next = append(next, idx)
				continue
			}
			next = append(next, n.Left, n.Right)
			grew = true
		}
		frontier = next
		if !grew {
			break
		}
	}
	return frontier
}

// assignFrontier maps each frontier subtree to a target partition: the
// placement kernel packs geometrically close subtrees together
// (targets start empty, so the kernel spreads one anchor per partition
// and clusters the surplus); round-robin under the ablation policy.
func (t *Tree) assignFrontier(flat []kdtree.FlatNode, frontier []int32, targets []cluster.NodeID) []cluster.NodeID {
	assign := make([]cluster.NodeID, len(frontier))
	if t.cfg.Placement == PlacementRoundRobin {
		for i := range frontier {
			assign[i] = targets[i%len(targets)]
		}
		return assign
	}
	subs := make([]placeBox, len(frontier))
	for i, idx := range frontier {
		subs[i] = placeBox{lo: flat[idx].Lo, hi: flat[idx].Hi, points: flatPoints(flat, idx)}
	}
	tgs := make([]placeTarget, len(targets))
	for i, id := range targets {
		tgs[i] = placeTarget{id: id}
	}
	for i, ti := range placeSubtrees(subs, tgs, t.model.hopToNs) {
		assign[i] = targets[ti]
	}
	return assign
}

// handleBulkAdd applies one bulk chunk: descend every entry under one
// write lock (expanding path boxes exactly like single inserts), graft
// a balanced fragment per destination leaf, then — after the lock is
// released — forward the entries that left the partition as nested
// synchronous bulk batches and run the spill check.
func (p *partition) handleBulkAdd(r bulkAddReq) (any, error) {
	var forwards map[cluster.NodeID][]batchEntry
	groups := make(map[int32][]kdtree.Point)
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
		groups[leafIdx] = append(groups[leafIdx], e.Point)
	}
	var err error
	for leafIdx, batch := range groups {
		if gerr := p.graftLocked(leafIdx, batch); gerr != nil && err == nil {
			err = gerr
		}
	}
	spill := p.capacityExceededLocked()
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}
	for part, entries := range forwards {
		// Synchronous, strictly downstream (the partition DAG): the
		// bulk path acknowledges only after every entry has landed.
		if _, cerr := p.t.call(p.id, part, bulkAddReq{Entries: entries}); cerr != nil && err == nil {
			err = cerr
		}
	}
	if spill {
		p.buildPartition()
	}
	if err != nil {
		return nil, err
	}
	return bulkAddResp{}, nil
}

// graftLocked merges a batch into the leaf at idx. Small unions append
// like plain inserts; larger ones are replaced wholesale by a balanced
// fragment bulk-built over (bucket ∪ batch) — the step that removes the
// per-point split cascade. Migrating leaves only append (splits are
// deferred while the repacker drains them, exactly as splitLeaf does).
// Callers hold the write lock and have already expanded the descent
// path's boxes for every batch point.
func (p *partition) graftLocked(idx int32, batch []kdtree.Point) error {
	n := &p.nodes[idx]
	total := n.size() + len(batch)
	if n.migrating || total <= p.t.cfg.BucketSize {
		for _, pt := range batch {
			n.appendPoint(pt)
		}
		p.points += len(batch)
		p.inserts.Add(int64(len(batch)))
		return nil
	}
	all := append(n.points(p.t.cfg.Dim), batch...)
	seq, err := kdtree.BulkLoad(all, p.t.cfg.Dim, p.t.cfg.BucketSize)
	if err != nil {
		return fmt.Errorf("core: graft build: %w", err)
	}
	p.installFragmentLocked(idx, seq.Flatten())
	p.points += len(batch)
	p.inserts.Add(int64(len(batch)))
	return nil
}

// installFragmentLocked replaces the node at idx with a self-contained
// flat fragment: the fragment root lands in idx's arena slot, the rest
// appends to the arena. Boxes are copied and buckets land in fresh
// leaf blocks — the fragment may alias a client-side flat tree. Callers
// hold the write lock and account p.points themselves.
func (p *partition) installFragmentLocked(idx int32, flat []kdtree.FlatNode) {
	base := int32(len(p.nodes))
	at := func(j int32) childRef {
		// flat[j] for j >= 1 lands at base+j-1; flat[0] occupies idx.
		return childRef{Part: p.id, Node: base + j - 1}
	}
	for j, fn := range flat {
		n := pnode{leaf: fn.Leaf, splitDim: fn.SplitDim, splitVal: fn.SplitVal}
		if fn.Lo != nil {
			n.lo = append([]float64(nil), fn.Lo...)
			n.hi = append([]float64(nil), fn.Hi...)
		}
		if fn.Leaf {
			n.setPoints(fn.Bucket, p.t.cfg.Dim)
		} else {
			n.left, n.right = at(fn.Left), at(fn.Right)
		}
		if j == 0 {
			p.nodes[idx] = n
		} else {
			p.nodes = append(p.nodes, n)
		}
	}
}

// handleBulkGraft installs a serialized fragment over the leaf at
// Entry. The request is validated before anything mutates, so a
// malformed fragment never leaves a half-installed arena. Points that
// were already in the entry leaf — concurrent inserts that raced the
// client-side build — are re-routed down the installed fragment;
// routes that leave the partition forward after the lock is released.
func (p *partition) handleBulkGraft(r graftReq) (any, error) {
	if len(r.Nodes) == 0 {
		return nil, fmt.Errorf("core: empty graft fragment")
	}
	for _, wn := range r.Nodes {
		if wn.Leaf {
			continue
		}
		for _, c := range []wireChild{wn.Left, wn.Right} {
			if c.Internal == 0 || int(c.Internal) >= len(r.Nodes) {
				return nil, fmt.Errorf("core: graft child %d out of range", c.Internal)
			}
		}
	}
	type routed struct {
		ref childRef
		pt  kdtree.Point
	}
	var fwd []routed
	p.mu.Lock()
	if r.Entry < 0 || int(r.Entry) >= len(p.nodes) {
		p.mu.Unlock()
		return nil, fmt.Errorf("core: graft entry %d out of range", r.Entry)
	}
	entry := &p.nodes[r.Entry]
	if !entry.leaf || entry.moved || entry.migrating {
		p.mu.Unlock()
		return graftResp{}, nil
	}
	displaced := entry.points(p.t.cfg.Dim)
	base := int32(len(p.nodes))
	resolve := func(c wireChild) childRef {
		if c.Internal > 0 {
			return childRef{Part: p.id, Node: base + c.Internal - 1}
		}
		ref := childRef{Part: c.Part, Node: c.Node}
		if c.Lo != nil {
			// A cross-partition subtree's region registers with its
			// link, as in the adopt handshake and the trunk install.
			if p.remoteBoxes == nil {
				p.remoteBoxes = make(map[childRef]box)
			}
			p.remoteBoxes[ref] = copyBox(c.Lo, c.Hi)
		}
		return ref
	}
	for j, wn := range r.Nodes {
		n := pnode{leaf: wn.Leaf, splitDim: wn.SplitDim, splitVal: wn.SplitVal}
		if wn.Lo != nil {
			n.lo = append([]float64(nil), wn.Lo...)
			n.hi = append([]float64(nil), wn.Hi...)
		}
		if wn.Leaf {
			n.setPoints(wn.Bucket, p.t.cfg.Dim)
			p.points += n.size()
		} else {
			n.left, n.right = resolve(wn.Left), resolve(wn.Right)
		}
		if j == 0 {
			p.nodes[r.Entry] = n
		} else {
			p.nodes = append(p.nodes, n)
		}
	}
	var path []int32
	for _, pt := range displaced {
		path = path[:0]
		leafIdx, ref, remote := p.descend(r.Entry, pt.Coords, &path)
		p.expandPathBoxes(path, pt.Coords)
		if remote {
			p.expandRemoteBox(ref, pt.Coords)
			fwd = append(fwd, routed{ref: ref, pt: pt})
			p.points-- // the point leaves this partition
			continue
		}
		n := &p.nodes[leafIdx]
		n.appendPoint(pt)
		if n.size() > p.t.cfg.BucketSize {
			p.splitLeaf(leafIdx)
		}
	}
	spill := p.capacityExceededLocked()
	p.mu.Unlock()
	var err error
	for _, f := range fwd {
		// Strictly downstream (frontier subtrees the trunk links to):
		// no lock held, the partition DAG cannot cycle.
		if _, cerr := p.t.call(p.id, f.ref.Part, insertReq{Node: f.ref.Node, Point: f.pt}); cerr != nil && err == nil {
			err = cerr
		}
	}
	if spill {
		p.buildPartition()
	}
	if err != nil {
		return nil, err
	}
	return graftResp{OK: true}, nil
}
