package core

import (
	"fmt"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// The paper observes that "once built, modifying or rebalancing a
// Kd-tree is a non-trivial task" (§III-B). This file makes it tractable
// for the distributed tree with a coordinated bulk-load: gather every
// point, rebuild a balanced tree client-side (KD-trees bulk-load
// cheaply), cut its top into a routing trunk plus ~M−1 frontier
// subtrees, reset the partitions, install one frontier subtree per data
// partition and the trunk — with cross-partition links at the frontier —
// on the root partition.
//
// Rebalance is a maintenance operation: the caller must guarantee
// quiescence (no concurrent inserts or queries), as for any offline
// reorganization.

// collectReq gathers every point in the subtree rooted at Node,
// following cross-partition links.
type collectReq struct {
	Node int32
}

type collectResp struct {
	Points []kdtree.Point
}

// resetReq clears a partition's node arena.
type resetReq struct {
	// RootLeaf makes the partition re-create the tree root as an empty
	// leaf (only the root partition sets this).
	RootLeaf bool
}

type resetResp struct{}

// wireChild addresses a child in an installReq: an index into the
// request's Nodes when Internal >= 0, a cross-partition reference
// otherwise. A cross-partition reference carries the remote subtree's
// bounding box (Lo/Hi, nil when unknown) so the installing partition
// can seed its remote-box cache — the region registers together with
// the link, exactly like the adopt handshake.
type wireChild struct {
	Internal int32
	Part     cluster.NodeID
	Node     int32
	Lo, Hi   []float64
}

// wireNode is one serialized tree node. Lo/Hi is the subtree's exact
// bounding box (nil when empty).
type wireNode struct {
	Leaf     bool
	SplitDim int32
	SplitVal float64
	Left     wireChild
	Right    wireChild
	Bucket   []kdtree.Point
	Lo, Hi   []float64
}

// installReq installs a serialized tree fragment into a partition's
// arena; Nodes[0] is the fragment root. The response reports the root's
// arena index.
type installReq struct {
	Nodes []wireNode
}

type installResp struct {
	Node int32
}

func init() {
	cluster.RegisterMessage(collectReq{})
	cluster.RegisterMessage(collectResp{})
	cluster.RegisterMessage(resetReq{})
	cluster.RegisterMessage(resetResp{})
	cluster.RegisterMessage(installReq{})
	cluster.RegisterMessage(installResp{})
}

// handleCollect returns every point under Node.
func (p *partition) handleCollect(r collectReq) (any, error) {
	var pts []kdtree.Point
	if err := p.collectVisit(r.Node, &pts); err != nil {
		return nil, err
	}
	return collectResp{Points: pts}, nil
}

func (p *partition) collectVisit(idx int32, out *[]kdtree.Point) error {
	p.mu.RLock()
	n := p.nodes[idx] // copy; the lock is released around remote calls
	p.mu.RUnlock()
	if n.moved {
		return p.remoteCollect(n.fwd, out)
	}
	if n.leaf {
		*out = append(*out, n.points(p.t.cfg.Dim)...)
		return nil
	}
	for _, ref := range []childRef{n.left, n.right} {
		if p.local(ref) {
			if err := p.collectVisit(ref.Node, out); err != nil {
				return err
			}
		} else if err := p.remoteCollect(ref, out); err != nil {
			return err
		}
	}
	return nil
}

func (p *partition) remoteCollect(ref childRef, out *[]kdtree.Point) error {
	resp, err := p.t.call(p.id, ref.Part, collectReq{Node: ref.Node})
	if err != nil {
		return err
	}
	*out = append(*out, resp.(collectResp).Points...)
	return nil
}

// handleReset clears the partition, remote-box cache included (the
// links it guarded are gone with the arena).
func (p *partition) handleReset(r resetReq) (any, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nodes = nil
	p.points = 0
	p.remoteBoxes = nil
	if r.RootLeaf {
		p.nodes = []pnode{{leaf: true}}
	}
	return resetResp{}, nil
}

// handleInstall appends a serialized fragment to the arena. Box slices
// are copied — wire fragments may alias the client-side flat tree,
// whose frontier boxes also travel to other partitions, and no two
// partitions may share a mutable box.
func (p *partition) handleInstall(r installReq) (any, error) {
	if len(r.Nodes) == 0 {
		return nil, fmt.Errorf("core: empty install fragment")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	base := int32(len(p.nodes))
	resolve := func(c wireChild) (childRef, error) {
		if c.Internal >= 0 {
			if int(c.Internal) >= len(r.Nodes) {
				return childRef{}, fmt.Errorf("core: install child %d out of range", c.Internal)
			}
			return childRef{Part: p.id, Node: base + c.Internal}, nil
		}
		ref := childRef{Part: c.Part, Node: c.Node}
		if c.Lo != nil {
			// The cross-partition subtree's region registers with its
			// link, as in the adopt handshake.
			if p.remoteBoxes == nil {
				p.remoteBoxes = make(map[childRef]box)
			}
			p.remoteBoxes[ref] = copyBox(c.Lo, c.Hi)
		}
		return ref, nil
	}
	for _, wn := range r.Nodes {
		n := pnode{leaf: wn.Leaf, splitDim: wn.SplitDim, splitVal: wn.SplitVal}
		if wn.Lo != nil {
			n.lo = append([]float64(nil), wn.Lo...)
			n.hi = append([]float64(nil), wn.Hi...)
		}
		if wn.Leaf {
			n.setPoints(wn.Bucket, p.t.cfg.Dim)
			p.points += n.size()
		} else {
			var err error
			if n.left, err = resolve(wn.Left); err != nil {
				return nil, err
			}
			if n.right, err = resolve(wn.Right); err != nil {
				return nil, err
			}
		}
		p.nodes = append(p.nodes, n)
	}
	return installResp{Node: base}, nil
}

// Rebalance rebuilds the tree balanced, redistributing the data across
// all partitions (including any whose budget was never used). It
// requires quiescence.
func (t *Tree) Rebalance() error {
	root := t.rootPartition()
	resp, err := t.call(cluster.ClientID, root.id, collectReq{Node: 0})
	if err != nil {
		return fmt.Errorf("core: rebalance collect: %w", err)
	}
	pts := resp.(collectResp).Points

	// Make every budgeted partition available to the new layout.
	t.allocPartitions(t.cfg.MaxPartitions)
	t.mu.RLock()
	parts := append([]*partition(nil), t.parts...)
	t.mu.RUnlock()

	seq, err := kdtree.BulkLoad(pts, t.cfg.Dim, t.cfg.BucketSize)
	if err != nil {
		return fmt.Errorf("core: rebalance build: %w", err)
	}
	flat := seq.Flatten()

	for _, p := range parts {
		if _, err := t.call(cluster.ClientID, p.id, resetReq{RootLeaf: false}); err != nil {
			return fmt.Errorf("core: rebalance reset: %w", err)
		}
	}

	if len(pts) == 0 {
		if _, err := t.call(cluster.ClientID, root.id, resetReq{RootLeaf: true}); err != nil {
			return fmt.Errorf("core: rebalance reset: %w", err)
		}
		t.size.Store(0)
		return nil
	}

	dataParts := parts[1:]
	if len(dataParts) == 0 || flat[0].Leaf {
		// Single partition, or too little data to distribute: the
		// whole balanced tree lives on the root partition (its arena
		// is empty, so the tree root lands at index 0).
		if _, err := t.call(cluster.ClientID, root.id, installReq{Nodes: wireNodes(flat)}); err != nil {
			return fmt.Errorf("core: rebalance install: %w", err)
		}
		t.size.Store(int64(len(pts)))
		return nil
	}

	// Cut the flat tree below the root until the frontier is wide
	// enough to give every data partition a subtree, then install each
	// frontier subtree on the data partition the placement kernel
	// assigns it: the targets start empty, so the kernel spreads one
	// anchor subtree per partition and clusters any surplus with its
	// geometrically closest anchor (round-robin under the ablation
	// policy). The cut and the assignment are shared with the bulk
	// loader (bulkload.go).
	targets := make([]cluster.NodeID, len(dataParts))
	for i, dp := range dataParts {
		targets[i] = dp.id
	}
	frontier := cutFrontier(flat, len(targets))
	assign := t.assignFrontier(flat, frontier, targets)
	isFrontier := make(map[int32]childRef, len(frontier))
	for i, idx := range frontier {
		target := assign[i]
		sub, err := kdtree.Subtree(flat, idx)
		if err != nil {
			return fmt.Errorf("core: rebalance cut: %w", err)
		}
		resp, err := t.call(cluster.ClientID, target, installReq{Nodes: wireNodes(sub)})
		if err != nil {
			return fmt.Errorf("core: rebalance install: %w", err)
		}
		isFrontier[idx] = childRef{Part: target, Node: resp.(installResp).Node}
	}

	// Install the trunk (everything above the frontier) on the root
	// partition — its arena is empty, so the trunk root lands at index
	// 0, where every operation enters.
	trunk := trunkNodes(flat, isFrontier)
	if _, err := t.call(cluster.ClientID, root.id, installReq{Nodes: trunk}); err != nil {
		return fmt.Errorf("core: rebalance trunk install: %w", err)
	}
	t.size.Store(int64(len(pts)))
	return nil
}

// flatPoints counts the points under one node of a flat tree, for the
// placement kernel's load term.
func flatPoints(flat []kdtree.FlatNode, idx int32) int {
	n := flat[idx]
	if n.Leaf {
		return len(n.Bucket)
	}
	return flatPoints(flat, n.Left) + flatPoints(flat, n.Right)
}

// wireNodes converts a self-contained flat fragment to wire form,
// boxes included.
func wireNodes(flat []kdtree.FlatNode) []wireNode {
	out := make([]wireNode, len(flat))
	for i, n := range flat {
		out[i] = wireNode{
			Leaf: n.Leaf, SplitDim: n.SplitDim, SplitVal: n.SplitVal,
			Left:   wireChild{Internal: n.Left},
			Right:  wireChild{Internal: n.Right},
			Bucket: n.Bucket,
			Lo:     n.Lo, Hi: n.Hi,
		}
	}
	return out
}

// trunkNodes serializes the nodes above the frontier in preorder (trunk
// root first), replacing frontier children with their cross-partition
// refs — each ref carrying its subtree's box so the root partition's
// remote-box cache covers the whole frontier. The flat root must not
// itself be in the frontier.
func trunkNodes(flat []kdtree.FlatNode, frontier map[int32]childRef) []wireNode {
	var out []wireNode
	var walk func(idx int32) wireChild
	walk = func(idx int32) wireChild {
		if ref, ok := frontier[idx]; ok {
			return wireChild{Internal: -1, Part: ref.Part, Node: ref.Node,
				Lo: flat[idx].Lo, Hi: flat[idx].Hi}
		}
		n := flat[idx]
		at := int32(len(out))
		out = append(out, wireNode{Leaf: n.Leaf, SplitDim: n.SplitDim, SplitVal: n.SplitVal,
			Bucket: n.Bucket, Lo: n.Lo, Hi: n.Hi})
		if !n.Leaf {
			out[at].Left = walk(n.Left)
			out[at].Right = walk(n.Right)
		}
		return wireChild{Internal: at}
	}
	walk(0)
	return out
}
