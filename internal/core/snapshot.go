package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// Partition snapshot persistence: the distributed tree's whole layout —
// every partition's node arena, exact per-subtree bounding boxes, and
// the remote-box caches guarding cross-partition edges — serialized so
// a fleet restarts without re-ingesting. Restore rebuilds partitions
// bit-for-bit: the arenas, boxes and caches are identical, so every
// traversal takes the same path and query results are byte-identical
// to the pre-save tree (the invariant the snapshot tests and the churn
// bench runner assert).
//
// Snapshots address partitions by ordinal (their position in the
// tree's partition list), never by fabric NodeID: a restore lands on a
// fresh fabric whose IDs need not match. Taking a snapshot requires
// quiescence — no concurrent inserts, bulk loads or repack passes —
// like Rebalance; a migration caught in flight is refused.
//
// Restore trusts nothing: Validate walks the snapshot's cross-partition
// node graph iteratively (corrupt input must not overflow the stack),
// requiring exactly-one-state nodes, in-range references, a strict tree
// reachable from the root with tombstones as the only unreachable
// nodes, per-partition point accounting, and exact boxes everywhere —
// every violation is reported as ErrSnapshotCorrupt, never a panic.

// ErrSnapshotCorrupt reports snapshot bytes or structure that cannot be
// restored: truncated or garbled encodings, unknown format versions,
// and structural violations (bad references, inconsistent counts,
// inexact boxes). Test with errors.Is.
var ErrSnapshotCorrupt = errors.New("core: snapshot corrupt")

// SnapshotFormat is the version of the partition snapshot structure.
// Decoders accept exactly this version; anything else is corrupt (the
// facade's index snapshot carries its own envelope version on top).
const SnapshotFormat = 1

// Validation bounds: a snapshot claiming more is corrupt by fiat long
// before any allocation happens.
const (
	maxSnapshotParts = 1 << 16
	maxSnapshotDim   = 1 << 12
)

// SnapRef addresses a node in a TreeSnapshot: the partition's ordinal
// in TreeSnapshot.Parts and the node's arena index.
type SnapRef struct {
	Part int32
	Node int32
}

// SnapNode is one serialized arena node. Exactly one of the pnode
// states holds: Leaf (Bucket valid), Moved (Fwd valid), or routing
// (SplitDim/SplitVal/Left/Right valid). Lo/Hi is the node's exact
// logical-subtree bounding box, nil when empty.
type SnapNode struct {
	Leaf     bool
	Moved    bool
	Fwd      SnapRef
	SplitDim int32
	SplitVal float64
	Left     SnapRef
	Right    SnapRef
	Bucket   []kdtree.Point
	Lo, Hi   []float64
}

// SnapRemoteBox is one cached cross-partition region: the edge's
// target and the exact box of the subtree behind it.
type SnapRemoteBox struct {
	Ref    SnapRef
	Lo, Hi []float64
}

// PartitionSnapshot is one partition's full state.
type PartitionSnapshot struct {
	Nodes  []SnapNode
	Points int
	Remote []SnapRemoteBox
}

// TreeSnapshot is the whole distributed tree, partition ordinal 0
// holding the tree root at node 0.
type TreeSnapshot struct {
	Format int
	Dim    int
	Size   int64
	Parts  []PartitionSnapshot
}

// snapWireNode mirrors SnapNode with fabric NodeIDs in the refs: the
// form partitions produce and consume; the client translates to and
// from ordinals.
type snapWireNode struct {
	Leaf     bool
	Moved    bool
	Fwd      childRef
	SplitDim int32
	SplitVal float64
	Left     childRef
	Right    childRef
	Bucket   []kdtree.Point
	Lo, Hi   []float64
}

// snapWireBox mirrors SnapRemoteBox with a fabric NodeID ref.
type snapWireBox struct {
	Ref    childRef
	Lo, Hi []float64
}

// snapshotReq asks a partition for a deep copy of its state.
type snapshotReq struct{}

type snapshotResp struct {
	Nodes  []snapWireNode
	Points int
	Remote []snapWireBox
}

// restoreReq replaces a partition's state wholesale; refs are already
// translated to the receiving fabric's NodeIDs.
type restoreReq struct {
	Nodes  []snapWireNode
	Points int
	Remote []snapWireBox
}

type restoreResp struct{}

func init() {
	cluster.RegisterMessage(snapshotReq{})
	cluster.RegisterMessage(snapshotResp{})
	cluster.RegisterMessage(restoreReq{})
	cluster.RegisterMessage(restoreResp{})
}

// handleSnapshot deep-copies the partition's state under the read lock.
// Bucket points alias the leaf blocks (written rows are immutable), but
// boxes are owned copies — the live arena keeps expanding its own. A
// migration caught in flight violates the snapshot's quiescence
// contract and is refused rather than serialized inconsistently.
func (p *partition) handleSnapshot() (any, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	resp := snapshotResp{Points: p.points}
	resp.Nodes = make([]snapWireNode, len(p.nodes))
	for i := range p.nodes {
		n := &p.nodes[i]
		if n.migrating {
			return nil, fmt.Errorf("core: snapshot requires quiescence: partition %d has a migration in flight", p.id)
		}
		resp.Nodes[i] = snapWireNode{
			Leaf: n.leaf, Moved: n.moved, Fwd: n.fwd,
			SplitDim: n.splitDim, SplitVal: n.splitVal,
			Left: n.left, Right: n.right,
			Bucket: n.points(p.t.cfg.Dim),
			Lo:     append([]float64(nil), n.lo...),
			Hi:     append([]float64(nil), n.hi...),
		}
	}
	for ref, b := range p.remoteBoxes {
		resp.Remote = append(resp.Remote, snapWireBox{
			Ref: ref,
			Lo:  append([]float64(nil), b.lo...),
			Hi:  append([]float64(nil), b.hi...),
		})
	}
	return resp, nil
}

// handleRestore replaces the partition's state wholesale under the
// write lock. Slices are copied, buckets into fresh leaf blocks: on an
// in-process fabric the request aliases client memory.
func (p *partition) handleRestore(r restoreReq) (any, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nodes = make([]pnode, len(r.Nodes))
	for i, wn := range r.Nodes {
		p.nodes[i] = pnode{
			leaf: wn.Leaf, moved: wn.Moved, fwd: wn.Fwd,
			splitDim: wn.SplitDim, splitVal: wn.SplitVal,
			left: wn.Left, right: wn.Right,
			lo: append([]float64(nil), wn.Lo...),
			hi: append([]float64(nil), wn.Hi...),
		}
		p.nodes[i].setPoints(wn.Bucket, p.t.cfg.Dim)
	}
	p.points = r.Points
	p.remoteBoxes = nil
	for _, e := range r.Remote {
		if p.remoteBoxes == nil {
			p.remoteBoxes = make(map[childRef]box)
		}
		p.remoteBoxes[e.Ref] = copyBox(e.Lo, e.Hi)
	}
	return restoreResp{}, nil
}

// Snapshot captures the whole tree's layout. It requires quiescence
// (like Rebalance): a partition or migration appearing mid-capture is
// reported as an error, never a torn snapshot.
func (t *Tree) Snapshot() (*TreeSnapshot, error) {
	t.mu.RLock()
	parts := append([]*partition(nil), t.parts...)
	t.mu.RUnlock()
	ord := make(map[cluster.NodeID]int32, len(parts))
	for i, p := range parts {
		ord[p.id] = int32(i)
	}
	toRef := func(ref childRef) (SnapRef, error) {
		o, ok := ord[ref.Part]
		if !ok {
			return SnapRef{}, fmt.Errorf("core: snapshot requires quiescence: reference to partition %d created mid-capture", ref.Part)
		}
		return SnapRef{Part: o, Node: ref.Node}, nil
	}
	snap := &TreeSnapshot{Format: SnapshotFormat, Dim: t.cfg.Dim, Size: t.size.Load()}
	for _, p := range parts {
		resp, err := t.call(cluster.ClientID, p.id, snapshotReq{})
		if err != nil {
			return nil, err
		}
		pr := resp.(snapshotResp)
		ps := PartitionSnapshot{Points: pr.Points}
		ps.Nodes = make([]SnapNode, len(pr.Nodes))
		for i, wn := range pr.Nodes {
			sn := SnapNode{
				Leaf: wn.Leaf, Moved: wn.Moved,
				SplitDim: wn.SplitDim, SplitVal: wn.SplitVal,
				Bucket: wn.Bucket, Lo: wn.Lo, Hi: wn.Hi,
			}
			switch {
			case wn.Moved:
				if sn.Fwd, err = toRef(wn.Fwd); err != nil {
					return nil, err
				}
			case !wn.Leaf:
				if sn.Left, err = toRef(wn.Left); err != nil {
					return nil, err
				}
				if sn.Right, err = toRef(wn.Right); err != nil {
					return nil, err
				}
			}
			ps.Nodes[i] = sn
		}
		for _, e := range pr.Remote {
			ref, err := toRef(e.Ref)
			if err != nil {
				return nil, err
			}
			ps.Remote = append(ps.Remote, SnapRemoteBox{Ref: ref, Lo: e.Lo, Hi: e.Hi})
		}
		snap.Parts = append(snap.Parts, ps)
	}
	return snap, nil
}

// RestoreTree reconstructs a tree from a snapshot on a fresh set of
// partitions. cfg.Dim is taken from the snapshot and cfg.MaxPartitions
// is raised to the snapshot's partition count when lower (the snapshot
// describes a fleet that already exists; the budget only limits future
// growth). The snapshot is validated first: malformed input returns
// ErrSnapshotCorrupt. The restored tree answers every query
// byte-identically to the tree the snapshot was taken from.
func RestoreTree(cfg Config, snap *TreeSnapshot) (*Tree, error) {
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	cfg.Dim = snap.Dim
	if cfg.MaxPartitions < len(snap.Parts) {
		cfg.MaxPartitions = len(snap.Parts)
	}
	t, err := New(cfg)
	if err != nil {
		return nil, err
	}
	ids := []cluster.NodeID{t.rootPartition().id}
	ids = append(ids, t.allocPartitions(len(snap.Parts)-1)...)
	if len(ids) != len(snap.Parts) {
		t.Close()
		return nil, fmt.Errorf("core: restore allocated %d of %d partitions", len(ids), len(snap.Parts))
	}
	toRef := func(r SnapRef) childRef {
		return childRef{Part: ids[r.Part], Node: r.Node}
	}
	for i, ps := range snap.Parts {
		req := restoreReq{Points: ps.Points}
		req.Nodes = make([]snapWireNode, len(ps.Nodes))
		for j, sn := range ps.Nodes {
			wn := snapWireNode{
				Leaf: sn.Leaf, Moved: sn.Moved,
				SplitDim: sn.SplitDim, SplitVal: sn.SplitVal,
				Bucket: sn.Bucket, Lo: sn.Lo, Hi: sn.Hi,
			}
			switch {
			case sn.Moved:
				wn.Fwd = toRef(sn.Fwd)
			case !sn.Leaf:
				wn.Left = toRef(sn.Left)
				wn.Right = toRef(sn.Right)
			}
			req.Nodes[j] = wn
		}
		for _, e := range ps.Remote {
			req.Remote = append(req.Remote, snapWireBox{Ref: toRef(e.Ref), Lo: e.Lo, Hi: e.Hi})
		}
		if _, err := t.call(cluster.ClientID, ids[i], req); err != nil {
			t.Close()
			return nil, fmt.Errorf("core: restore partition %d: %w", i, err)
		}
	}
	t.size.Store(snap.Size)
	return t, nil
}

// EncodeSnapshot writes the snapshot's gob encoding to w.
func EncodeSnapshot(w io.Writer, s *TreeSnapshot) error {
	return gob.NewEncoder(w).Encode(s)
}

// DecodeSnapshot reads a gob-encoded snapshot from r. Truncated or
// garbled input returns ErrSnapshotCorrupt; the result is not yet
// structurally validated (RestoreTree does that).
func DecodeSnapshot(r io.Reader) (*TreeSnapshot, error) {
	var s TreeSnapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrSnapshotCorrupt, err)
	}
	return &s, nil
}

// corrupt builds an ErrSnapshotCorrupt violation report.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
}

// Validate checks the snapshot's structural invariants — the same ones
// a live tree maintains — and returns ErrSnapshotCorrupt on any
// violation: unknown format, out-of-range references, nodes in an
// impossible state, a reachable graph that is not a strict tree,
// point-count mismatches, or boxes that are not exactly the box of the
// points below them. The walk is iterative: adversarial input cannot
// overflow the stack.
func (s *TreeSnapshot) Validate() error {
	if s.Format != SnapshotFormat {
		return corrupt("format %d, want %d", s.Format, SnapshotFormat)
	}
	if s.Dim < 1 || s.Dim > maxSnapshotDim {
		return corrupt("dimension %d out of range", s.Dim)
	}
	if len(s.Parts) < 1 || len(s.Parts) > maxSnapshotParts {
		return corrupt("%d partitions out of range", len(s.Parts))
	}
	if len(s.Parts[0].Nodes) == 0 {
		return corrupt("root partition has no nodes")
	}
	refOK := func(r SnapRef) bool {
		return r.Part >= 0 && int(r.Part) < len(s.Parts) &&
			r.Node >= 0 && int(r.Node) < len(s.Parts[r.Part].Nodes)
	}
	boxOK := func(lo, hi []float64) bool {
		if (lo == nil) != (hi == nil) {
			return false
		}
		return lo == nil || (len(lo) == s.Dim && len(hi) == s.Dim)
	}
	total := int64(0)
	for pi := range s.Parts {
		ps := &s.Parts[pi]
		if ps.Points < 0 {
			return corrupt("partition %d: negative point count", pi)
		}
		local := 0
		for ni := range ps.Nodes {
			n := &ps.Nodes[ni]
			if n.Leaf && n.Moved {
				return corrupt("partition %d node %d: leaf and tombstone at once", pi, ni)
			}
			if !boxOK(n.Lo, n.Hi) {
				return corrupt("partition %d node %d: malformed box", pi, ni)
			}
			switch {
			case n.Moved:
				if len(n.Bucket) != 0 || n.Lo != nil {
					return corrupt("partition %d node %d: tombstone carries data", pi, ni)
				}
				if !refOK(n.Fwd) {
					return corrupt("partition %d node %d: dangling forward", pi, ni)
				}
			case n.Leaf:
				for bi, pt := range n.Bucket {
					if len(pt.Coords) != s.Dim {
						return corrupt("partition %d node %d: point %d has %d coords, want %d", pi, ni, bi, len(pt.Coords), s.Dim)
					}
				}
				lo, hi := kdtree.BoxOf(n.Bucket)
				if !boxEqual(lo, hi, n.Lo, n.Hi) {
					return corrupt("partition %d node %d: leaf box not exact", pi, ni)
				}
				local += len(n.Bucket)
			default:
				if len(n.Bucket) != 0 {
					return corrupt("partition %d node %d: routing node carries a bucket", pi, ni)
				}
				if int(n.SplitDim) < 0 || int(n.SplitDim) >= s.Dim {
					return corrupt("partition %d node %d: split dimension %d out of range", pi, ni, n.SplitDim)
				}
				if !refOK(n.Left) || !refOK(n.Right) {
					return corrupt("partition %d node %d: dangling child", pi, ni)
				}
			}
		}
		if local != ps.Points {
			return corrupt("partition %d: %d bucket points, Points says %d", pi, local, ps.Points)
		}
		total += int64(local)
		for ei, e := range ps.Remote {
			if !refOK(e.Ref) {
				return corrupt("partition %d remote entry %d: dangling reference", pi, ei)
			}
			if e.Lo == nil || !boxOK(e.Lo, e.Hi) {
				return corrupt("partition %d remote entry %d: malformed box", pi, ei)
			}
			tn := &s.Parts[e.Ref.Part].Nodes[e.Ref.Node]
			if !boxEqual(e.Lo, e.Hi, tn.Lo, tn.Hi) {
				return corrupt("partition %d remote entry %d: cached box not exact", pi, ei)
			}
		}
	}
	if total != s.Size {
		return corrupt("%d points across partitions, Size says %d", total, s.Size)
	}
	return s.validateReachable()
}

// validateReachable walks the child graph from the root iteratively,
// requiring a strict tree (each node one parent, no cycles, no
// tombstones as children), exact routing boxes (the union of the
// children's), and that everything unreachable is a tombstone.
func (s *TreeSnapshot) validateReachable() error {
	node := func(r SnapRef) *SnapNode { return &s.Parts[r.Part].Nodes[r.Node] }
	seen := make(map[SnapRef]bool)
	// Two-phase iterative DFS: push(enter ref) visits, push(exit ref)
	// re-checks the box once both children were visited.
	type frame struct {
		ref  SnapRef
		exit bool
	}
	stack := []frame{{ref: SnapRef{}}}
	seen[SnapRef{}] = true
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := node(f.ref)
		if f.exit {
			l, r := node(n.Left), node(n.Right)
			lo, hi := unionExpand(append([]float64(nil), l.Lo...), append([]float64(nil), l.Hi...), r.Lo, r.Hi)
			if !boxEqual(lo, hi, n.Lo, n.Hi) {
				return corrupt("partition %d node %d: routing box not the union of its children", f.ref.Part, f.ref.Node)
			}
			continue
		}
		if n.Moved {
			return corrupt("partition %d node %d: tombstone reachable as a child", f.ref.Part, f.ref.Node)
		}
		if n.Leaf {
			continue
		}
		stack = append(stack, frame{ref: f.ref, exit: true})
		for _, c := range []SnapRef{n.Left, n.Right} {
			if seen[c] {
				return corrupt("partition %d node %d: child %v has two parents or sits on a cycle", f.ref.Part, f.ref.Node, c)
			}
			seen[c] = true
			stack = append(stack, frame{ref: c})
		}
	}
	for pi := range s.Parts {
		for ni := range s.Parts[pi].Nodes {
			if n := &s.Parts[pi].Nodes[ni]; !n.Moved && !seen[SnapRef{Part: int32(pi), Node: int32(ni)}] {
				return corrupt("partition %d node %d: unreachable non-tombstone", pi, ni)
			}
		}
	}
	return nil
}

// boxEqual reports exact equality of two boxes (nil equals nil).
func boxEqual(alo, ahi, blo, bhi []float64) bool {
	if (alo == nil) != (blo == nil) || len(alo) != len(blo) {
		return false
	}
	for d := range alo {
		if alo[d] != blo[d] || ahi[d] != bhi[d] {
			return false
		}
	}
	return true
}
