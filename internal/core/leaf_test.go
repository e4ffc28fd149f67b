package core

// Leaf-layout coverage: every path that writes a leaf — insert, batch
// insert, split (median and chain), graft, bulk add, adopt on spill,
// install on rebalance, repack migration with a delta, snapshot
// restore — must leave structure-of-arrays leaves whose coordinate
// block holds exactly Dim values per ID, a snapshot that validates, and
// answers equal to a flat scan over every point inserted. Returned
// neighbors alias their leaf's block, so each answer's coordinates are
// checked against the point that was inserted under that ID.

import (
	"context"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// hookFabric runs hook on every call while armed, before delivering
// it. The hook is disarmed for its own duration, so the calls it issues
// pass straight through (and a spill it triggers, which adopts under
// the spilling partition's lock, cannot re-enter it).
type hookFabric struct {
	cluster.Fabric
	armed atomic.Bool
	hook  func(req any)
}

func (f *hookFabric) Call(ctx context.Context, from, to cluster.NodeID, req any) (any, error) {
	if f.armed.CompareAndSwap(true, false) {
		f.hook(req)
		f.armed.Store(true)
	}
	return f.Fabric.Call(ctx, from, to, req)
}

// racer builds a tree over a hook fabric whose hook inserts points
// into the tree — as a concurrent writer would — and tracks them.
type racer struct {
	tr    *Tree
	fab   *hookFabric
	extra []kdtree.Point
	next  uint64
}

func newRacer(t *testing.T, cfg Config, firstID uint64) *racer {
	t.Helper()
	inner := cluster.NewInProc(cluster.InProcOptions{})
	t.Cleanup(func() { inner.Close() })
	rc := &racer{fab: &hookFabric{Fabric: inner}, next: firstID}
	cfg.Fabric = rc.fab
	rc.tr = mustTree(t, cfg)
	return rc
}

// insertCopy inserts a fresh-ID copy of c.
func (rc *racer) insertCopy(t *testing.T, c []float64) {
	pt := kdtree.Point{Coords: append([]float64(nil), c...), ID: rc.next}
	rc.next++
	rc.extra = append(rc.extra, pt)
	if err := rc.tr.Insert(pt); err != nil {
		t.Error(err)
	}
}

func TestLeafLayoutAcrossWritePaths(t *testing.T) {
	const dim = 5
	ctx := context.Background()
	small := Config{Dim: dim, BucketSize: 4}
	spill := Config{Dim: dim, BucketSize: 6, PartitionCapacity: 60, MaxPartitions: 6}
	// graftRace bulk-loads an empty tree while three inserts race into
	// the entry leaf just before the graft lands, so the graft must
	// re-route displaced points (forwarding those whose route leaves the
	// partition when the trunk links to installed subtrees).
	graftRace := func(cfg Config) func(t *testing.T, pts []kdtree.Point) (*Tree, []kdtree.Point) {
		return func(t *testing.T, pts []kdtree.Point) (*Tree, []kdtree.Point) {
			rc := newRacer(t, cfg, uint64(len(pts)))
			rc.fab.hook = func(req any) {
				if _, ok := req.(graftReq); ok && len(rc.extra) == 0 {
					for _, pt := range pts[:3] {
						rc.insertCopy(t, pt.Coords)
					}
				}
			}
			rc.fab.armed.Store(true)
			mustNoErr(t, rc.tr.BulkLoad(ctx, pts))
			rc.fab.armed.Store(false)
			if len(rc.extra) != 3 {
				t.Fatalf("raced %d inserts into the graft, want 3", len(rc.extra))
			}
			return rc.tr, append(append([]kdtree.Point(nil), pts...), rc.extra...)
		}
	}
	cases := []struct {
		name string
		// build drives one write path over pts and returns the tree and
		// every point it must now hold.
		build func(t *testing.T, pts []kdtree.Point) (*Tree, []kdtree.Point)
	}{
		{"insert+split", func(t *testing.T, pts []kdtree.Point) (*Tree, []kdtree.Point) {
			tr := mustTree(t, small)
			mustNoErr(t, tr.InsertAll(pts, 1))
			return tr, pts
		}},
		{"chain split", func(t *testing.T, pts []kdtree.Point) (*Tree, []kdtree.Point) {
			cfg := small
			cfg.Unbalanced = true
			tr := mustTree(t, cfg)
			mustNoErr(t, tr.InsertAll(pts, 1))
			return tr, pts
		}},
		{"batch insert", func(t *testing.T, pts []kdtree.Point) (*Tree, []kdtree.Point) {
			tr := mustTree(t, small)
			mustNoErr(t, tr.InsertBatchAsync(pts, 16))
			tr.Flush()
			return tr, pts
		}},
		{"graft", graftRace(small)},
		{"graft+install", graftRace(spill)},
		{"bulk add", func(t *testing.T, pts []kdtree.Point) (*Tree, []kdtree.Point) {
			tr := mustTree(t, small)
			mustNoErr(t, tr.InsertAll(pts[:100], 1))
			mustNoErr(t, tr.BulkLoad(ctx, pts[100:110])) // small unions append
			mustNoErr(t, tr.BulkLoad(ctx, pts[110:]))    // large ones graft fragments
			return tr, pts
		}},
		{"adopt on spill", func(t *testing.T, pts []kdtree.Point) (*Tree, []kdtree.Point) {
			tr := mustTree(t, spill)
			mustNoErr(t, tr.InsertAll(pts, 1))
			if tr.PartitionCount() < 3 {
				t.Fatalf("partitions = %d, want a spill", tr.PartitionCount())
			}
			return tr, pts
		}},
		{"install on rebalance", func(t *testing.T, pts []kdtree.Point) (*Tree, []kdtree.Point) {
			tr := mustTree(t, spill)
			mustNoErr(t, tr.InsertAll(pts, 1))
			mustNoErr(t, tr.Rebalance())
			return tr, pts
		}},
		{"repack migrate+delta", func(t *testing.T, pts []kdtree.Point) (*Tree, []kdtree.Point) {
			// A copy of an adopted point routes into the migrating leaf
			// after the source released its lock: it must travel as a
			// delta.
			rc := newRacer(t, Config{
				Dim: dim, BucketSize: 8, PartitionCapacity: 80, MaxPartitions: 5,
				Placement: PlacementRoundRobin, // leave work for the repacker
			}, uint64(len(pts)))
			mustNoErr(t, rc.tr.InsertAll(pts, 1))
			rc.fab.hook = func(req any) {
				if r, ok := req.(adoptReq); ok && len(r.Bucket) > 0 {
					rc.insertCopy(t, r.Bucket[0].Coords)
				}
			}
			rc.fab.armed.Store(true)
			st, err := rc.tr.Repack(ctx, RepackConfig{MaxMoves: 4})
			rc.fab.armed.Store(false)
			mustNoErr(t, err)
			if st.Moved == 0 || len(rc.extra) == 0 {
				t.Fatalf("repack moved %d leaves with %d deltas; want both > 0", st.Moved, len(rc.extra))
			}
			return rc.tr, append(append([]kdtree.Point(nil), pts...), rc.extra...)
		}},
		{"snapshot restore", func(t *testing.T, pts []kdtree.Point) (*Tree, []kdtree.Point) {
			tr := mustTree(t, spill)
			mustNoErr(t, tr.InsertAll(pts, 1))
			snap, err := tr.Snapshot()
			mustNoErr(t, err)
			restored, err := RestoreTree(spill, snap)
			mustNoErr(t, err)
			t.Cleanup(func() { restored.Close() })
			return restored, pts
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(71))
			tr, all := tc.build(t, clusteredPoints(r, 500, dim, 4))
			checkLeafLayout(t, tr, all, r)
		})
	}
}

func mustNoErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// checkLeafLayout asserts the layout invariant on every partition, a
// validating snapshot, and oracle-equal k-NN (both protocols) and range
// answers whose coordinates are the inserted ones.
func checkLeafLayout(t *testing.T, tr *Tree, all []kdtree.Point, r *rand.Rand) {
	t.Helper()
	dim := tr.cfg.Dim
	tr.mu.RLock()
	parts := append([]*partition(nil), tr.parts...)
	tr.mu.RUnlock()
	held := 0
	for _, p := range parts {
		p.mu.RLock()
		for i := range p.nodes {
			n := &p.nodes[i]
			if !n.leaf {
				if n.ids != nil || n.coords != nil {
					t.Errorf("partition %d node %d: non-leaf keeps a block", p.id, i)
				}
				continue
			}
			if len(n.coords) != len(n.ids)*dim {
				t.Errorf("partition %d node %d: %d coords for %d ids at dim %d",
					p.id, i, len(n.coords), len(n.ids), dim)
			}
			held += n.size()
		}
		p.mu.RUnlock()
	}
	if held != len(all) {
		t.Fatalf("leaves hold %d points, want %d", held, len(all))
	}
	snap, err := tr.Snapshot()
	mustNoErr(t, err)
	mustNoErr(t, snap.Validate())

	byID := make(map[uint64][]float64, len(all))
	for _, pt := range all {
		byID[pt.ID] = pt.Coords
	}
	checkCoords := func(ns []kdtree.Neighbor) {
		t.Helper()
		for _, n := range ns {
			want := byID[n.Point.ID]
			if len(n.Point.Coords) != dim || cap(n.Point.Coords) != dim {
				t.Fatalf("ID %d: coords len/cap %d/%d, want %d", n.Point.ID, len(n.Point.Coords), cap(n.Point.Coords), dim)
			}
			for d := range want {
				if n.Point.Coords[d] != want[d] {
					t.Fatalf("ID %d: coords %v, want %v", n.Point.ID, n.Point.Coords, want)
				}
			}
		}
	}
	for trial := 0; trial < 12; trial++ {
		q := randomPoints(r, 1, dim)[0].Coords
		if trial%3 == 0 {
			q = all[r.Intn(len(all))].Coords
		}
		want := bruteKNN(all, q, 7)
		for _, proto := range []Protocol{ProtocolSequential, ProtocolFanOut} {
			got := mustKNN(t, tr, q, 7, proto)
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: %d results, want %d", trial, protoName(proto), len(got), len(want))
			}
			for i := range want {
				if !sameNeighbor(got[i], want[i]) {
					t.Fatalf("trial %d %s rank %d: (%d,%v), oracle (%d,%v)", trial, protoName(proto), i,
						got[i].Point.ID, got[i].Dist, want[i].Point.ID, want[i].Dist)
				}
			}
			checkCoords(got)
		}
		d := 15.0
		got, _, err := tr.RangeSearch(context.Background(), q, d)
		mustNoErr(t, err)
		wantR := bruteRange(all, q, d)
		sort.Slice(wantR, func(i, j int) bool { return neighborLess(wantR[i], wantR[j]) })
		if len(got) != len(wantR) {
			t.Fatalf("trial %d range: %d results, want %d", trial, len(got), len(wantR))
		}
		for i := range wantR {
			if !sameNeighbor(got[i], wantR[i]) {
				t.Fatalf("trial %d range rank %d differs from oracle", trial, i)
			}
		}
		checkCoords(got)
	}
}
