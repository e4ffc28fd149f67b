package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// Tests for the background repacker: a zero budget moves nothing, a
// real pass migrates worst-placed leaves without changing any query
// result, the region metadata stays exact throughout (the PR 5
// invariant checks), and the whole protocol survives concurrent
// inserts and queries under the race detector.

func TestRepackZeroBudget(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	pts := clusteredPoints(r, 1500, 6, 4)
	tr := mustTree(t, Config{
		Dim: 6, BucketSize: 8,
		PartitionCapacity: 100, MaxPartitions: 5,
		Placement: PlacementRoundRobin,
	})
	if err := tr.InsertAll(pts, 1); err != nil {
		t.Fatal(err)
	}
	before, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{0, -3} {
		st, err := tr.Repack(context.Background(), RepackConfig{MaxMoves: budget})
		if err != nil {
			t.Fatal(err)
		}
		if st != (RepackStats{}) {
			t.Fatalf("budget %d: non-zero stats %+v", budget, st)
		}
	}
	after, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if before.Points != after.Points || before.Nodes != after.Nodes {
		t.Fatalf("zero-budget repack changed the tree: %+v -> %+v", before, after)
	}
}

// TestRepackMovesAndKeepsBoxesExact: a round-robin-built tree (the
// worst-placed layout) must yield migrations, keep every box exact,
// preserve the total point count, and return byte-identical query
// results before and after the pass.
func TestRepackMovesAndKeepsBoxesExact(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	pts := clusteredPoints(r, 2500, 8, 5)
	tr := mustTree(t, Config{
		Dim: 8, BucketSize: 8,
		PartitionCapacity: 128, MaxPartitions: 5,
		Placement: PlacementRoundRobin,
	})
	if err := tr.InsertAll(pts, 1); err != nil {
		t.Fatal(err)
	}
	queries := make([][]float64, 25)
	for i := range queries {
		queries[i] = clusteredPoints(r, 1, 8, 5)[0].Coords
	}
	var before [][]kdtree.Neighbor
	for _, q := range queries {
		ns, _, err := tr.KNearest(context.Background(), q, 7)
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, ns)
	}

	st, err := tr.Repack(context.Background(), RepackConfig{MaxMoves: 16})
	if err != nil {
		t.Fatal(err)
	}
	if st.Moved == 0 {
		t.Fatalf("repack moved nothing on a round-robin layout: %+v", st)
	}
	if st.MovedPoints <= 0 {
		t.Fatalf("moved %d leaves but %d points: %+v", st.Moved, st.MovedPoints, st)
	}

	checkPartitionBoxes(t, tr)
	stats, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != len(pts) {
		t.Fatalf("points after repack = %d, want %d", stats.Points, len(pts))
	}
	for i, q := range queries {
		after, _, err := tr.KNearest(context.Background(), q, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(before[i]) {
			t.Fatalf("query %d: len %d != %d after repack", i, len(after), len(before[i]))
		}
		for j := range after {
			if !sameNeighbor(after[j], before[i][j]) {
				t.Fatalf("query %d item %d changed after repack: (%d,%v) != (%d,%v)", i, j,
					after[j].Point.ID, after[j].Dist, before[i][j].Point.ID, before[i][j].Dist)
			}
		}
	}

	// A second pass over the improved layout must still be consistent
	// (and typically finds little left to move).
	if _, err := tr.Repack(context.Background(), RepackConfig{MaxMoves: 16}); err != nil {
		t.Fatal(err)
	}
	checkPartitionBoxes(t, tr)
}

// TestRepackConcurrentInsertQuery runs inserts, queries and repack
// passes concurrently — the migration protocol's whole point — then
// quiesces and asserts box exactness and agreement with the
// brute-force oracle over everything inserted.
func TestRepackConcurrentInsertQuery(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	const dim, clusters = 6, 4
	base := clusteredPoints(r, 1200, dim, clusters)
	extra := clusteredPoints(r, 800, dim, clusters)
	for i := range extra {
		extra[i].ID = uint64(len(base) + i)
	}
	tr := mustTree(t, Config{
		Dim: dim, BucketSize: 8,
		PartitionCapacity: 80, MaxPartitions: 5,
		Placement: PlacementRoundRobin, // leave work for the repacker
	})
	if err := tr.InsertAll(base, 1); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	// Inserters: two workers splitting the extra points.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(extra); i += 2 {
				if err := tr.Insert(extra[i]); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	// Queriers: results must stay well-formed throughout (the exact
	// oracle check happens after quiescence). Returned coordinates alias
	// leaf blocks that inserts keep appending to and migrations drain,
	// so re-deriving each distance from them reads the aliased rows
	// while the writers run — under -race, the block contract's check.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qr := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				q := clusteredPoints(qr, 1, dim, clusters)[0].Coords
				ns, _, err := tr.KNearest(context.Background(), q, 5)
				if err != nil {
					errc <- err
					return
				}
				for j := range ns {
					if j > 0 && ns[j].Dist < ns[j-1].Dist {
						errc <- errOutOfOrder
						return
					}
					if d := euclidean(q, ns[j].Point.Coords); d != ns[j].Dist {
						errc <- fmt.Errorf("neighbor %d: its coordinates give distance %v, reported %v",
							ns[j].Point.ID, d, ns[j].Dist)
						return
					}
				}
			}
		}(int64(61 + w))
	}
	// Repacker: small budgets, many passes, racing everything above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := tr.Repack(context.Background(), RepackConfig{MaxMoves: 3}); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	tr.Flush()
	checkPartitionBoxes(t, tr)
	all := append(append([]kdtree.Point(nil), base...), extra...)
	stats, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != len(all) {
		t.Fatalf("points after concurrent repack = %d, want %d", stats.Points, len(all))
	}
	for trial := 0; trial < 15; trial++ {
		q := clusteredPoints(r, 1, dim, clusters)[0].Coords
		got, _, err := tr.KNearest(context.Background(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteKNN(all, q, 5); !sameIDSets(got, want) {
			t.Fatalf("trial %d: disagrees with oracle after concurrent repack", trial)
		}
	}
}

// TestRepackReaches pins the planner's acyclicity primitive: a move
// src→dest is refused exactly when dest already reaches src.
func TestRepackReaches(t *testing.T) {
	adj := map[cluster.NodeID][]cluster.NodeID{
		0: {1, 2},
		1: {3},
		2: {3},
	}
	if !reaches(adj, 0, 3) {
		t.Fatal("0 must reach 3 via either branch")
	}
	if reaches(adj, 3, 0) {
		t.Fatal("3 must not reach 0")
	}
	if !reaches(adj, 2, 2) {
		t.Fatal("a node reaches itself")
	}
	// The deadlock shape the check exists for: an edge 3→0 would close
	// a cycle because 0 reaches 3; an edge 1→2 is fine.
	if !reaches(adj, 0, 3) || reaches(adj, 2, 1) {
		t.Fatal("cycle test disagrees")
	}
}

// TestRepackKeepsPartitionGraphAcyclic: after repeated repack passes
// over a tree with many cross-partition edges, the partition graph
// must still be a DAG — a cycle is the lock-order deadlock the planner
// exists to prevent.
func TestRepackKeepsPartitionGraphAcyclic(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	pts := clusteredPoints(r, 2500, 6, 5)
	tr := mustTree(t, Config{
		Dim: 6, BucketSize: 8,
		PartitionCapacity: 100, MaxPartitions: 6,
		Placement: PlacementRoundRobin,
	})
	if err := tr.InsertAll(pts, 1); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 4; pass++ {
		if _, err := tr.Repack(context.Background(), RepackConfig{MaxMoves: 8}); err != nil {
			t.Fatal(err)
		}
		adj := make(map[cluster.NodeID][]cluster.NodeID)
		var ids []cluster.NodeID
		tr.mu.RLock()
		parts := append([]*partition(nil), tr.parts...)
		tr.mu.RUnlock()
		for _, p := range parts {
			resp, err := tr.call(cluster.ClientID, p.id, repackScanReq{})
			if err != nil {
				t.Fatal(err)
			}
			adj[p.id] = resp.(repackScanResp).Out
			ids = append(ids, p.id)
		}
		for _, from := range ids {
			for _, via := range adj[from] {
				if reaches(adj, via, from) {
					t.Fatalf("pass %d: edge %d->%d sits on a cycle", pass, from, via)
				}
			}
		}
	}
}

// errOutOfOrder reports a mid-flight query whose neighbors came back
// unsorted — impossible unless a migration corrupted a traversal.
var errOutOfOrder = &orderError{}

type orderError struct{}

func (*orderError) Error() string { return "core: k-NN result out of order during repack" }
