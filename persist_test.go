package semtree

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"semtree/internal/synth"
	"semtree/internal/triple"
)

func TestSaveLoadRoundTripIdenticalAnswers(t *testing.T) {
	g := synth.New(synth.Config{Seed: 61}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(600) {
		store.Add(tp, triple.Provenance{Doc: "D", Section: "S"})
	}
	orig, err := Build(store, Options{Seed: 5, Measure: "lin"})
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()

	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf, Options{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	defer loaded.Close()

	if loaded.Len() != orig.Len() || loaded.Dims() != orig.Dims() {
		t.Fatalf("loaded len/dims = %d/%d, want %d/%d",
			loaded.Len(), loaded.Dims(), orig.Len(), orig.Dims())
	}
	qGen := synth.New(synth.Config{Seed: 62}, nil)
	for q := 0; q < 30; q++ {
		query := qGen.RandomTriple()
		a := search(t, orig, query, WithK(7))
		b := search(t, loaded, query, WithK(7))
		if len(a) != len(b) {
			t.Fatalf("result sizes differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i].Dist != b[i].Dist {
				t.Fatalf("query %d rank %d: distance %v vs %v (answers must be bit-identical)",
					q, i, a[i].Dist, b[i].Dist)
			}
		}
	}
	// Provenance survives.
	m := search(t, loaded, store.MustGet(0), WithK(1))
	if len(m) != 1 {
		t.Fatalf("lookup after load: %v", m)
	}
	if m[0].Prov.Doc != "D" || m[0].Prov.Section != "S" {
		t.Fatalf("provenance lost: %+v", m[0].Prov)
	}
}

// TestLoadRestoresPartitionLayout: a version-2 snapshot carries the
// distributed tree itself, so Load restores the saved partition layout
// exactly — even when the load-time options ask for fewer partitions —
// and answers identically. (To re-shape a reloaded fleet, Rebalance
// after Load.)
func TestLoadRestoresPartitionLayout(t *testing.T) {
	g := synth.New(synth.Config{Seed: 63}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(800) {
		store.Add(tp, triple.Provenance{})
	}
	orig, err := Build(store, Options{Seed: 6, PartitionCapacity: 100, MaxPartitions: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	if orig.PartitionCount() < 2 {
		t.Fatalf("build did not distribute: %d partitions", orig.PartitionCount())
	}
	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.PartitionCount() != orig.PartitionCount() {
		t.Fatalf("restored %d partitions, saved tree had %d",
			loaded.PartitionCount(), orig.PartitionCount())
	}
	qGen := synth.New(synth.Config{Seed: 64}, nil)
	for q := 0; q < 15; q++ {
		query := qGen.RandomTriple()
		a := search(t, orig, query, WithK(5))
		b := search(t, loaded, query, WithK(5))
		if len(a) != len(b) {
			t.Fatalf("result sizes differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i].Dist != b[i].Dist || a[i].ID != b[i].ID {
				t.Fatalf("restored load changed answers")
			}
		}
	}
}

func TestSaveAfterInsert(t *testing.T) {
	store := triple.NewStore()
	g := synth.New(synth.Config{Seed: 65}, nil)
	for _, tp := range g.Triples(100) {
		store.Add(tp, triple.Provenance{})
	}
	ix, err := Build(store, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	probe := g.RandomTriple()
	if _, err := ix.Insert(probe, triple.Provenance{Doc: "late"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, ix); err != nil {
		t.Fatalf("Save after Insert: %v", err)
	}
	loaded, err := Load(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != 101 {
		t.Fatalf("loaded %d triples, want 101", loaded.Len())
	}
	m := search(t, loaded, probe, WithK(1))
	if len(m) != 1 || m[0].Dist != 0 {
		t.Fatalf("late insert not found after reload: %v", m)
	}
}

func TestSaveDetectsOutOfBandStoreWrites(t *testing.T) {
	store := triple.NewStore()
	g := synth.New(synth.Config{Seed: 66}, nil)
	for _, tp := range g.Triples(50) {
		store.Add(tp, triple.Provenance{})
	}
	ix, err := Build(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	store.Add(g.RandomTriple(), triple.Provenance{}) // bypasses the index
	var buf bytes.Buffer
	if err := Save(&buf, ix); err == nil {
		t.Fatal("Save should refuse a store with unindexed triples")
	}
}

// TestLoadVersion1Compat: streams written before the tree snapshot
// existed carry Version 1 and no Tree payload. Load must still accept
// them, rebuilding the tree from the persisted coordinates through the
// bulk loader; answers stay bit-identical because the coordinates are
// exact.
func TestLoadVersion1Compat(t *testing.T) {
	g := synth.New(synth.Config{Seed: 67}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(400) {
		store.Add(tp, triple.Provenance{Doc: "v1"})
	}
	orig, err := Build(store, Options{Seed: 8, PartitionCapacity: 120, MaxPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()

	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	// Downgrade the stream to what a version-1 writer produced: no tree
	// payload, version stamp 1.
	var snap indexSnapshot
	if err := decodeSnapshot(&buf, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Version = 1
	snap.Tree = nil
	var v1 bytes.Buffer
	if err := encodeSnapshot(&v1, &snap); err != nil {
		t.Fatal(err)
	}

	loaded, err := Load(&v1, Options{PartitionCapacity: 120, MaxPartitions: 4})
	if err != nil {
		t.Fatalf("Load of version-1 stream: %v", err)
	}
	defer loaded.Close()
	if loaded.Len() != orig.Len() {
		t.Fatalf("v1 load has %d triples, want %d", loaded.Len(), orig.Len())
	}
	qGen := synth.New(synth.Config{Seed: 68}, nil)
	for q := 0; q < 20; q++ {
		query := qGen.RandomTriple()
		a := search(t, orig, query, WithK(6))
		b := search(t, loaded, query, WithK(6))
		if len(a) != len(b) {
			t.Fatalf("result sizes differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i].Dist != b[i].Dist {
				t.Fatalf("query %d rank %d: v1 rebuild changed distance %v vs %v",
					q, i, a[i].Dist, b[i].Dist)
			}
		}
	}
	m := search(t, loaded, store.MustGet(0), WithK(1))
	if len(m) != 1 || m[0].Prov.Doc != "v1" {
		t.Fatalf("provenance lost through v1 path: %v", m)
	}
}

// TestSaveConcurrentWithInsert: Save captures the store, the embedding
// table and the tree while holding the ingest lock exclusively, so
// every Save racing Insert and BulkAdd succeeds and writes a snapshot
// that loads cleanly — never a torn stream, never a mutation error. Run
// under -race this also proves the capture itself is data-race free.
func TestSaveConcurrentWithInsert(t *testing.T) {
	g := synth.New(synth.Config{Seed: 69}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(150) {
		store.Add(tp, triple.Provenance{})
	}
	ix, err := Build(store, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	extra := g.Triples(240)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, tp := range extra[:120] {
			if _, err := ix.Insert(tp, triple.Provenance{}); err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for start := 120; start < len(extra); start += 10 {
			items := make([]BulkItem, 0, 10)
			for _, tp := range extra[start : start+10] {
				items = append(items, BulkItem{Triple: tp})
			}
			if _, err := ix.BulkAdd(context.Background(), items); err != nil {
				t.Errorf("BulkAdd: %v", err)
				return
			}
		}
	}()

	var snaps []bytes.Buffer
	for i := 0; i < 12; i++ {
		var buf bytes.Buffer
		if err := Save(&buf, ix); err != nil {
			t.Errorf("Save %d under churn: %v", i, err)
			break
		}
		snaps = append(snaps, buf)
	}
	wg.Wait() // the writers must finish before Close, even on failure
	if t.Failed() {
		return
	}

	// Every snapshot must load cleanly and be internally consistent;
	// Load's own cross-checks (entries vs coords vs tree size) would
	// reject a torn capture.
	for i := range snaps {
		loaded, err := Load(&snaps[i], Options{})
		if err != nil {
			t.Fatalf("snapshot %d written under churn does not load: %v", i, err)
		}
		if n := loaded.Len(); n < 150 || n > 150+len(extra) {
			t.Fatalf("snapshot %d holds %d triples, want between 150 and %d", i, n, 150+len(extra))
		}
		loaded.Close()
	}

	// After quiescence Save must succeed and capture everything.
	var buf bytes.Buffer
	if err := Save(&buf, ix); err != nil {
		t.Fatalf("Save after churn: %v", err)
	}
	loaded, err := Load(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != 150+len(extra) {
		t.Fatalf("final snapshot holds %d triples, want %d", loaded.Len(), 150+len(extra))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	_, err := Load(bytes.NewReader([]byte("not a snapshot")), Options{})
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("garbage must return ErrSnapshotCorrupt, got %v", err)
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	store := triple.NewStore()
	ix, err := Build(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	var buf bytes.Buffer
	if err := Save(&buf, ix); err != nil {
		t.Fatal(err)
	}
	// Corrupt the version by re-encoding a tampered snapshot.
	var snap indexSnapshot
	if err := decodeSnapshot(&buf, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Version = 99
	var buf2 bytes.Buffer
	if err := encodeSnapshot(&buf2, &snap); err != nil {
		t.Fatal(err)
	}
	_, err = Load(&buf2, Options{})
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("wrong version must return ErrSnapshotCorrupt, got %v", err)
	}
}

// FuzzLoadSnapshot: Load must never panic on arbitrary snapshot bytes.
// Bytes that gob cannot decode into the envelope, and decodable
// envelopes with an unknown version stamp, must surface as
// ErrSnapshotCorrupt; bytes Load accepts must yield a queryable index.
func FuzzLoadSnapshot(f *testing.F) {
	g := synth.New(synth.Config{Seed: 70}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(120) {
		store.Add(tp, triple.Provenance{Doc: "fz"})
	}
	ix, err := Build(store, Options{Seed: 11, PartitionCapacity: 60, MaxPartitions: 3})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := Save(&valid, ix); err != nil {
		f.Fatal(err)
	}
	ix.Close()
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2]) // truncation
	f.Add([]byte("not a snapshot"))
	f.Add([]byte{})
	// Version skew.
	var snap indexSnapshot
	if err := decodeSnapshot(bytes.NewReader(valid.Bytes()), &snap); err != nil {
		f.Fatal(err)
	}
	snap.Version = 41
	var skew bytes.Buffer
	if err := encodeSnapshot(&skew, &snap); err != nil {
		f.Fatal(err)
	}
	f.Add(skew.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // size-capped: huge inputs only test the allocator
		}
		// Pre-decode to learn what a correct Load must conclude, and to
		// bound the work a decodable envelope may demand.
		var snap indexSnapshot
		decErr := decodeSnapshot(bytes.NewReader(data), &snap)
		if decErr == nil {
			if len(snap.Entries) > 1<<12 || len(snap.Coords) > 1<<12 ||
				len(snap.Mapper.PivotA) > 64 || len(snap.Mapper.PivotB) > 64 ||
				(snap.Tree != nil && (len(snap.Tree.Parts) > 16 || snap.Tree.Size > 1<<16)) {
				return
			}
		}
		loaded, err := Load(bytes.NewReader(data), Options{})
		if err != nil {
			if decErr != nil && !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("undecodable bytes must report ErrSnapshotCorrupt, got %v", err)
			}
			if decErr == nil && snap.Version != 1 && snap.Version != snapshotVersion &&
				!errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("version %d must report ErrSnapshotCorrupt, got %v", snap.Version, err)
			}
			return
		}
		defer loaded.Close()
		g := synth.New(synth.Config{Seed: 72}, nil)
		if _, err := loaded.Searcher(WithK(3)).Search(context.Background(), g.RandomTriple()); err != nil {
			t.Fatalf("accepted snapshot does not answer queries: %v", err)
		}
	})
}

// TestSaveCoordsFromTree: the tree holds the only copy of each
// embedding, and Save fills the snapshot's Coords from its capture.
// After Insert and BulkAdd, every persisted row must be that triple's
// embedding bit for bit (built triples are checked against the tree:
// their row must be a point stored under their own ID), and a version-1
// reload — which rebuilds the tree from Coords alone — must answer like
// the original.
func TestSaveCoordsFromTree(t *testing.T) {
	g := synth.New(synth.Config{Seed: 73}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(200) {
		store.Add(tp, triple.Provenance{})
	}
	ix, err := Build(store, Options{Seed: 3, PartitionCapacity: 64, MaxPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	want := map[triple.ID][]float64{}
	for _, tp := range g.Triples(40) {
		id, err := ix.Insert(tp, triple.Provenance{Doc: "ins"})
		if err != nil {
			t.Fatal(err)
		}
		want[id] = ix.embed(tp)
	}
	items := make([]BulkItem, 0, 60)
	for _, tp := range g.Triples(60) {
		items = append(items, BulkItem{Triple: tp, Prov: triple.Provenance{Doc: "bulk"}})
	}
	ids, err := ix.BulkAdd(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		want[id] = ix.embed(items[i].Triple)
	}

	var buf bytes.Buffer
	if err := Save(&buf, ix); err != nil {
		t.Fatal(err)
	}
	var snap indexSnapshot
	if err := decodeSnapshot(bytes.NewReader(buf.Bytes()), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Coords) != 300 || len(snap.Entries) != 300 {
		t.Fatalf("snapshot holds %d rows for %d entries, want 300", len(snap.Coords), len(snap.Entries))
	}
	for id, c := range want {
		row := snap.Coords[id]
		if len(row) != len(c) {
			t.Fatalf("ID %d: row of %d dims, want %d", id, len(row), len(c))
		}
		for d := range c {
			if math.Float64bits(row[d]) != math.Float64bits(c[d]) {
				t.Fatalf("ID %d: persisted row %v, embedding %v", id, row, c)
			}
		}
	}
	for id := 0; id < 200; id++ {
		ns, _, err := ix.tree.KNearest(context.Background(), snap.Coords[id], 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(ns) != 1 || ns[0].Dist != 0 {
			t.Fatalf("ID %d: persisted row is not a stored point (%v)", id, ns)
		}
	}

	snap.Version, snap.Tree = 1, nil
	var v1 bytes.Buffer
	if err := encodeSnapshot(&v1, &snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&v1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	qGen := synth.New(synth.Config{Seed: 74}, nil)
	for q := 0; q < 20; q++ {
		query := qGen.RandomTriple()
		a := search(t, ix, query, WithK(5))
		b := search(t, loaded, query, WithK(5))
		if len(a) != len(b) {
			t.Fatalf("query %d: %d vs %d results", q, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
				t.Fatalf("query %d rank %d: (%d,%v) vs (%d,%v)", q, i, a[i].ID, a[i].Dist, b[i].ID, b[i].Dist)
			}
		}
	}
}
