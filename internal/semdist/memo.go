package semdist

import (
	"hash/maphash"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"semtree/internal/vocab"
)

// pairMemoCap is the capacity of a Metric's general literal-pair memo:
// the distinct surface-form pairs it holds before it is reset. At the
// cap its table is 2·pairMemoCap slots of 16 bytes (2 MiB), so a
// long-running server that compares ever-new literal pairs (exact
// re-rank, pattern verification) holds at most that much. Pairs against
// anchor terms (FastMap pivots) live in a separate memo that is never
// reset; it grows with the distinct terms compared against the anchors,
// which is linear in the distinct terms.
const pairMemoCap = 1 << 16

// minMemoSlots is the initial slot count of a pair memo's table.
const minMemoSlots = 1 << 10

// present marks a written value slot. Distances are non-negative, so
// the sign bit is free, and a stored 0.0 stays distinguishable from an
// empty slot.
const present = 1 << 63

// pairMemo is a concurrent memo from a pair key (two interned surface
// IDs, see pairKey) to a distance. A hit is atomic loads only: no lock
// and no read-modify-write. A miss inserts with one CAS; growth and
// reset take a mutex and publish a new table, so a writer racing a
// growth can lose its entry, which only costs a later recomputation.
type pairMemo struct {
	limit int // entries that trigger a reset; 0 grows without bound

	mu  sync.Mutex // serializes growth and reset
	tab atomic.Pointer[pairTable]
}

type pairTable struct {
	slots []pairSlot
	shift uint // 64 − log2(len(slots))
	used  atomic.Int64
}

type pairSlot struct {
	key atomic.Uint64 // 0 = empty
	val atomic.Uint64 // float64 bits | present; 0 = not yet written
}

func newPairMemo(limit int) *pairMemo {
	p := &pairMemo{limit: limit}
	p.tab.Store(newPairTable(minMemoSlots))
	return p
}

func newPairTable(slots int) *pairTable {
	shift := uint(64)
	for n := slots; n > 1; n >>= 1 {
		shift--
	}
	return &pairTable{slots: make([]pairSlot, slots), shift: shift}
}

// pairKey orders the two IDs, so the key is symmetric. IDs start at 1,
// so a key is never 0.
func pairKey(a, b uint32) uint64 {
	if b < a {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// home is the key's first probe slot (Fibonacci hashing).
func (t *pairTable) home(key uint64) uint64 { return (key * 0x9E3779B97F4A7C15) >> t.shift }

func (p *pairMemo) get(key uint64) (float64, bool) {
	t := p.tab.Load()
	mask := uint64(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		switch s.key.Load() {
		case key:
			v := s.val.Load()
			return math.Float64frombits(v &^ present), v != 0
		case 0:
			return 0, false
		}
	}
}

func (p *pairMemo) put(key uint64, d float64) {
	t := p.tab.Load()
	if t.used.Load() >= int64(len(t.slots)/2) {
		t = p.grow(t)
	}
	if t.insert(key, d) {
		t.used.Add(1)
	}
}

// insert claims a slot for key and writes d; it reports whether the
// key was new to the table. The caller keeps the load factor at or
// below one half, so the probe always finds a free slot.
func (t *pairTable) insert(key uint64, d float64) bool {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		k := s.key.Load()
		if k == 0 {
			if s.key.CompareAndSwap(0, key) {
				s.val.Store(math.Float64bits(d) | present)
				return true
			}
			k = s.key.Load()
		}
		if k == key {
			return false
		}
	}
}

// grow replaces a half-full table: by one twice the size holding its
// entries, or — once a bounded memo is at its limit — by an empty one.
func (p *pairMemo) grow(old *pairTable) *pairTable {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cur := p.tab.Load(); cur != old {
		return cur // another writer already replaced it
	}
	if p.limit > 0 && len(old.slots) >= 2*p.limit {
		t := newPairTable(len(old.slots))
		p.tab.Store(t)
		return t
	}
	t := newPairTable(2 * len(old.slots))
	for i := range old.slots {
		s := &old.slots[i]
		if k, v := s.key.Load(), s.val.Load(); k != 0 && v != 0 {
			t.insert(k, math.Float64frombits(v&^present))
			t.used.Add(1)
		}
	}
	p.tab.Store(t)
	return t
}

// interner assigns dense IDs (from 1) to surface strings. A hit is a
// seeded hash plus atomic loads; an insert takes the mutex. The table
// only grows: an ID, once given, names its string for the life of the
// Metric.
type interner struct {
	seed maphash.Seed
	tab  atomic.Pointer[internTable]

	mu sync.Mutex // serializes inserts and growth
	n  uint32     // IDs handed out; guarded by mu
}

type internTable struct {
	slots []atomic.Pointer[internEntry]
	mask  uint64
}

type internEntry struct {
	hash  uint64
	s     string
	id    uint32
	binds atomic.Pointer[binding] // concept resolutions of s, one per prefix
}

// binding caches how a surface form resolves as a concept under one
// prefix: the prefix's concept space and the concept (NoConcept when
// the vocabulary lacks the form). Bindings are immutable and prepended
// with a CAS; a lost race only drops a cache entry.
type binding struct {
	prefix  string
	space   *conceptSpace
	concept vocab.ConceptID
	next    *binding
}

func newInterner() *interner {
	in := &interner{seed: maphash.MakeSeed()}
	in.tab.Store(newInternTable(minMemoSlots))
	return in
}

func newInternTable(slots int) *internTable {
	return &internTable{slots: make([]atomic.Pointer[internEntry], slots), mask: uint64(slots - 1)}
}

func (in *interner) intern(s string) *internEntry {
	h := maphash.String(in.seed, s)
	if e := in.tab.Load().find(h, s); e != nil {
		return e
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	t := in.tab.Load()
	if e := t.find(h, s); e != nil {
		return e
	}
	if in.n == math.MaxUint32 {
		panic("semdist: interned surface-form IDs exhausted")
	}
	if 2*(int(in.n)+1) > len(t.slots) {
		next := newInternTable(2 * len(t.slots))
		for i := range t.slots {
			if e := t.slots[i].Load(); e != nil {
				next.place(e)
			}
		}
		t = next
		in.tab.Store(t)
	}
	in.n++
	// Clone: the key must not pin the (possibly large) buffer the
	// caller's string was sliced from.
	e := &internEntry{hash: h, s: strings.Clone(s), id: in.n}
	t.place(e)
	return e
}

func (t *internTable) find(h uint64, s string) *internEntry {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		e := t.slots[i].Load()
		if e == nil || e.hash == h && e.s == s {
			return e
		}
	}
}

// place stores e in the first free slot of its probe chain; the
// caller holds the interner's mutex.
func (t *internTable) place(e *internEntry) {
	for i := e.hash & t.mask; ; i = (i + 1) & t.mask {
		if t.slots[i].Load() == nil {
			t.slots[i].Store(e)
			return
		}
	}
}
