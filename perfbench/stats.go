package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// with fewer, the percentile is one or two outliers and moves from run
// to run by chance.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 1) of xs by the
// nearest-rank method. It refuses when fewer than minBeyond samples
// lie above the rank, so p99 needs at least 1000 samples.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %g of %d samples", p, n)
	}
	rank := int(math.Ceil(p * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// latencies collects per-operation wall times in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/1e6) }

// samples is a run's store of latencies, shared by its callers. Its
// buffer is allocated before the run reads its live-heap baseline, so
// the samples a run keeps do not show in heap_mb however many requests
// the program completes; a run that outgrows it still works, and only
// then do the extra samples count. Windows are consecutive ranges of it.
type samples struct {
	mu  sync.Mutex
	buf latencies
}

// newSamples reserves room for n samples.
func newSamples(n int) *samples { return &samples{buf: make(latencies, 0, n)} }

// perSecond is the room a run of duration d reserves for the samples
// of a loop completing up to rate operations per second; callers pass
// several times the rate the loop reaches on a 2-core VM.
func perSecond(d time.Duration, rate int) int { return int(d.Seconds()*float64(rate)) + 1 }

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.buf.add(d)
	s.mu.Unlock()
}

// mark returns the position of the next sample.
func (s *samples) mark() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// since returns the samples added after mark m.
func (s *samples) since(m int) latencies {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf[m:len(s.buf):len(s.buf)]
}

// window is one stretch of a timed phase: its latencies and how long
// it ran.
type window struct {
	lat  latencies
	busy time.Duration
}

func pooled(ws []window) latencies {
	var all latencies
	for _, w := range ws {
		all = append(all, w.lat...)
	}
	return all
}

// summarize adds <rateName>, <prefix>_p50_ms and <prefix>_p99_ms to m:
// each is the median over the windows of that window's value. A run's
// windows follow each other in time, so a stretch in which the machine
// ran slow, or a window with a burst of stalls, moves some windows and
// not the result. When a window holds too few samples for its own p99
// (fewer than 1000), the p99 is taken over all the run's samples.
func summarize(m map[string]metric, rateName, prefix string, ws []window) error {
	var rates, p50s, p99s []float64
	perWindow := true
	for i, w := range ws {
		p50, err := percentile(w.lat, 0.50)
		if err != nil {
			return fmt.Errorf("%s_p50_ms, window %d: %w", prefix, i, err)
		}
		rates = append(rates, float64(len(w.lat))/w.busy.Seconds())
		p50s = append(p50s, p50)
		p99, err := percentile(w.lat, 0.99)
		perWindow = perWindow && err == nil
		p99s = append(p99s, p99)
	}
	all := pooled(ws)
	p99 := median(p99s)
	if !perWindow {
		var err error
		if p99, err = percentile(all, 0.99); err != nil {
			return fmt.Errorf("%s_p99_ms: %w", prefix, err)
		}
	}
	n := len(all)
	m[rateName] = metric{median(rates), "1/s", n}
	m[prefix+"_p50_ms"] = metric{median(p50s), "ms", n}
	m[prefix+"_p99_ms"] = metric{p99, "ms", n}
	return nil
}

// median returns the median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
