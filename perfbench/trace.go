package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"semtree/internal/cluster"
)

// Span names. Every span is recorded from the benchmark's side of a
// layer's public boundary; nothing inside the program is instrumented.
const (
	spanWire    = "serve.request" // serve.Client.Search, client side
	spanSearch  = "facade.search" // Searcher.Search
	spanInsert  = "facade.insert" // Index.Insert
	spanCall    = "cluster.call"  // Fabric.Call, caller side
	spanHandler = "core.handler"  // a partition handler, callee side
	maxSpans    = 1 << 20         // beyond this a run drops spans (and says so)
	spanReserve = 1 << 16         // room kept for requests open when no new one may start
	noParent    = uint64(0)
)

// span is one timed interval: its name, its parent span, and the
// request it belongs to (0 when the benchmark issued no request for it,
// such as the server-side execution of a wire request). Times are
// nanoseconds since the recorder started. Exec is the ExecStats.Wall of
// a facade.search span, Node the callee of a call or handler.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Node   int    `json:"node"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Exec   int64  `json:"exec,omitempty"`
	Err    bool   `json:"err,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory while it is on; writeSpans dumps them
// when the run ends.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64
	reqs  atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int
	// pending holds the open calls of a fabric whose handlers get a
	// fresh context carrying only the call's deadline: such a handler
	// finds its call by the ID the decorator encoded there (see tagCall).
	pending map[uint64]spanRef
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), pending: map[uint64]spanRef{}}
}

// spanRef identifies an open span to its children.
type spanRef struct{ id, req uint64 }

type spanKey struct{}

func withSpan(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, r)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(spanKey{}).(spanRef)
	return r, ok
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// set switches recording on or off; a nil recorder stays off.
func (r *recorder) set(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

func (r *recorder) tracing() bool { return r != nil && r.on.Load() }

// begin opens the span of a request (wire, search or insert) under
// parent while the recorder is on and has room for the request's spans.
// Otherwise it returns nil and the request runs untraced: a run that
// completes more requests than the buffer holds traces the first ones.
func (r *recorder) begin(name string, parent spanRef) *span {
	if !r.tracing() {
		return nil
	}
	r.mu.Lock()
	full := len(r.spans) >= maxSpans-spanReserve
	r.mu.Unlock()
	if full {
		return nil
	}
	return r.open(name, parent, -1)
}

// open starts a span under parent. A request span (wire, search or
// insert) given no request ID starts a new request.
func (r *recorder) open(name string, parent spanRef, node int) *span {
	req := parent.req
	if req == 0 && name != spanCall && name != spanHandler {
		req = r.reqs.Add(1)
	}
	return &span{ID: r.ids.Add(1), Parent: parent.id, Req: req, Name: name, Node: node, Start: r.now()}
}

func (s *span) ref() spanRef { return spanRef{s.ID, s.Req} }

// close ends s, which may be nil for an untraced request.
func (r *recorder) close(s *span, err error) {
	if s == nil {
		return
	}
	s.End = r.now()
	s.Err = err != nil
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, *s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

func (r *recorder) expect(c spanRef) {
	r.mu.Lock()
	r.pending[c.id] = c
	r.mu.Unlock()
}

// claim removes the open call id and returns it.
func (r *recorder) claim(id uint64) (spanRef, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.pending[id]
	delete(r.pending, id)
	return c, ok
}

// take returns the recorded spans and clears the buffer.
func (r *recorder) take() ([]span, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, d := r.spans, r.dropped
	r.spans, r.dropped = nil, 0
	return s, d
}

// tracedFabric is the benchmark's cluster.Fabric decorator: it times
// the Calls of traced requests on the caller's side and wraps every
// handler given to AddNode, so a partition's handler time and the
// transit around it are measured without touching core. It passes
// everything through unchanged, and a call of no traced request, or
// any call while the recorder is off, costs it a context lookup or one
// atomic load.
type tracedFabric struct {
	cluster.Fabric
	rec *recorder
	tag bool // the fabric hands handlers a fresh context: tag calls
	// writer is the open facade.insert span of the single writer:
	// Index.Insert gives the fabric no context, so its root call is
	// recognised as the one client call that carries no span.
	writer atomic.Pointer[spanRef]
}

func traceFabric(f cluster.Fabric, rec *recorder) *tracedFabric {
	_, tcp := f.(*cluster.TCP)
	return &tracedFabric{Fabric: f, rec: rec, tag: tcp}
}

// tagEpoch is the latest time a deadline can name. A call's span ID i
// travels as the deadline tagEpoch-i ns, two centuries away: a real
// deadline is always earlier, and a child call, whose ID is larger,
// names an earlier deadline than its parent's, so context.WithDeadline
// keeps it.
const tagEpoch = math.MaxInt64

// tagCall returns ctx carrying call id in its deadline. The TCP fabric
// sends a call's deadline to the callee, which builds its handler's
// context from it and nothing else.
func tagCall(ctx context.Context, id uint64) (context.Context, context.CancelFunc) {
	return context.WithDeadline(ctx, time.Unix(0, tagEpoch-int64(id)))
}

// taggedCall returns the call ID a handler's deadline carries.
func taggedCall(ctx context.Context) (uint64, bool) {
	d, ok := ctx.Deadline()
	if !ok || tagEpoch-d.UnixNano() > int64(maxCallID) {
		return 0, false
	}
	return uint64(tagEpoch - d.UnixNano()), true
}

// maxCallID bounds the span IDs a deadline tag can carry.
const maxCallID = 1 << 40

func (f *tracedFabric) Call(ctx context.Context, from, to cluster.NodeID, req any) (any, error) {
	if !f.rec.on.Load() {
		return f.Fabric.Call(ctx, from, to, req)
	}
	parent, ok := spanFrom(ctx)
	if !ok && from == cluster.ClientID {
		if w := f.writer.Load(); w != nil {
			parent, ok = *w, true
		}
	}
	if !ok {
		return f.Fabric.Call(ctx, from, to, req)
	}
	s := f.rec.open(spanCall, parent, int(to))
	cctx := withSpan(ctx, s.ref())
	if f.tag {
		f.rec.expect(s.ref())
		var cancel context.CancelFunc
		cctx, cancel = tagCall(cctx, s.ID)
		defer cancel()
		defer f.rec.claim(s.ID) // a no-op once the handler claimed it
	}
	resp, err := f.Fabric.Call(cctx, from, to, req)
	f.rec.close(s, err)
	return resp, err
}

func (f *tracedFabric) AddNode(h cluster.Handler) (cluster.NodeID, error) {
	var self atomic.Int64
	id, err := f.Fabric.AddNode(func(ctx context.Context, from cluster.NodeID, req any) (any, error) {
		if !f.rec.on.Load() {
			return h(ctx, from, req)
		}
		parent, ok := spanFrom(ctx)
		if id, tagged := taggedCall(ctx); !ok && tagged {
			parent, ok = f.rec.claim(id)
		}
		if !ok {
			return h(ctx, from, req)
		}
		s := f.rec.open(spanHandler, parent, int(self.Load()))
		resp, err := h(withSpan(ctx, s.ref()), from, req)
		f.rec.close(s, err)
		return resp, err
	})
	self.Store(int64(id))
	return id, err
}

// countingListener counts the bytes every accepted connection reads
// and writes: the serve wire's traffic as the server sees it.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// writeSpans dumps spans as JSON lines into dir.
func writeSpans(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
