package main

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// Tracing from outside the program: the benchmark opens a span around each
// Save and restore it makes, and the timing wrappers (timed.go) open one
// around every call that crosses a layer boundary. Spans stay in memory
// and are written out when the run ends. A wrapper cannot see which caller
// span is active on another goroutine (the Manager's chunk workers, the
// server's handlers), so a child's parent is the operation span that was
// current when it started; nesting between layers is recovered from
// interval containment when the metrics are derived.

// layer is the module a span belongs to.
type layer uint8

const (
	layerCore layer = iota
	layerLocal
	layerReplicated
	layerServer
	layerClient
	numLayers
)

var layerNames = [numLayers]string{"core", "storage.local", "storage.replicated", "server", "remote.client"}

// method is the call a span covers: a storage.Backend method or capability
// handle for the storage and client layers, a route for the server layer,
// the operation for the core layer.
type method uint8

const (
	mPut method = iota
	mPutClass
	mGet
	mGetRange
	mGetBatch
	mList
	mDelete
	mStat
	mIngest
	mIngestClass
	mOrphans
	mOccupancy
	numMethods
)

var methodNames = [numMethods]string{"put", "putclass", "get", "getrange", "getbatch", "list", "delete", "stat", "ingest", "ingestclass", "orphans", "occupancy"}

const (
	opSave method = iota
	opRestore
)

// Server routes, named after the wire protocol's path segments.
const (
	routeC method = iota
	routeHas
	routeO
	routeBatch
	routeList
	routeGC
	routeOther
	numRoutes
)

var routeNames = [numRoutes]string{"c", "has", "o", "batch", "list", "gc", "other"}

func spanName(l layer, m method) string {
	switch l {
	case layerCore:
		return [...]string{"core.save", "core.restore"}[m]
	case layerServer:
		return "server." + routeNames[m]
	}
	return layerNames[l] + "." + methodNames[m]
}

// span is one timed call. Times are nanoseconds since the tracer started.
type span struct {
	start, end int64
	bytes      int64 // bytes written or read by the call
	op         int32 // operation id (0 = between operations)
	parent     int32 // span id of that operation's span (-1 for none)
	keys       int32 // keys a batch read covered (1 for other calls)
	status     int16 // HTTP status for server spans
	failed     bool  // the call returned an error other than ErrNotFound
	l          layer
	m          method
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// cur packs the current operation: id in the high 32 bits, its span
	// index in the low 32 bits (one client runs one operation at a time).
	cur atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// record appends a span that started at start and ends now.
func (t *tracer) record(l layer, m method, start int64, bytes int64, keys int, err error) {
	t.add(span{start: start, bytes: bytes, keys: int32(keys), l: l, m: m,
		failed: err != nil && !errors.Is(err, storage.ErrNotFound)})
}

// add stamps s with its end time and the current operation and keeps it.
func (t *tracer) add(s span) {
	s.end = t.now()
	cur := t.cur.Load()
	s.op, s.parent = int32(cur>>32), int32(cur)
	if s.op == 0 {
		s.parent = -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// beginOp opens operation id's span and makes it current; endOp closes it.
func (t *tracer) beginOp(id int, m method) int {
	t.mu.Lock()
	idx := len(t.spans)
	t.spans = append(t.spans, span{start: t.now(), op: int32(id), parent: -1, keys: 1, l: layerCore, m: m})
	t.mu.Unlock()
	t.cur.Store(int64(id)<<32 | int64(idx))
	return idx
}

func (t *tracer) endOp(idx int, failed bool) {
	t.cur.Store(0)
	end := t.now()
	t.mu.Lock()
	t.spans[idx].end = end
	t.spans[idx].failed = failed
	t.mu.Unlock()
}

// reset drops the spans recorded so far (the set-up's).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far. Call it once every traced
// call has returned.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes one gzipped tab-separated line per span: id, name,
// op, parent, start and end in ns since the run's tracer started, bytes,
// keys, HTTP status and the failed flag.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // errs only on a bad level
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id\tname\top\tparent\tstart_ns\tend_ns\tbytes\tkeys\tstatus\tfailed")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%t\n",
			i, spanName(s.l, s.m), s.op, s.parent, s.start, s.end, s.bytes, s.keys, s.status, s.failed)
	}
	if err := errors.Join(w.Flush(), zw.Close()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval arithmetic over [start, end) spans. Self time subtracts the
// union of child intervals, not their sum: with two chunk workers the
// backend calls of one save overlap.

type interval struct{ s, e int64 }

// union merges ivs in place into sorted disjoint intervals.
func union(ivs []interval) []interval {
	if len(ivs) == 0 {
		return ivs
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.s <= last.e {
			last.e = max(last.e, iv.e)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// intersect returns the intersection of two unions.
func intersect(a, b []interval) []interval {
	var out []interval
	for i, j := 0, 0; i < len(a) && j < len(b); {
		s, e := max(a[i].s, b[j].s), min(a[i].e, b[j].e)
		if s < e {
			out = append(out, interval{s, e})
		}
		if a[i].e < b[j].e {
			i++
		} else {
			j++
		}
	}
	return out
}

func measure(u []interval) int64 {
	var n int64
	for _, iv := range u {
		n += iv.e - iv.s
	}
	return n
}
