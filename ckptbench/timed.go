package main

import (
	"net/http"
	"strings"

	"repro/internal/api"
	"repro/internal/storage"
)

// timed is a storage.Backend that records a span around every call into
// the backend it wraps. It preserves the wrapped backend's capability set:
// every non-nil storage.Caps handle is forwarded through a timed shim that
// calls that very handle, nil handles stay nil, and Replication is copied,
// so code above the wrapper takes exactly the paths it takes without it.
// The shims are built once, keeping the Caps probe allocation-free.
type timed struct {
	base storage.Backend
	tr   *tracer
	l    layer
	caps storage.CapSet
}

func wrapBackend(base storage.Backend, tr *tracer, l layer) *timed {
	t := &timed{base: base, tr: tr, l: l}
	bc := storage.Caps(base)
	if bc.Range != nil {
		t.caps.Range = &timedRange{t, bc.Range}
	}
	if bc.Batch != nil {
		t.caps.Batch = &timedBatch{t, bc.Batch}
	}
	if bc.Ingest != nil {
		t.caps.Ingest = &timedIngest{t, bc.Ingest}
	}
	if bc.ClassWrite != nil {
		t.caps.ClassWrite = &timedClassWrite{t, bc.ClassWrite}
	}
	if bc.ClassIngest != nil {
		t.caps.ClassIngest = &timedClassIngest{t, bc.ClassIngest}
	}
	if bc.Orphans != nil {
		t.caps.Orphans = &timedOrphans{t, bc.Orphans}
	}
	if bc.Occupancy != nil {
		t.caps.Occupancy = &timedOccupancy{t, bc.Occupancy}
	}
	t.caps.Replication = bc.Replication
	return t
}

// Caps implements storage.CapsReporter.
func (t *timed) Caps() storage.CapSet { return t.caps }

func (t *timed) Name() string                       { return t.base.Name() }
func (t *timed) Capabilities() storage.Capabilities { return t.base.Capabilities() }

func (t *timed) Put(key string, data []byte) error {
	start := t.tr.now()
	err := t.base.Put(key, data)
	t.tr.record(t.l, mPut, start, int64(len(data)), 1, err)
	return err
}

func (t *timed) Get(key string) ([]byte, error) {
	start := t.tr.now()
	data, err := t.base.Get(key)
	t.tr.record(t.l, mGet, start, int64(len(data)), 1, err)
	return data, err
}

func (t *timed) List(prefix string) ([]string, error) {
	start := t.tr.now()
	keys, err := t.base.List(prefix)
	t.tr.record(t.l, mList, start, 0, 1, err)
	return keys, err
}

func (t *timed) Delete(key string) error {
	start := t.tr.now()
	err := t.base.Delete(key)
	t.tr.record(t.l, mDelete, start, 0, 1, err)
	return err
}

func (t *timed) Stat(key string) (storage.ObjectInfo, error) {
	start := t.tr.now()
	info, err := t.base.Stat(key)
	t.tr.record(t.l, mStat, start, 0, 1, err)
	return info, err
}

type timedRange struct {
	t *timed
	h storage.RangeReader
}

func (s *timedRange) GetRange(key string, off, n int64) ([]byte, error) {
	start := s.t.tr.now()
	data, err := s.h.GetRange(key, off, n)
	s.t.tr.record(s.t.l, mGetRange, start, int64(len(data)), 1, err)
	return data, err
}

type timedBatch struct {
	t *timed
	h storage.BatchReader
}

func (s *timedBatch) GetBatch(keys []string) ([][]byte, []error) {
	start := s.t.tr.now()
	out, errs := s.h.GetBatch(keys)
	var n int64
	var first error
	for i := range out {
		n += int64(len(out[i]))
		if first == nil && errs[i] != nil {
			first = errs[i]
		}
	}
	s.t.tr.record(s.t.l, mGetBatch, start, n, len(keys), first)
	return out, errs
}

// The ingest shims record the bytes the store reports as newly written
// (0 on a dedup hit), which is what reaches the layer below.

type timedIngest struct {
	t *timed
	h storage.AddressedIngester
}

func (s *timedIngest) IngestKeyed(key, addr string, data []byte) (int, bool, error) {
	start := s.t.tr.now()
	n, ok, err := s.h.IngestKeyed(key, addr, data)
	s.t.tr.record(s.t.l, mIngest, start, int64(n), 1, err)
	return n, ok, err
}

type timedClassWrite struct {
	t *timed
	h storage.ClassWriter
}

func (s *timedClassWrite) PutClass(key string, data []byte, class storage.WriteClass) error {
	start := s.t.tr.now()
	err := s.h.PutClass(key, data, class)
	s.t.tr.record(s.t.l, mPutClass, start, int64(len(data)), 1, err)
	return err
}

type timedClassIngest struct {
	t *timed
	h storage.KeyedClassIngester
}

func (s *timedClassIngest) IngestKeyedClass(key, addr string, data []byte, class storage.WriteClass) (int, bool, error) {
	start := s.t.tr.now()
	n, ok, err := s.h.IngestKeyedClass(key, addr, data, class)
	s.t.tr.record(s.t.l, mIngestClass, start, int64(n), 1, err)
	return n, ok, err
}

type timedOrphans struct {
	t *timed
	h storage.OrphanCollector
}

func (s *timedOrphans) CollectOrphans() (int, int64, bool, error) {
	start := s.t.tr.now()
	removed, reclaimed, ok, err := s.h.CollectOrphans()
	s.t.tr.record(s.t.l, mOrphans, start, 0, 1, err)
	return removed, reclaimed, ok, err
}

type timedOccupancy struct {
	t *timed
	h storage.OccupancyReporter
}

func (s *timedOccupancy) Occupancy() ([]storage.LevelOccupancy, error) {
	start := s.t.tr.now()
	occ, err := s.h.Occupancy()
	s.t.tr.record(s.t.l, mOccupancy, start, 0, 1, err)
	return occ, err
}

// timedHandler records a span, with the response status, around every
// request the wire-protocol handler serves.
type timedHandler struct {
	h  http.Handler
	tr *tracer
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (th *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := th.tr.now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	th.h.ServeHTTP(sw, r)
	th.tr.recordHTTP(routeOf(r.URL.Path), start, r.ContentLength, sw.status)
}

func routeOf(p string) method {
	switch {
	case strings.HasPrefix(p, api.PathChunks):
		return routeC
	case strings.HasPrefix(p, api.PathObjects):
		return routeO
	case p == api.PathHas:
		return routeHas
	case p == api.PathBatch:
		return routeBatch
	case p == api.PathList:
		return routeList
	case p == api.PathGC:
		return routeGC
	}
	return routeOther
}

// recordHTTP keeps a server span; a 404 is a normal probe answer, any
// other status from 400 up counts as failed.
func (t *tracer) recordHTTP(route method, start, bytes int64, status int) {
	t.add(span{start: start, bytes: max(bytes, 0), keys: 1, l: layerServer, m: route,
		status: int16(status), failed: status >= 400 && status != http.StatusNotFound})
}
