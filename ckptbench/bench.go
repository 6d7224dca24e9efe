package main

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/storage"
)

// workload is one closed-loop checkpointing client: a single training
// process with a synchronous Manager, saving after every step or every few
// work units and restoring on a fixed schedule.
type workload struct {
	name   string
	params int
	remote bool
	// unitsPerSave is the work units evaluated between saves; 0 saves at
	// every optimizer-step boundary.
	unitsPerSave int
	// restoreEvery restores after every restoreEvery-th save (0: none in
	// the save loop).
	restoreEvery int
	// restoreBlock restores this many times back to back once per cycle,
	// when the newest chain holds endChainLen snapshots (0: none). The
	// saves stay free of restores in between.
	restoreBlock int
	// cycle is the saves from one restore block or fresh stack to the
	// next: a whole number of anchor periods, so every cycle holds the
	// same mix of anchors and deltas.
	cycle int
	// freshStacks runs every cycle on a newly built stack, for a program
	// whose per-op cost grows with the store's history (see remote-mix).
	freshStacks bool
	why         string
}

// The knobs every workload shares. Two chunk workers, two restore workers
// and two client read slots keep one client within the two vCPUs of the VM
// the bounds were set on.
const (
	chunkBytes       = 64 << 10
	anchorEvery      = 16
	retain           = 2
	workers          = 2
	replicas         = 3
	writeQuorum      = 2
	originCacheBytes = 8 << 20 // qckpt serve -cache 8
	jobID            = "bench"
	// leaseTTL is the server's upload lease (qckpt serve -lease 1s). One
	// closed-loop client commits a save's manifest within tens of
	// milliseconds of its first upload; the 5-minute default would keep
	// every chunk uploaded during the run resident, so the footprint would
	// grow with run length.
	leaseTTL = time.Second
	// setupRepeats builds the stack this many times before a phase's loop
	// and as many times after it; setup_s is the median of these builds
	// and of the stacks a freshStacks workload builds in its loop. Only
	// the last stack built before the loop is measured.
	setupRepeats = 8
	// endChainLen: saving stops once the newest delta chain holds this
	// many snapshots, so the final restores and the resident footprint do
	// not depend on how many saves fit in the run.
	endChainLen = 8
)

var workloads = []workload{
	{
		name: "step-save", params: 131072, restoreBlock: 6, cycle: 8 * anchorEvery,
		why: "P=131072, 4 MiB, 65 chunks: each Adam step rewrites all state (codec, delta, flate, ingest, Local fsync, GC); 6 restores per 128 saves; tmpfs stores: disk p50 swung 55-143 ms",
	},
	{
		name: "unit-save", params: 131072, unitsPerSave: 4, restoreEvery: 5,
		why: "P=131072 (4 MiB): a save per 4 parameter-shift units moves only accumulator tail, RNG, counters; bitwise restore every 5th save fits the 64 MiB recovery cache; Local flush policy unchanged",
	},
	{
		// Replicated keeps every delete as a tombstone and its List probes
		// each one, so without fresh stores the per-op cost grows with the
		// saves before it (save p50 went from 17 to 32 ms across one 30 s
		// run) and a run's median would depend on how fast it ran. A fresh
		// stack per cycle of 96 saves, six anchor periods with four
		// retention collections, gives every cycle the same history.
		name: "remote-mix", params: 32768, remote: true, restoreEvery: 3, cycle: 6 * anchorEvery, freshStacks: true,
		why: "P=32768, 1 MiB, 17 chunks: step saves, bitwise restore every 3rd, loopback HTTP, server, 3 Local replicas W=2, new stores per 96 saves; chain > 8 MiB origin cache; VM latencies",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stack is the program under test, built bottom-up from its public
// constructors; with a tracer the timing wrappers sit at the layer
// boundaries.
type stack struct {
	mgr     *core.Manager
	client  *remote.Client // remote-mix only
	closers []func() error
}

func (s *stack) close() error {
	var errs []error
	for i := len(s.closers) - 1; i >= 0; i-- {
		errs = append(errs, s.closers[i]())
	}
	return errors.Join(errs...)
}

func wrapIf(b storage.Backend, tr *tracer, l layer) storage.Backend {
	if tr == nil {
		return b
	}
	return wrapBackend(b, tr, l)
}

func managerOptions(b storage.Backend) core.Options {
	return core.Options{
		Backend:     b,
		Strategy:    core.StrategyDelta,
		AnchorEvery: anchorEvery,
		Retain:      retain,
		ChunkBytes:  chunkBytes,
		Workers:     workers,
	}
}

func openStack(w workload, dir string, tr *tracer) (*stack, error) {
	s := &stack{}
	var b storage.Backend
	if !w.remote {
		l, err := storage.NewLocal(dir)
		if err != nil {
			return nil, err
		}
		b = wrapIf(l, tr, layerLocal)
	} else {
		var err error
		if b, err = openRemote(s, dir, tr); err != nil {
			return nil, errors.Join(err, s.close())
		}
	}
	mgr, err := core.NewManager(managerOptions(b))
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	s.mgr = mgr
	s.closers = append(s.closers, mgr.Close)
	return s, nil
}

// openRemote builds 3 Locals → Replicated → Service → api.Local with the
// origin cache → server.New on a loopback listener → remote.Client, and
// returns the job view of the client the Manager writes through.
func openRemote(s *stack, dir string, tr *tracer) (storage.Backend, error) {
	members := make([]storage.Replica, replicas)
	for i := range members {
		l, err := storage.NewLocal(filepath.Join(dir, fmt.Sprintf("replica-%d", i)))
		if err != nil {
			return nil, err
		}
		members[i] = storage.Replica{Backend: wrapIf(l, tr, layerLocal), Domain: fmt.Sprintf("disk-%d", i)}
	}
	repl, err := storage.NewReplicated(storage.ReplicatedOptions{WriteQuorum: writeQuorum}, members...)
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, repl.Close)
	svc, err := core.NewService(core.ServiceOptions{Backend: wrapIf(repl, tr, layerReplicated)})
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, svc.Close)
	local := api.NewLocalOptions(svc, api.NewLeases(leaseTTL), api.LocalOptions{CacheBytes: originCacheBytes})
	var h http.Handler = server.New(local, server.Options{})
	if tr != nil {
		h = &timedHandler{h: h, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln) // returns http.ErrServerClosed once Close runs
	}()
	s.closers = append(s.closers, func() error {
		err := hs.Close()
		<-served
		return err
	})
	transport := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, IdleConnTimeout: 30 * time.Second}
	client, err := remote.Dial("http://"+ln.Addr().String(), remote.Options{Transport: transport, MaxConcurrentReads: workers})
	if err != nil {
		transport.CloseIdleConnections()
		return nil, err
	}
	s.client = client
	s.closers = append(s.closers, func() error {
		client.Close()
		transport.CloseIdleConnections()
		return nil
	})
	return core.JobBackend(wrapIf(client, tr, layerClient), jobID)
}

// result is what one phase measured.
type result struct {
	// Each set-up and timed op in process CPU milliseconds (seconds for
	// set-up) and in wall-clock milliseconds.
	setupS, setupWallS      []float64
	saveCPUMs, restoreCPUMs []float64
	saveMs, restoreMs       []float64
	payloadBytes            int64 // summed payload of the timed saves
	allocBytes              int64
	wireSave, wireRestore   int64
	spaceBytes              int64
	finalPayload            int
	attempted, failed       int
	failures                []string
	chainLens               []int
	stats                   core.Stats // Manager.Stats() over the timed saves

	// Traced phases only.
	spans                                []span
	encodeMs, decodeMs, deltaMs, applyMs []float64
	origin                               api.Stats // /v1/stats deltas over the loop
	retries                              int64
}

// runner drives one phase: setup, the closed loop, teardown.
type runner struct {
	w    workload
	gen  *generator
	st   *stack
	tr   *tracer
	res  *result
	opID int
	seq  uint64 // sequence number of the newest successful save

	base   string // this run's store directory
	dir    string // the current stack's stores, under base
	stacks int    // stacks built so far

	// Counters of the current stack when it was opened (see baseline).
	stats0  core.Stats
	origin0 api.Stats
	client0 remote.ClientStats
	alloc   []metrics.Sample

	// Standalone codec calls (codec phases): the newest saved payload,
	// the one before it and the delta between them.
	codec            bool
	cur, prev, delta []byte
}

// phase selects what a run of the loop does besides saving and restoring.
type phase int

const (
	// plain runs the workload alone; it gives the end-to-end metrics.
	plain phase = iota
	// reference adds the standalone codec calls a traced phase makes
	// between operations, but no wrappers: the tracing overhead is the
	// traced phase's latency minus this one's.
	reference
	// traced adds the timing wrappers and spans.
	traced
)

func runPhase(w workload, seed uint64, base string, loop time.Duration, p phase) (*result, error) {
	gen, err := newGenerator(seed, w.params)
	if err != nil {
		return nil, err
	}
	r := &runner{w: w, gen: gen, base: base, res: &result{}, codec: p != plain,
		alloc: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
	if err := r.setups(p, setupRepeats-1); err != nil {
		return nil, err
	}
	if err := r.open(newPhaseTracer(p)); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if err := r.loop(loop); err != nil {
		return nil, errors.Join(err, r.st.close())
	}
	if err := r.settle(); err != nil {
		return nil, errors.Join(err, r.st.close())
	}
	if err := r.st.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if r.tr != nil {
		r.res.spans = r.tr.snapshot()
	}
	space, err := dirBytes(r.dir)
	if err != nil {
		return nil, err
	}
	r.res.spaceBytes = space
	payload, err := core.EncodePayload(gen.state())
	if err != nil {
		return nil, err
	}
	r.res.finalPayload = len(payload)
	if err := os.RemoveAll(r.dir); err != nil {
		return nil, err
	}
	return r.res, r.setups(p, setupRepeats)
}

func newPhaseTracer(p phase) *tracer {
	if p == traced {
		return newTracer()
	}
	return nil
}

// setups builds and discards n stacks, timing each build.
func (r *runner) setups(p phase, n int) error {
	for i := 0; i < n; i++ {
		if err := r.open(newPhaseTracer(p)); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		if err := r.discard(); err != nil {
			return fmt.Errorf("setup teardown: %w", err)
		}
	}
	return nil
}

// open builds a stack in a new directory and makes its priming save,
// timing both as one setup.
func (r *runner) open(tr *tracer) error {
	r.dir = filepath.Join(r.base, fmt.Sprintf("stack-%d", r.stacks))
	r.stacks++
	c0, t0 := cpuTime(), time.Now()
	st, err := openStack(r.w, r.dir, tr)
	if err != nil {
		return err
	}
	res, err := st.mgr.Save(r.gen.state())
	if err != nil {
		return errors.Join(fmt.Errorf("priming save: %w", err), st.close())
	}
	r.res.setupWallS = append(r.res.setupWallS, time.Since(t0).Seconds())
	r.res.setupS = append(r.res.setupS, (cpuTime() - c0).Seconds())
	r.st, r.tr, r.seq = st, tr, res.Seq
	return nil
}

// discard closes the stack and removes its stores. The runner keeps an
// empty stack, so a later close is a no-op.
func (r *runner) discard() error {
	err := errors.Join(r.st.close(), os.RemoveAll(r.dir))
	r.st = &stack{}
	return err
}

// baseline records the counters of a fresh stack that harvest subtracts.
func (r *runner) baseline() error {
	r.stats0 = r.st.mgr.Stats()
	if c := r.st.client; c != nil && r.tr != nil {
		var err error
		if r.origin0, err = c.Stats(); err != nil {
			return err
		}
		r.client0 = c.ClientStats()
	}
	return nil
}

// harvest adds what the stack's counters moved since baseline.
func (r *runner) harvest() error {
	st := diffStats(r.st.mgr.Stats(), r.stats0)
	r.res.stats.BytesWritten += st.BytesWritten
	r.res.stats.Chunks += st.Chunks
	r.res.stats.DedupHits += st.DedupHits
	r.res.stats.CleanChunks += st.CleanChunks
	if c := r.st.client; c != nil && r.tr != nil {
		origin1, err := c.Stats()
		if err != nil {
			return err
		}
		r.res.origin.OriginHits += origin1.OriginHits - r.origin0.OriginHits
		r.res.origin.OriginMisses += origin1.OriginMisses - r.origin0.OriginMisses
		r.res.origin.OriginCoalesced += origin1.OriginCoalesced - r.origin0.OriginCoalesced
		r.res.retries += c.ClientStats().Retries - r.client0.Retries
	}
	return nil
}

func (r *runner) loop(d time.Duration) error {
	if r.codec {
		if err := r.prime(); err != nil {
			return err
		}
	}
	if r.tr != nil {
		r.tr.reset()
	}
	if err := r.baseline(); err != nil {
		return err
	}
	start := time.Now()
	for k := 0; ; {
		// The priming save is the chain's anchor, so after k more saves
		// the newest chain holds k%anchorEvery+1 snapshots. A workload
		// with a fresh stack per cycle ends at a cycle's end; the others
		// end at chain length endChainLen.
		if r.w.freshStacks {
			if k > 0 && k%r.w.cycle == 0 {
				if time.Since(start) >= d {
					break
				}
				if err := r.harvest(); err != nil {
					return err
				}
				if err := r.discard(); err != nil {
					return err
				}
				if err := r.open(r.tr); err != nil {
					return err
				}
				if err := r.baseline(); err != nil {
					return err
				}
			}
		} else if k%anchorEvery == endChainLen-1 && time.Since(start) >= d {
			break
		}
		k++
		var err error
		if r.w.unitsPerSave > 0 {
			err = r.gen.units(r.w.unitsPerSave)
		} else {
			err = r.gen.step()
		}
		if err != nil {
			return err
		}
		r.save()
		if r.w.restoreEvery > 0 && k%r.w.restoreEvery == 0 {
			r.restore()
		}
		if r.w.restoreBlock > 0 && k%r.w.cycle == r.w.cycle-anchorEvery+endChainLen-1 {
			for i := 0; i < r.w.restoreBlock; i++ {
				r.restore()
			}
		}
	}
	return r.harvest()
}

// settle lets the server's upload leases lapse and runs one orphan
// collection, as qckpt gc would, so the remote footprint counts the
// retained snapshots and not the uploads of the last lease period.
func (r *runner) settle() error {
	c := r.st.client
	if c == nil {
		return nil
	}
	time.Sleep(leaseTTL + 100*time.Millisecond)
	_, _, _, err := c.CollectOrphans()
	return err
}

func diffStats(a, b core.Stats) core.Stats {
	return core.Stats{
		BytesWritten: a.BytesWritten - b.BytesWritten,
		Chunks:       a.Chunks - b.Chunks,
		DedupHits:    a.DedupHits - b.DedupHits,
		CleanChunks:  a.CleanChunks - b.CleanChunks,
	}
}

func (r *runner) heapAllocs() int64 {
	metrics.Read(r.alloc)
	return int64(r.alloc[0].Value.Uint64())
}

func (r *runner) wireBytes() int64 {
	if r.st.client == nil {
		return 0
	}
	cs := r.st.client.ClientStats()
	return cs.BytesSent + cs.BytesReceived
}

func (r *runner) fail(format string, args ...any) {
	r.res.failed++
	if len(r.res.failures) < 5 {
		r.res.failures = append(r.res.failures, fmt.Sprintf(format, args...))
	}
}

func (r *runner) save() {
	st := r.gen.state()
	r.opID++
	r.res.attempted++
	var span int
	if r.tr != nil {
		span = r.tr.beginOp(r.opID, opSave)
	}
	wire0 := r.wireBytes()
	alloc0 := r.heapAllocs()
	c0, t0 := cpuTime(), time.Now()
	res, err := r.st.mgr.Save(st)
	d, c := time.Since(t0), cpuTime()-c0
	alloc1 := r.heapAllocs()
	if r.tr != nil {
		r.tr.endOp(span, err != nil)
	}
	if err != nil {
		r.fail("save op %d: %v", r.opID, err)
		return
	}
	r.res.wireSave += r.wireBytes() - wire0
	r.res.allocBytes += alloc1 - alloc0
	r.res.saveMs = append(r.res.saveMs, ms(d))
	r.res.saveCPUMs = append(r.res.saveCPUMs, ms(c))
	r.res.payloadBytes += int64(res.PayloadBytes)
	r.seq = res.Seq
	if r.codec {
		r.codecAfterSave(st)
	}
}

// restore recovers the newest checkpoint as a resuming process would and
// checks it bitwise against the state the generator last saved.
func (r *runner) restore() {
	want := r.gen.state()
	r.opID++
	r.res.attempted++
	var span int
	if r.tr != nil {
		span = r.tr.beginOp(r.opID, opRestore)
	}
	wire0 := r.wireBytes()
	c0, t0 := cpuTime(), time.Now()
	got, rep, err := core.LoadLatestBackendOptions(r.st.mgr.Backend(), &want.Meta, core.RestoreOptions{Workers: workers})
	d, c := time.Since(t0), cpuTime()-c0
	if r.tr != nil {
		r.tr.endOp(span, err != nil)
	}
	if err != nil {
		r.fail("restore op %d: %v", r.opID, err)
		return
	}
	if rep.Seq != r.seq || rep.Step != want.Step || !got.Equal(want) {
		r.fail("restore op %d: got seq %d step %d, want seq %d step %d bitwise", r.opID, rep.Seq, rep.Step, r.seq, want.Step)
		return
	}
	r.res.wireRestore += r.wireBytes() - wire0
	r.res.restoreMs = append(r.res.restoreMs, ms(d))
	r.res.restoreCPUMs = append(r.res.restoreCPUMs, ms(c))
	r.res.chainLens = append(r.res.chainLens, rep.ChainLen)
	if r.codec {
		r.codecAfterRestore()
	}
}

// prime encodes the priming state, the base of the first standalone delta.
func (r *runner) prime() error {
	var err error
	r.prev, err = core.AppendPayload(r.prev[:0], r.gen.state())
	return err
}

// codecAfterSave times the codec and delta encoders standalone on the
// state just saved.
func (r *runner) codecAfterSave(st *core.TrainingState) {
	t0 := time.Now()
	cur, err := core.AppendPayload(r.cur[:0], st)
	r.res.encodeMs = append(r.res.encodeMs, ms(time.Since(t0)))
	if err != nil {
		r.fail("standalone encode: %v", err)
		return
	}
	t0 = time.Now()
	r.delta = core.AppendDelta(r.delta[:0], r.prev, cur)
	r.res.deltaMs = append(r.res.deltaMs, ms(time.Since(t0)))
	r.cur, r.prev = r.prev, cur
}

// codecAfterRestore times the decoder and delta apply standalone on the
// state just restored (bitwise equal to the newest saved payload).
func (r *runner) codecAfterRestore() {
	t0 := time.Now()
	_, err := core.DecodePayload(r.prev)
	r.res.decodeMs = append(r.res.decodeMs, ms(time.Since(t0)))
	if err != nil {
		r.fail("standalone decode: %v", err)
		return
	}
	if len(r.delta) == 0 {
		return
	}
	t0 = time.Now()
	_, err = core.ApplyDelta(r.cur, r.delta)
	r.res.applyMs = append(r.res.applyMs, ms(time.Since(t0)))
	if err != nil {
		r.fail("standalone delta apply: %v", err)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the CPU time the process has used so far, user and system,
// summed over its threads. The kernel charges a thread only for the time
// it ran, and with paravirtualised steal accounting (this VM's kernel has
// CONFIG_PARAVIRT_TIME_ACCOUNTING) not for time the hypervisor gave its
// CPU to another guest.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF into a valid struct cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
