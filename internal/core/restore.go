package core

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/storage"
)

// Parallel streaming restore engine. Save became a concurrent chunked
// pipeline in PR 1 and placement became tiered in PR 2, but restore — the
// latency that decides how much work a failure wastes — still reassembled
// chunks one blocking fetch at a time. This engine fans chunk fetch and
// decompression across a bounded worker pool while a single committer
// hands completed chunks, in manifest order, to a sink, and chain
// resolution warms the next delta's chunks while the current one applies.
//
// There are two sinks. The append sink builds an anchor or full body in
// one buffer. The delta sink XORs a delta link's chunks straight into the
// payload buffer the chain owns (deltaSink), skipping the XOR for a
// repeated chunk that decoded to all zeros — the bulk of a sub-step
// delta. The anchor's buffer is sized for the newest link too
// (snapshotView.resolvePayload), so it is the only payload-sized buffer a
// chain restore allocates unless a middle link is longer than both ends,
// which regrows it as append does. Chunk bytes are only ever read, never
// written: a raw chunk aliases its frame, and a memoized chunk is shared
// by every manifest slot that names it. Correctness invariants:
//
//   - Ordered commit: chunks reach the sink strictly in manifest order,
//     whatever order workers finish in, so the recovered body is
//     bitwise-identical to the serial path's.
//   - Bounded window: at most Workers+Prefetch chunks past the commit
//     frontier are in flight (fetched, decompressed, or queued), so
//     restoring an arbitrarily large snapshot holds a bounded working set
//     beyond the output buffer itself.
//   - Length check: a manifest's rawLen is bounded by its address count
//     before anything is sized from it, and the committer rejects a body
//     that runs past rawLen or stops short of it.
//   - First-error cancellation: the committer surfaces the failure of the
//     lowest-index failing chunk — deterministic under any scheduling —
//     closes the cancel gate, and waits for every worker to drain before
//     returning, so a failed restore leaks no goroutines.

// RestoreOptions tunes the parallel streaming restore engine. The zero
// value restores serially — exactly the pre-engine behavior — so existing
// entry points are unchanged unless a caller opts in.
type RestoreOptions struct {
	// Workers sizes the chunk fetch+decompress worker pool. Values <= 1
	// restore serially.
	Workers int
	// Prefetch bounds how many chunks beyond the ordered commit frontier
	// may be in flight in addition to the Workers currently executing.
	// <= 0 defaults to 2×Workers.
	Prefetch int
}

// DefaultRestoreOptions sizes the worker pool to the machine: one worker
// per CPU (decompression is the CPU-bound half of a restore) with the
// default prefetch window.
func DefaultRestoreOptions() RestoreOptions {
	return RestoreOptions{Workers: runtime.NumCPU()}
}

// parallel reports whether the options select the concurrent engine.
func (o RestoreOptions) parallel() bool { return o.Workers > 1 }

// window is the bound on chunks in flight past the commit frontier.
func (o RestoreOptions) window() int {
	pf := o.Prefetch
	if pf <= 0 {
		pf = 2 * o.Workers
	}
	return o.Workers + pf
}

// chunkSink consumes a chunked body's chunks in manifest order. zero
// reports a memoized chunk that decoded to all zeros. A sink must not
// retain or modify raw.
type chunkSink func(raw []byte, zero bool) error

// assembleChunksOptions reconstructs a chunked snapshot body from its
// manifest into a fresh buffer under opt: serially for the zero value,
// through the parallel engine otherwise. Both paths return
// bitwise-identical bodies.
func assembleChunksOptions(cs *storage.ChunkStore, manifest []byte, opt RestoreOptions) ([]byte, error) {
	info, err := decodeChunkManifest(manifest)
	if err != nil {
		return nil, err
	}
	return assembleBody(cs, info, opt, 0)
}

// assembleBody is the append sink: it streams info's chunks into one
// fresh buffer of capacity at least minCap.
func assembleBody(cs *storage.ChunkStore, info chunkManifestInfo, opt RestoreOptions, minCap int) ([]byte, error) {
	body := make([]byte, 0, max(info.rawLen, minCap))
	err := streamChunks(cs, info, opt, func(raw []byte, _ bool) error {
		body = append(body, raw...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return body, nil
}

// streamChunks feeds the chunks info names to sink in manifest order,
// through the engine opt selects, refusing a body that runs past the
// manifest's rawLen or stops short of it.
func streamChunks(cs *storage.ChunkStore, info chunkManifestInfo, opt RestoreOptions, sink chunkSink) error {
	n := 0
	commit := func(raw []byte, zero bool) error {
		if n += len(raw); n > info.rawLen {
			return fmt.Errorf("%w: assembled more than the %d manifest bytes", ErrCorrupt, info.rawLen)
		}
		return sink(raw, zero)
	}
	var err error
	if !opt.parallel() || len(info.addrs) < 2 {
		err = assembleAddrs(cs, info.addrs, info.framed, commit)
	} else {
		err = assembleAddrsParallel(cs, info.addrs, info.framed, opt, commit)
	}
	if err == nil && n != info.rawLen {
		err = fmt.Errorf("%w: assembled %d bytes, manifest says %d", ErrCorrupt, n, info.rawLen)
	}
	return err
}

// deltaSink applies a chunked delta body, as the committer streams it, to
// the payload the chain owns: the header (which may straddle chunks) goes
// through beginDelta, then each chunk is XORed in place at its offset.
type deltaSink struct {
	payload []byte
	bodyLen int // manifest rawLen minus the header
	hdr     [deltaHeader]byte
	nhdr    int
	off     int // body bytes consumed
}

func (d *deltaSink) put(raw []byte, zero bool) error {
	if d.nhdr < deltaHeader {
		n := copy(d.hdr[d.nhdr:], raw)
		d.nhdr += n
		raw = raw[n:]
		if d.nhdr < deltaHeader {
			return nil
		}
		p, err := beginDelta(d.payload, d.hdr[:], d.bodyLen)
		if err != nil {
			return err
		}
		d.payload = p
	}
	if !zero {
		xorWith(d.payload[d.off:], raw)
	}
	d.off += len(raw)
	return nil
}

// fetchChunk is the unit of restore work: one content-verified chunk read
// plus its unframing (raw copy-through or exact-size decompression; bare
// flate for legacy unframed chunks). Both failure modes wrap ErrCorrupt
// so recovery falls back to an older snapshot instead of treating the
// directory as unreadable.
func fetchChunk(cs *storage.ChunkStore, addr string, framed bool) ([]byte, error) {
	frame, err := cs.Get(addr)
	if err != nil {
		return nil, fmt.Errorf("%w: chunk %.12s…: %v", ErrCorrupt, addr, err)
	}
	if !framed {
		return decompress(frame)
	}
	return decodeChunkFrame(frame)
}

// chunkMemo shares one fetch among a manifest's repeated addresses. Delta
// bodies repeat the all-zero chunk heavily, so the first occurrence
// fetches, decompresses and checks for zeros once; repeats share the
// result. Only repeated addresses are memoized, so unique chunks (the
// bulk of an anchor) are still released as the committer passes them.
type chunkMemo map[string]*sharedChunk

type sharedChunk struct {
	once sync.Once
	raw  []byte
	zero bool
	err  error
}

func newChunkMemo(addrs []string) chunkMemo {
	counts := make(map[string]int, len(addrs))
	for _, a := range addrs {
		counts[a]++
	}
	memo := make(chunkMemo)
	for a, n := range counts {
		if n > 1 {
			memo[a] = &sharedChunk{}
		}
	}
	return memo
}

// fetch returns addr's chunk, through the memo when addr repeats. It is
// safe for concurrent use: the memo's map is read-only after
// construction.
func (m chunkMemo) fetch(cs *storage.ChunkStore, addr string, framed bool) (raw []byte, zero bool, err error) {
	sh := m[addr]
	if sh == nil {
		raw, err = fetchChunk(cs, addr, framed)
		return raw, false, err
	}
	sh.once.Do(func() {
		sh.raw, sh.err = fetchChunk(cs, addr, framed)
		sh.zero = sh.err == nil && allZero(sh.raw)
	})
	return sh.raw, sh.zero, sh.err
}

// allZero reports whether b holds only zero bytes.
func allZero(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// assembleAddrs is the serial engine: each chunk is fetched
// (content-verified by the store), unframed, and committed in manifest
// order.
func assembleAddrs(cs *storage.ChunkStore, addrs []string, framed bool, commit chunkSink) error {
	memo := newChunkMemo(addrs)
	for _, addr := range addrs {
		raw, zero, err := memo.fetch(cs, addr, framed)
		if err != nil {
			return err
		}
		if err := commit(raw, zero); err != nil {
			return err
		}
	}
	return nil
}

// chunkSlot carries one chunk's result from a worker to the committer.
type chunkSlot struct {
	raw  []byte
	zero bool
	err  error
	done chan struct{}
}

// assembleAddrsParallel is the concurrent engine behind streamChunks (see
// the package comment above for invariants).
func assembleAddrsParallel(cs *storage.ChunkStore, addrs []string, framed bool, opt RestoreOptions, commit chunkSink) error {
	workers := min(opt.Workers, len(addrs))
	slots := make([]chunkSlot, len(addrs))
	for i := range slots {
		slots[i].done = make(chan struct{})
	}
	memo := newChunkMemo(addrs)

	var (
		wg     sync.WaitGroup
		cancel = make(chan struct{})
		once   sync.Once
	)
	stop := func() { once.Do(func() { close(cancel) }) }

	// Producer: dispatch indices in order, gated by the in-flight window.
	// The committer returns a window slot only after consuming a chunk, so
	// dispatch never runs more than window() chunks ahead of the frontier.
	sem := make(chan struct{}, opt.window())
	idxCh := make(chan int)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(idxCh)
		for i := range addrs {
			select {
			case sem <- struct{}{}:
			case <-cancel:
				return
			}
			select {
			case idxCh <- i:
			case <-cancel:
				return
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				select {
				case <-cancel:
					// A failed restore is tearing down: complete the slot
					// without fetching so shutdown is prompt.
					close(slots[i].done)
					continue
				default:
				}
				slots[i].raw, slots[i].zero, slots[i].err = memo.fetch(cs, addrs[i], framed)
				close(slots[i].done)
			}
		}()
	}

	// Committer: consume slots strictly in manifest order. On the first
	// error — first by chunk index, so the reported failure is
	// deterministic however workers interleave — cancel the pool and stop
	// waiting on slots that were never dispatched.
	var firstErr error
	for i := range slots {
		<-slots[i].done
		firstErr = slots[i].err
		if firstErr == nil {
			firstErr = commit(slots[i].raw, slots[i].zero)
		}
		if firstErr != nil {
			break
		}
		slots[i].raw = nil
		<-sem
	}
	stop()
	wg.Wait()
	return firstErr
}

// prefetcher pipelines delta-chain resolution: while one link is being
// fetched and applied, the next link's manifest and chunks are pulled
// through the snapshotView's cache in the background, so on a tiered
// backend the cold fetches of link N+1 overlap the CPU work of link N.
type prefetcher struct {
	wg sync.WaitGroup
}

// start warms key's manifest and chunks in the background and returns a
// wait function. The resolver calls it right before its foreground read
// of key: by then the warmer has been running for the whole previous
// link, so the wait is usually instant, and blocking until the fill lands
// keeps the foreground from racing the warmer into duplicate cold
// fetches of the same chunks.
func (p *prefetcher) start(v *snapshotView, key string) func() {
	done := make(chan struct{})
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer close(done)
		v.warm(key)
	}()
	return func() { <-done }
}

// wait blocks until every outstanding prefetch has finished; callers defer
// it so no warmers outlive the resolution that spawned them.
func (p *prefetcher) wait() { p.wg.Wait() }

// warm pulls key's snapshot object — and, for chunked kinds, its distinct
// chunks — through the view's read cache, batching the chunk fetches so a
// Tiered backend overlaps them per level. Errors are deliberately
// dropped: prefetch is a cache warmer, and the foreground read reports
// any failure with full context.
func (v *snapshotView) warm(key string) {
	data, err := v.b.Get(key)
	if err != nil {
		return
	}
	h, body, err := DecodeSnapshotFile(data)
	if err != nil || !h.Kind.Chunked() {
		return
	}
	info, err := decodeChunkManifest(body)
	if err != nil {
		return
	}
	addrs := info.addrs
	seen := make(map[string]bool, len(addrs))
	distinct := addrs[:0]
	for _, a := range addrs {
		if !seen[a] {
			seen[a] = true
			distinct = append(distinct, a)
		}
	}
	v.cs.GetBatch(distinct)
}
