package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/storage"
)

// buildChunkedBody ingests body into cs in chunkBytes pieces and returns
// the manifest, exactly as the save pipeline would lay it out.
func buildChunkedBody(t *testing.T, cs *storage.ChunkStore, body []byte, chunkBytes int) []byte {
	t.Helper()
	pieces := splitChunks(body, chunkBytes)
	addrs := make([]string, len(pieces))
	for i, piece := range pieces {
		frame, err := appendChunkFrame(nil, piece)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := cs.Put(frame)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
	}
	return encodeChunkManifest(len(body), addrs)
}

// restoreTestBody builds a body that exercises the engine: unique content
// interleaved with long zero runs, so the manifest repeats chunk
// addresses (the memoized path) as well as naming distinct ones.
func restoreTestBody(n int) []byte {
	body := make([]byte, n)
	for i := range body {
		if (i/512)%3 != 0 {
			body[i] = byte(i*7) ^ byte(i>>9) // aperiodic: distinct chunks stay distinct
		}
	}
	return body
}

func TestAssembleChunksParallelMatchesSerial(t *testing.T) {
	cs := storage.NewChunkStore(storage.NewMem())
	body := restoreTestBody(64 << 10)
	manifest := buildChunkedBody(t, cs, body, 1<<10)

	serial, err := assembleChunksOptions(cs, manifest, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, body) {
		t.Fatal("serial assembly diverged from the original body")
	}
	for _, opt := range []RestoreOptions{
		{Workers: 2},
		{Workers: 4, Prefetch: 1},
		{Workers: 8, Prefetch: 32},
		{Workers: 64}, // more workers than chunks
	} {
		got, err := assembleChunksOptions(cs, manifest, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", opt.Workers, err)
		}
		if !bytes.Equal(got, body) {
			t.Errorf("workers=%d prefetch=%d: parallel assembly not bitwise-identical", opt.Workers, opt.Prefetch)
		}
	}
}

func TestAssembleChunksParallelEmptyAndTiny(t *testing.T) {
	cs := storage.NewChunkStore(storage.NewMem())
	for _, n := range []int{0, 1, 1024, 1025} {
		body := restoreTestBody(n)
		manifest := buildChunkedBody(t, cs, body, 1<<10)
		got, err := assembleChunksOptions(cs, manifest, RestoreOptions{Workers: 4})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, body) {
			t.Errorf("n=%d: round trip mismatch", n)
		}
	}
}

// TestParallelRestoreCorruptChunk fault-injects one corrupt and one
// missing chunk mid-assembly and asserts the engine reports a
// deterministic ErrCorrupt, cancels its workers, and leaks no goroutines.
func TestParallelRestoreCorruptChunk(t *testing.T) {
	mem := storage.NewMem()
	cs := storage.NewChunkStore(mem)
	body := restoreTestBody(64 << 10)
	manifest := buildChunkedBody(t, cs, body, 1<<10)
	minfo, err := decodeChunkManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	addrs := minfo.addrs

	// Pick a distinct (non-repeated) victim in the middle of the manifest.
	counts := map[string]int{}
	for _, a := range addrs {
		counts[a]++
	}
	victim := ""
	for _, a := range addrs[len(addrs)/2:] {
		if counts[a] == 1 {
			victim = a
			break
		}
	}
	if victim == "" {
		t.Fatal("no unique chunk to corrupt")
	}
	victimKey := victim[:2] + "/" + victim
	good, err := mem.Get(victimKey)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0xFF
	if err := mem.Put(victimKey, bad); err != nil {
		t.Fatal(err)
	}

	opts := RestoreOptions{Workers: 8, Prefetch: 4}
	before := runtime.NumGoroutine()
	var firstMsg string
	for trial := 0; trial < 20; trial++ {
		_, err := assembleChunksOptions(cs, manifest, opts)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trial %d: err = %v, want ErrCorrupt", trial, err)
		}
		if !strings.Contains(err.Error(), victim[:12]) {
			t.Fatalf("trial %d: error does not name the corrupt chunk: %v", trial, err)
		}
		if firstMsg == "" {
			firstMsg = err.Error()
		} else if err.Error() != firstMsg {
			t.Fatalf("nondeterministic failure: %q vs %q", firstMsg, err.Error())
		}
	}

	// Missing chunk fails the same way.
	if err := mem.Delete(victimKey); err != nil {
		t.Fatal(err)
	}
	if _, err := assembleChunksOptions(cs, manifest, opts); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing chunk: err = %v, want ErrCorrupt", err)
	}

	// Every failed assembly must have drained its pool: allow the runtime
	// a moment to retire exiting goroutines, then compare.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutine leak: %d before, %d after failed restores", before, n)
	}
}

// TestLoadLatestParallelMatchesSerial drives the full recovery path — a
// chunked delta chain with the history demoted to a cold tier level —
// through both engines and demands bitwise-identical results.
func TestLoadLatestParallelMatchesSerial(t *testing.T) {
	levels := []storage.Level{
		{Name: "hot", Backend: storage.NewMem()},
		{Name: "cold", Backend: storage.NewMem()},
	}
	mgr, err := NewManager(chunkedOpts(Options{Tiers: levels, Strategy: StrategyDelta, AnchorEvery: 4}))
	if err != nil {
		t.Fatal(err)
	}
	states := bigSeqStates(10)
	for _, s := range states {
		if _, err := mgr.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	tiered := mgr.Backend().(*storage.Tiered)
	keys, err := tiered.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := tiered.Demote(k, 1); err != nil {
			t.Fatal(err)
		}
	}

	serial, serialReport, err := LoadLatestBackendOptions(tiered, nil, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, parallelReport, err := LoadLatestBackendOptions(tiered, nil, RestoreOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !parallel.Equal(serial) || !parallel.Equal(states[9]) {
		t.Error("parallel restore diverged from serial restore")
	}
	if parallelReport.Seq != serialReport.Seq || parallelReport.ChainLen != serialReport.ChainLen {
		t.Errorf("reports diverged: %+v vs %+v", parallelReport, serialReport)
	}
	if parallelReport.ChainLen < 2 {
		t.Errorf("chain length %d exercises no prefetch", parallelReport.ChainLen)
	}
}

// gatedBackend blocks snapshot-manifest Puts until released, exposing the
// window where a chunked save's chunks are durable but its manifest is
// not — the window the GC/in-flight-save race lives in.
type gatedBackend struct {
	storage.Backend
	arrived chan string   // receives the key of each blocked manifest Put
	release chan struct{} // closed to let blocked Puts proceed
}

func (g *gatedBackend) Put(key string, data []byte) error {
	if strings.HasPrefix(key, snapshotKeyPrefix) {
		g.arrived <- key
		<-g.release
	}
	return g.Backend.Put(key, data)
}

// TestGCDoesNotCollectInFlightChunks interleaves orphan-chunk GC with a
// mid-flight async chunked save: the save's chunks are fully ingested,
// its manifest commit is blocked, and GC runs. Without the Manager's pins
// every one of those chunks is an "orphan" (no manifest references them
// yet) and the committed manifest would dangle; with pins GC must leave
// them alone and the save must restore bitwise afterwards.
func TestGCDoesNotCollectInFlightChunks(t *testing.T) {
	mem := storage.NewMem()
	gated := &gatedBackend{Backend: mem, arrived: make(chan string, 1), release: make(chan struct{})}
	m, err := NewManager(Options{
		Backend: gated, Strategy: StrategyFull,
		ChunkBytes: MinChunkBytes, Workers: 2, Async: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	states := bigSeqStates(1)
	if _, err := m.Save(states[0]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gated.arrived: // all chunks ingested, manifest Put parked
	case <-time.After(5 * time.Second):
		t.Fatal("async save never reached the manifest commit")
	}

	cs := storage.NewChunkStore(storage.WithPrefix(mem, ChunkPrefix))
	chunksBefore, err := cs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(chunksBefore) == 0 {
		t.Fatal("no chunks ingested before the manifest commit")
	}
	removed, _, err := m.CollectOrphans()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("GC deleted %d in-flight chunk(s) out from under the uncommitted manifest", removed)
	}
	chunksAfter, err := cs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(chunksAfter) != len(chunksBefore) {
		t.Fatalf("chunk inventory changed under GC: %d -> %d", len(chunksBefore), len(chunksAfter))
	}

	close(gated.release)
	if err := m.Barrier(); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadLatestBackend(mem, nil)
	if err != nil {
		t.Fatalf("restore after GC-interleaved save: %v", err)
	}
	if !got.Equal(states[0]) {
		t.Error("state corrupted by GC racing the save")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Pins must drain with the commit: a post-commit pass collects nothing
	// (the manifest now holds the keep-set) and the pin table is empty.
	if removed, _, err := m.CollectOrphans(); err != nil || removed != 0 {
		t.Errorf("post-commit GC: removed=%d err=%v", removed, err)
	}
	if pinned := m.pinnedChunks(); len(pinned) != 0 {
		t.Errorf("%d chunk pin(s) leaked past the manifest commit", len(pinned))
	}
}

// TestParallelRestoreConcurrentReaders hammers one chunked directory with
// many concurrent parallel restores — the sharing pattern a fleet of
// resuming workers produces — and checks every reader sees the same
// state. Run with -race to check the cache and engine locking.
func TestParallelRestoreConcurrentReaders(t *testing.T) {
	mem := storage.NewMem()
	mgr, err := NewManager(chunkedOpts(Options{Backend: mem, Strategy: StrategyDelta, AnchorEvery: 4}))
	if err != nil {
		t.Fatal(err)
	}
	states := bigSeqStates(8)
	for _, s := range states {
		if _, err := mgr.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, _, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{Workers: 4})
			if err != nil {
				errCh <- err
				return
			}
			if !got.Equal(states[7]) {
				errCh <- fmt.Errorf("reader %d restored a diverged state", g)
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// accumStates yields n sub-step states over bigSeqStates whose gradient
// accumulator grows by 512 bytes a save (units recorded mid-step) or,
// with grow false, shrinks by 512 bytes a save (toward a step-boundary
// reset), so every delta link changes the payload length. The RNG blob is
// fresh noise each save, so its delta chunk is stored as a raw frame. The
// optimizer blob is one byte value per save, so its delta is a run of one
// nonzero byte: the delta names that nonzero chunk several times, and the
// engines share one decoded copy of it between those slots.
func accumStates(n int, grow bool) []*TrainingState {
	out := bigSeqStates(n)
	noise := rng.New(7)
	for i, s := range out {
		k := n - i
		if grow {
			k = i + 1
		}
		s.GradAccum = make([]byte, 512*k)
		for j := range s.GradAccum {
			s.GradAccum[j] = byte(j*31 + k)
		}
		s.Optimizer = bytes.Repeat([]byte{byte(i + 1)}, len(s.Optimizer))
		s.RNG = make([]byte, 2*MinChunkBytes)
		for j := range s.RNG {
			s.RNG[j] = byte(noise.Uint64())
		}
	}
	return out
}

// saveChain saves states through a chunked delta Manager on a fresh Mem
// store and returns the store.
func saveChain(t *testing.T, states []*TrainingState, o Options) *storage.Mem {
	t.Helper()
	mem := storage.NewMem()
	o.Backend, o.Strategy, o.ChunkBytes = mem, StrategyDelta, MinChunkBytes
	mgr, err := NewManager(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range states {
		if _, err := mgr.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	return mem
}

// referencePayload resolves ent the way restore did before links were
// applied in place: every link's body is read whole into its own buffer
// and applied with the non-mutating ApplyDelta.
func referencePayload(t *testing.T, v *snapshotView, ent indexEntry, byHash map[[32]byte]indexEntry) []byte {
	t.Helper()
	chain := []indexEntry{ent}
	for chain[len(chain)-1].h.Kind.Base() == KindDelta {
		chain = append(chain, byHash[chain[len(chain)-1].h.BaseHash])
	}
	_, payload, err := v.readBody(chain[len(chain)-1].key, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(chain) - 2; i >= 0; i-- {
		_, delta, err := v.readBody(chain[i].key, 0)
		if err != nil {
			t.Fatal(err)
		}
		if payload, err = ApplyDelta(payload, delta); err != nil {
			t.Fatal(err)
		}
	}
	return payload
}

// TestChainRestoreMatchesReference restores every snapshot of chunked
// delta chains whose payload grows or shrinks across links, under fixed
// and content-defined chunking and both engines, and demands the in-place
// chain apply equal the reference readBody + ApplyDelta path bitwise.
func TestChainRestoreMatchesReference(t *testing.T) {
	for _, chunker := range []Chunker{ChunkerFixed, ChunkerCDC} {
		for _, grow := range []bool{true, false} {
			states := accumStates(7, grow)
			mem := saveChain(t, states, Options{AnchorEvery: 8, Chunker: chunker})
			for _, opt := range []RestoreOptions{{}, {Workers: 2}} {
				name := fmt.Sprintf("chunker=%d/grow=%v/workers=%d", chunker, grow, opt.Workers)
				v := newSnapshotView(mem, opt)
				bySeq, byHash, skipped, err := v.buildIndex()
				if err != nil || len(skipped) != 0 || len(bySeq) != len(states) {
					t.Fatalf("%s: index %d entries, skipped %v, err %v", name, len(bySeq), skipped, err)
				}
				for _, ent := range bySeq {
					got, chainLen, err := v.resolvePayload(ent, byHash)
					if err != nil {
						t.Fatalf("%s seq %d: %v", name, ent.h.Seq, err)
					}
					want := referencePayload(t, v, ent, byHash)
					if !bytes.Equal(got, want) {
						t.Errorf("%s seq %d (chain %d): in-place restore diverged from the reference", name, ent.h.Seq, chainLen)
					}
					st, err := EncodePayload(states[ent.h.Seq])
					if err != nil || !bytes.Equal(got, st) {
						t.Errorf("%s seq %d: restored payload is not the saved state's", name, ent.h.Seq)
					}
				}
				_, body, err := DecodeSnapshotFile(mustGet(t, mem, bySeq[0].key))
				if err != nil {
					t.Fatal(err)
				}
				if info, _ := decodeChunkManifest(body); info.cdc != (chunker == ChunkerCDC) {
					t.Errorf("%s: newest manifest cdc=%v", name, info.cdc)
				}
			}
		}
	}
}

func mustGet(t *testing.T, b storage.Backend, key string) []byte {
	t.Helper()
	data, err := b.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// rewriteSnapshot replaces the snapshot object at key with one whose
// body (the chunk manifest, for chunked kinds) is edit's result, keeping
// the header, so only the edited field is wrong.
func rewriteSnapshot(t *testing.T, b storage.Backend, key string, edit func(body []byte) []byte) {
	t.Helper()
	h, body, err := DecodeSnapshotFile(mustGet(t, b, key))
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeSnapshotFile(h, edit(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put(key, data); err != nil {
		t.Fatal(err)
	}
}

// TestChainRestoreFallsBackOnBadLink breaks one link of a chunked delta
// chain in each way restore must catch — a delta header recording the
// wrong base length, a corrupt chunk mid-chain, a manifest claiming an
// absurd length — and checks that, under both engines, the broken
// snapshots land in LoadReport.Skipped and the newest snapshot whose
// chain avoids the link is restored bitwise.
func TestChainRestoreFallsBackOnBadLink(t *testing.T) {
	states := accumStates(7, true)
	cases := []struct {
		name      string
		back      int // how many snapshots back the broken link sits
		breakLink func(t *testing.T, mem *storage.Mem, key string)
	}{
		{"wrong baseLen", 0, func(t *testing.T, mem *storage.Mem, key string) {
			cs := storage.NewChunkStore(storage.WithPrefix(mem, ChunkPrefix))
			rewriteSnapshot(t, mem, key, func(manifest []byte) []byte {
				delta, err := assembleChunksOptions(cs, manifest, RestoreOptions{})
				if err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint64(delta[8:], binary.LittleEndian.Uint64(delta[8:])+1)
				return buildChunkedBody(t, cs, delta, MinChunkBytes)
			})
		}},
		{"corrupt chunk mid-chain", 2, func(t *testing.T, mem *storage.Mem, key string) {
			// A chunk only this link names, so no other link reads it.
			refs := map[string]int{}
			var own []string
			keys, err := mem.List(snapshotKeyPrefix)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				_, body, err := DecodeSnapshotFile(mustGet(t, mem, k))
				if err != nil {
					t.Fatal(err)
				}
				info, err := decodeChunkManifest(body)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range info.addrs {
					refs[a]++
				}
				if k == key {
					own = info.addrs
				}
			}
			for _, a := range own {
				if refs[a] == 1 {
					chunks := storage.WithPrefix(mem, ChunkPrefix)
					frame := mustGet(t, chunks, a[:2]+"/"+a)
					frame[len(frame)-1] ^= 0xFF
					if err := chunks.Put(a[:2]+"/"+a, frame); err != nil {
						t.Fatal(err)
					}
					return
				}
			}
			t.Fatal("no chunk unique to the mid-chain link")
		}},
		{"manifest rawLen 2^62", 1, func(t *testing.T, mem *storage.Mem, key string) {
			rewriteSnapshot(t, mem, key, func(manifest []byte) []byte {
				info, err := decodeChunkManifest(manifest)
				if err != nil {
					t.Fatal(err)
				}
				return encodeChunkManifest(1<<62, info.addrs)
			})
		}},
	}
	for _, c := range cases {
		for _, opt := range []RestoreOptions{{}, {Workers: 2}} {
			mem := saveChain(t, states, Options{AnchorEvery: 8})
			hs, _, err := ListSnapshotsBackend(mem)
			if err != nil {
				t.Fatal(err)
			}
			c.breakLink(t, mem, snapshotName(hs[c.back].Seq, hs[c.back].Kind))
			got, rep, err := LoadLatestBackendOptions(mem, nil, opt)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, opt.Workers, err)
			}
			wantSeq := hs[c.back+1].Seq
			if rep.Seq != wantSeq || !got.Equal(states[wantSeq]) {
				t.Errorf("%s workers=%d: restored seq %d, want seq %d bitwise", c.name, opt.Workers, rep.Seq, wantSeq)
			}
			if len(rep.Skipped) != c.back+1 {
				t.Errorf("%s workers=%d: skipped %q, want the %d snapshot(s) built on the broken link", c.name, opt.Workers, rep.Skipped, c.back+1)
			}
		}
	}
}

// TestAssembleChunksRejectsAbsurdLengths feeds both engines manifests and
// frames whose recorded lengths no chunker writes. Each must fail with
// ErrCorrupt before sizing a buffer from the length, not panic.
func TestAssembleChunksRejectsAbsurdLengths(t *testing.T) {
	cs := storage.NewChunkStore(storage.NewMem())
	body := restoreTestBody(8 << 10)
	info, err := decodeChunkManifest(buildChunkedBody(t, cs, body, 1<<10))
	if err != nil {
		t.Fatal(err)
	}
	for _, rawLen := range []int{
		4611686018427387904,             // 2^62: makeslice panics if trusted
		len(info.addrs)*maxChunkRaw + 1, // one past what the addresses can hold
		2 * len(body),                   // in bound, but the chunks stop short
		len(body) - 1,                   // the chunks run past it
	} {
		manifest := encodeChunkManifest(rawLen, info.addrs)
		for _, opt := range []RestoreOptions{{}, {Workers: 2}} {
			if _, err := assembleChunksOptions(cs, manifest, opt); !errors.Is(err, ErrCorrupt) {
				t.Errorf("rawLen=%d workers=%d: err = %v, want ErrCorrupt", rawLen, opt.Workers, err)
			}
		}
	}
	for _, frame := range [][]byte{
		{chunkFrameFlate, 0xFF, 0xFF, 0xFF, 0xFF}, // a 4 GiB hint
		{chunkFrameRaw, 0xFF, 0xFF, 0xFF, 0xFF},
	} {
		if _, err := decodeChunkFrame(frame); !errors.Is(err, ErrCorrupt) {
			t.Errorf("frame %x: err = %v, want ErrCorrupt", frame, err)
		}
	}
}

// TestVerifyBackendLeavesSharedBytesIntact is the aliasing guard for the
// in-place chain apply. VerifyBackend resolves every snapshot of several
// chains through one cached view, re-reading each anchor and link once
// per snapshot built on it, and each delta names memoized chunks, zero
// and nonzero, that every slot naming them shares. Were any XOR to land
// in those bytes instead of the chain's own payload buffer, a later slot
// or snapshot would fail its hash check. A restore afterwards must still
// be bitwise exact.
func TestVerifyBackendLeavesSharedBytesIntact(t *testing.T) {
	states := accumStates(14, true)
	mem := saveChain(t, states, Options{AnchorEvery: 4, Workers: 2})
	hs, _, err := ListSnapshotsBackend(mem)
	if err != nil {
		t.Fatal(err)
	}
	anchors := 0
	for _, h := range hs {
		if h.Kind.Base() == KindFull {
			anchors++
		}
	}
	if len(hs) != len(states) || anchors < 3 {
		t.Fatalf("%d snapshots in %d chains, want %d in at least 3", len(hs), anchors, len(states))
	}
	ok, problems, err := VerifyBackend(mem)
	if err != nil || ok != len(states) || len(problems) != 0 {
		t.Fatalf("VerifyBackend: ok=%d problems=%v err=%v", ok, problems, err)
	}
	for _, opt := range []RestoreOptions{{}, {Workers: 2}} {
		got, rep, err := LoadLatestBackendOptions(mem, nil, opt)
		if err != nil || !got.Equal(states[len(states)-1]) || len(rep.Skipped) != 0 {
			t.Errorf("workers=%d: restore after verify: skipped %v, err %v", opt.Workers, rep.Skipped, err)
		}
	}
}

// BenchmarkRestoreDeltaChain is the delta-apply rung of the restore path:
// it resolves an 8-link chain of sub-step saves (an anchor and 7 deltas)
// of a P = 131072 state (4 MiB payload, 64 KiB chunks) on storage.Mem
// with two restore workers, through a fresh view each iteration as every
// restore gets. Each sub-step save records 4 more parameter-shift units
// in the accumulator and moves the RNG and counters, so each delta body
// is almost all the memoized zero chunk and the payload grows per link.
func BenchmarkRestoreDeltaChain(b *testing.B) {
	const p = 131072
	s := NewTrainingState()
	s.Meta = Meta{FormatVersion: FormatVersion, CircuitFP: "c", ProblemFP: "p", OptimizerName: "adam"}
	s.Params, s.BestParams = make([]float64, p), make([]float64, p)
	for i := range s.Params {
		s.Params[i] = float64(i) * 1e-3
		s.BestParams[i] = s.Params[i]
	}
	s.Optimizer = make([]byte, 16*p)
	noise := rng.New(1)
	for i := range s.Optimizer {
		s.Optimizer[i] = byte(noise.Uint64())
	}
	mem := storage.NewMem()
	mgr, err := NewManager(Options{Backend: mem, Strategy: StrategyDelta, AnchorEvery: 16, ChunkBytes: 64 << 10, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	for link := 0; link < 8; link++ {
		s = s.Clone()
		s.GradAccum = append(s.GradAccum, make([]byte, 32)...)
		binary.LittleEndian.PutUint64(s.GradAccum[len(s.GradAccum)-8:], noise.Uint64())
		s.RNG = binary.LittleEndian.AppendUint64(nil, noise.Uint64())
		s.Counters.Jobs += 4
		if _, err := mgr.Save(s); err != nil {
			b.Fatal(err)
		}
	}
	if err := mgr.Close(); err != nil {
		b.Fatal(err)
	}
	want, err := EncodePayload(s)
	if err != nil {
		b.Fatal(err)
	}
	opt := RestoreOptions{Workers: 2}
	bySeq, byHash, _, err := newSnapshotView(mem, opt).buildIndex()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(want)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, chainLen, err := newSnapshotView(mem, opt).resolvePayload(bySeq[0], byHash)
		if err != nil || chainLen != 8 || len(got) != len(want) {
			b.Fatalf("chain %d, %d bytes, err %v", chainLen, len(got), err)
		}
	}
	b.StopTimer()
	got, _, _ := newSnapshotView(mem, opt).resolvePayload(bySeq[0], byHash)
	if !bytes.Equal(got, want) {
		b.Fatal("restored payload diverged from the saved state")
	}
}
