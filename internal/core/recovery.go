package core

import (
	"errors"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"sort"

	"repro/internal/storage"
)

// ErrNoCheckpoint is returned by LoadLatest when the directory contains no
// usable snapshot.
var ErrNoCheckpoint = errors.New("core: no usable checkpoint found")

// LoadReport describes a recovery: which snapshot was restored, how long
// its delta chain was, and what was skipped on the way.
type LoadReport struct {
	Path     string
	Seq      uint64
	Step     uint64
	ChainLen int      // snapshots read to reconstruct (1 for a full)
	Skipped  []string // corrupt or unresolvable candidates, newest first
}

// indexEntry caches one snapshot object's header for chain resolution.
type indexEntry struct {
	key string
	h   Header
}

// recoveryCacheBytes bounds the LRU read cache under every snapshotView.
// Chain resolution re-reads anchors and shared chunks once per candidate;
// on a Tiered backend each re-read of a demoted object would otherwise be
// billed at cold-device cost. 64 MiB holds the working set of any chain
// the engine realistically writes while staying far from memory pressure.
const recoveryCacheBytes = 64 << 20

// snapshotView reads snapshots (including chunked ones) from a backend,
// through a bounded LRU read cache: a cold-tier restore pays the cold
// fetch once and every later touch — repeated chain resolution, shared
// chunks between deltas — is served warm. Its RestoreOptions select the
// serial or parallel chunk-assembly engine (restore.go); the cache below
// it is safe under the engine's concurrent readers.
type snapshotView struct {
	b    storage.Backend
	cs   *storage.ChunkStore
	opts RestoreOptions
}

func newSnapshotView(b storage.Backend, opts RestoreOptions) *snapshotView {
	cb := storage.NewCache(b, recoveryCacheBytes)
	return &snapshotView{b: cb, cs: storage.NewChunkStore(storage.WithPrefix(cb, ChunkPrefix)), opts: opts}
}

// open fetches the snapshot object at key and verifies its framing,
// returning the header and the file body: the payload or delta bytes, or
// the parsed manifest of a chunked kind.
func (v *snapshotView) open(key string) (Header, []byte, chunkManifestInfo, error) {
	data, err := v.b.Get(key)
	if err != nil {
		return Header{}, nil, chunkManifestInfo{}, err
	}
	h, body, err := DecodeSnapshotFile(data)
	if err != nil || !h.Kind.Chunked() {
		return h, body, chunkManifestInfo{}, err
	}
	info, err := decodeChunkManifest(body)
	return h, nil, info, err
}

// readBody fully verifies the snapshot object at key and returns its
// resolved body, the payload or delta bytes, in a buffer the caller owns.
// A chunked body is assembled into capacity for at least minCap bytes.
func (v *snapshotView) readBody(key string, minCap int) (Header, []byte, error) {
	h, body, info, err := v.open(key)
	if err != nil || !h.Kind.Chunked() {
		return h, body, err
	}
	body, err = assembleBody(v.cs, info, v.opts, minCap)
	return h, body, err
}

// applyLink applies the delta snapshot at key to payload in place and
// returns the result, which may share payload's backing array. A chunked
// delta streams its chunks straight into payload (deltaSink); a
// monolithic one is XORed in whole.
func (v *snapshotView) applyLink(key string, payload []byte) ([]byte, error) {
	h, body, info, err := v.open(key)
	if err != nil {
		return nil, err
	}
	if !h.Kind.Chunked() {
		return applyDeltaInPlace(payload, body)
	}
	if info.rawLen < deltaHeader {
		return nil, fmt.Errorf("core: delta too short (%d bytes)", info.rawLen)
	}
	d := deltaSink{payload: payload, bodyLen: info.rawLen - deltaHeader}
	if err := streamChunks(v.cs, info, v.opts, d.put); err != nil {
		return nil, err
	}
	return d.payload, nil
}

// linkLen is the payload length the delta link ent reconstructs, read
// from its chunk manifest; 0 when unknown. A monolithic link is not read
// ahead, since its length is only known by inflating the whole body.
// Errors are left to the link's apply.
func (v *snapshotView) linkLen(ent indexEntry) int {
	if ent.h.Kind != KindDeltaChunked {
		return 0
	}
	h, _, info, err := v.open(ent.key)
	if err != nil || !h.Kind.Chunked() {
		return 0
	}
	return info.rawLen - deltaHeader
}

// buildIndex parses the header of every snapshot object in the backend.
// Objects whose header cannot be parsed are reported in skipped but do not
// abort the scan.
func (v *snapshotView) buildIndex() (bySeq []indexEntry, byPayloadHash map[[32]byte]indexEntry, skipped []string, err error) {
	keys, err := v.b.List(snapshotKeyPrefix)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: list checkpoints: %w", err)
	}
	byPayloadHash = make(map[[32]byte]indexEntry)
	for _, key := range keys {
		if _, _, ok := parseSnapshotName(key); !ok {
			continue
		}
		buf, gerr := storage.GetRange(v.b, key, 0, headerSize)
		if gerr != nil {
			skipped = append(skipped, key)
			continue
		}
		h, herr := parseHeaderBytes(buf)
		if herr != nil {
			skipped = append(skipped, key)
			continue
		}
		ent := indexEntry{key: key, h: h}
		bySeq = append(bySeq, ent)
		byPayloadHash[h.PayloadHash] = ent
	}
	sort.Slice(bySeq, func(i, j int) bool { return bySeq[i].h.Seq > bySeq[j].h.Seq })
	return bySeq, byPayloadHash, skipped, nil
}

// maxChainLen bounds delta-chain resolution against cyclic or degenerate
// metadata.
const maxChainLen = 1 << 16

// resolvePayload reconstructs the canonical payload of the snapshot at ent,
// following the delta chain back to its full anchor. The anchor's body is
// the one payload buffer: every later link is applied to it in place, and
// each link's payload hash is checked before the next link applies. Under
// parallel RestoreOptions the next link's manifest and chunks are
// prefetched into the view's cache while the current link is fetched and
// applied, so cold I/O for link N+1 overlaps the CPU work of link N.
func (v *snapshotView) resolvePayload(ent indexEntry, byPayloadHash map[[32]byte]indexEntry) (payload []byte, chainLen int, err error) {
	// Walk back collecting the chain: ent, base(ent), base(base(ent)), …
	chain := []indexEntry{ent}
	cur := ent
	for cur.h.Kind.Base() == KindDelta {
		if len(chain) > maxChainLen {
			return nil, 0, fmt.Errorf("%w: delta chain too long", ErrCorrupt)
		}
		base, ok := byPayloadHash[cur.h.BaseHash]
		if !ok {
			return nil, 0, fmt.Errorf("%w: delta base %x… missing", ErrCorrupt, cur.h.BaseHash[:6])
		}
		chain = append(chain, base)
		cur = base
	}
	// Apply forward from the anchor. The deferred wait ensures no warmer
	// outlives resolution, error or not.
	var pf prefetcher
	defer pf.wait()
	var warmed func() // wait for the in-flight warm of the next link
	if v.opts.parallel() && len(chain) >= 2 {
		warmed = pf.start(v, chain[len(chain)-2].key)
	}
	// The anchor's body is sized for the newest link too, so a payload
	// that grows along the chain (an accumulator filling between steps)
	// is not regrown link by link.
	newest := 0
	if len(chain) > 1 {
		newest = v.linkLen(chain[0])
	}
	_, payload, err = v.readBody(chain[len(chain)-1].key, newest)
	if err != nil {
		return nil, 0, err
	}
	if PayloadHash(payload) != chain[len(chain)-1].h.PayloadHash {
		return nil, 0, fmt.Errorf("%w: anchor payload hash mismatch", ErrCorrupt)
	}
	for i := len(chain) - 2; i >= 0; i-- {
		ready := warmed
		warmed = nil
		if v.opts.parallel() && i-1 >= 0 {
			warmed = pf.start(v, chain[i-1].key)
		}
		if ready != nil {
			ready() // this link's warm has run since the previous iteration
		}
		payload, err = v.applyLink(chain[i].key, payload)
		if err != nil {
			return nil, 0, err
		}
		if PayloadHash(payload) != chain[i].h.PayloadHash {
			return nil, 0, fmt.Errorf("%w: reconstructed payload hash mismatch at seq %d", ErrCorrupt, chain[i].h.Seq)
		}
	}
	return payload, len(chain), nil
}

// dirBackend opens dir as a local backend for the dir-based entry points,
// refusing to create the directory as a side effect of a read.
func dirBackend(dir string) (storage.Backend, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("core: read checkpoint dir: %w", err)
	}
	return storage.NewLocal(dir)
}

// LoadLatestBackend restores the newest valid snapshot stored in b,
// falling back to older snapshots when the newest is corrupt or its chain
// is broken. If live is non-nil, snapshots whose Meta is incompatible with
// *live are skipped (with an error recorded) rather than restored into the
// wrong run. The report's Path is the backend key. Restore is serial; use
// LoadLatestBackendOptions to enable the parallel engine.
func LoadLatestBackend(b storage.Backend, live *Meta) (*TrainingState, LoadReport, error) {
	return LoadLatestBackendOptions(b, live, RestoreOptions{})
}

// LoadLatestBackendOptions is LoadLatestBackend with restore-engine
// options: chunked bodies are assembled by opts.Workers concurrent
// fetch+decompress workers and delta chains prefetch their next link
// while the current one applies. The recovered state is bitwise-identical
// to a serial restore's.
func LoadLatestBackendOptions(b storage.Backend, live *Meta, opts RestoreOptions) (*TrainingState, LoadReport, error) {
	v := newSnapshotView(b, opts)
	bySeq, byHash, skipped, err := v.buildIndex()
	if err != nil {
		return nil, LoadReport{}, err
	}
	report := LoadReport{Skipped: skipped}
	for _, ent := range bySeq {
		payload, chainLen, err := v.resolvePayload(ent, byHash)
		if err != nil {
			report.Skipped = append(report.Skipped, fmt.Sprintf("%s: %v", path.Base(ent.key), err))
			continue
		}
		state, err := DecodePayload(payload)
		if err != nil {
			report.Skipped = append(report.Skipped, fmt.Sprintf("%s: %v", path.Base(ent.key), err))
			continue
		}
		if live != nil {
			if err := state.Meta.CompatibleWith(*live); err != nil {
				report.Skipped = append(report.Skipped, fmt.Sprintf("%s: %v", path.Base(ent.key), err))
				continue
			}
		}
		report.Path = ent.key
		report.Seq = ent.h.Seq
		report.Step = ent.h.Step
		report.ChainLen = chainLen
		return state, report, nil
	}
	return nil, report, ErrNoCheckpoint
}

// LoadLatest restores the newest valid snapshot in dir (see
// LoadLatestBackend). The report's Path is the snapshot's file path.
func LoadLatest(dir string, live *Meta) (*TrainingState, LoadReport, error) {
	return LoadLatestOptions(dir, live, RestoreOptions{})
}

// LoadLatestOptions restores the newest valid snapshot in dir through the
// restore engine configured by opts (see LoadLatestBackendOptions).
func LoadLatestOptions(dir string, live *Meta, opts RestoreOptions) (*TrainingState, LoadReport, error) {
	b, err := dirBackend(dir)
	if err != nil {
		return nil, LoadReport{}, err
	}
	state, report, err := LoadLatestBackendOptions(b, live, opts)
	if report.Path != "" {
		report.Path = filepath.Join(dir, filepath.FromSlash(report.Path))
	}
	return state, report, err
}

// ReadSnapshotBody loads one snapshot file and resolves its body — the
// canonical payload for full snapshots, the delta bytes for deltas —
// assembling chunked bodies through the chunk store next to the file
// (<dir>/chunks).
func ReadSnapshotBody(filePath string) (Header, []byte, error) {
	h, body, err := ReadSnapshotFile(filePath)
	if err != nil {
		return h, nil, err
	}
	if h.Kind.Chunked() {
		b, berr := dirBackend(filepath.Dir(filePath))
		if berr != nil {
			return h, nil, berr
		}
		body, err = assembleChunksOptions(newSnapshotView(b, RestoreOptions{}).cs, body, RestoreOptions{})
		if err != nil {
			return h, nil, err
		}
	}
	return h, body, nil
}

// VerifyFile fully verifies a single snapshot file: whole-file hash,
// decompression, and — for full snapshots — payload hash and decodability.
// Chunked snapshots are resolved through the chunk store next to the file
// (<dir>/chunks). Delta bodies are verified up to their own bytes; chain
// application requires the base (use VerifyDir for that).
func VerifyFile(filePath string) (Header, error) {
	h, body, err := ReadSnapshotBody(filePath)
	if err != nil {
		return h, err
	}
	if h.Kind.Base() == KindFull {
		if PayloadHash(body) != h.PayloadHash {
			return h, fmt.Errorf("%w: payload hash mismatch", ErrCorrupt)
		}
		if _, err := DecodePayload(body); err != nil {
			return h, err
		}
	}
	return h, nil
}

// VerifyBackend verifies every snapshot in b including delta-chain and
// chunk resolution; it returns one error message per broken snapshot.
func VerifyBackend(b storage.Backend) (ok int, problems []string, err error) {
	v := newSnapshotView(b, RestoreOptions{})
	bySeq, byHash, skipped, err := v.buildIndex()
	if err != nil {
		return 0, nil, err
	}
	problems = append(problems, skipped...)
	for _, ent := range bySeq {
		payload, _, rerr := v.resolvePayload(ent, byHash)
		if rerr != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", path.Base(ent.key), rerr))
			continue
		}
		if _, derr := DecodePayload(payload); derr != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", path.Base(ent.key), derr))
			continue
		}
		ok++
	}
	return ok, problems, nil
}

// VerifyDir verifies every snapshot in dir (see VerifyBackend).
func VerifyDir(dir string) (ok int, problems []string, err error) {
	b, err := dirBackend(dir)
	if err != nil {
		return 0, nil, err
	}
	return VerifyBackend(b)
}

// ListSnapshotsBackend returns headers of all parseable snapshots in b,
// newest first.
func ListSnapshotsBackend(b storage.Backend) ([]Header, []string, error) {
	bySeq, _, skipped, err := newSnapshotView(b, RestoreOptions{}).buildIndex()
	if err != nil {
		return nil, nil, err
	}
	hs := make([]Header, len(bySeq))
	for i, e := range bySeq {
		hs[i] = e.h
	}
	return hs, skipped, nil
}

// ListSnapshots returns headers of all parseable snapshots in dir, newest
// first.
func ListSnapshots(dir string) ([]Header, []string, error) {
	b, err := dirBackend(dir)
	if err != nil {
		return nil, nil, err
	}
	return ListSnapshotsBackend(b)
}
