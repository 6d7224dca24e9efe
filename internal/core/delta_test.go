package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/storage"
)

// applyStreamed applies delta to a copy of base the way chain restore
// does for a chunked link: delta is chunked at chunkBytes (small sizes
// make the 16-byte header straddle chunks) and the engine opt selects
// streams it through a deltaSink into the payload in place.
func applyStreamed(t *testing.T, base, delta []byte, chunkBytes int, opt RestoreOptions) ([]byte, error) {
	t.Helper()
	cs := storage.NewChunkStore(storage.NewMem())
	info, err := decodeChunkManifest(buildChunkedBody(t, cs, delta, chunkBytes))
	if err != nil {
		t.Fatal(err)
	}
	d := deltaSink{payload: append([]byte(nil), base...), bodyLen: info.rawLen - deltaHeader}
	if err := streamChunks(cs, info, opt, d.put); err != nil {
		return nil, err
	}
	return d.payload, nil
}

// inPlaceCases are the chunkings and engines every in-place apply is
// checked under, against the reference ApplyDelta.
var inPlaceCases = []struct {
	chunkBytes int
	opt        RestoreOptions
}{
	{3, RestoreOptions{}}, {3, RestoreOptions{Workers: 2}},
	{16, RestoreOptions{}}, {1024, RestoreOptions{Workers: 2}},
}

func TestDeltaRoundTripSameLength(t *testing.T) {
	base := []byte{1, 2, 3, 4, 5}
	cur := []byte{1, 2, 9, 4, 5}
	d := EncodeDelta(base, cur)
	got, err := ApplyDelta(base, d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cur) {
		t.Errorf("round trip: %v != %v", got, cur)
	}
}

func TestDeltaRoundTripGrowShrink(t *testing.T) {
	base := []byte{1, 2, 3}
	grown := []byte{1, 2, 3, 4, 5, 6}
	shrunk := []byte{9}
	// Repeated chunks at 3 bytes, which the engines memoize: all-zero
	// runs, whose XOR is skipped, and a nonzero pattern, whose is not.
	long := make([]byte, 40)
	long[0], long[39] = 1, 2
	pattern := bytes.Repeat([]byte{5, 6, 7}, 20)
	for _, cur := range [][]byte{grown, shrunk, {}, base, long, pattern} {
		d := EncodeDelta(base, cur)
		got, err := ApplyDelta(base, d)
		if err != nil {
			t.Fatalf("cur=%v: %v", cur, err)
		}
		if !bytes.Equal(got, cur) {
			t.Errorf("cur=%v: got %v", cur, got)
		}
		if !bytes.Equal(base, []byte{1, 2, 3}) {
			t.Fatalf("ApplyDelta modified its base: %v", base)
		}
		// The in-place paths must match the reference bitwise, including
		// over a payload whose capacity already exceeds cur: the grown
		// region must read as zeros, not as stale bytes.
		stale := append(bytes.Repeat([]byte{0xEE}, 64)[:0], base...)
		for _, payload := range [][]byte{append([]byte(nil), base...), stale} {
			got, err := applyDeltaInPlace(payload, d)
			if err != nil || !bytes.Equal(got, cur) {
				t.Errorf("cur=%v: in place got %v, %v", cur, got, err)
			}
		}
		for _, c := range inPlaceCases {
			got, err := applyStreamed(t, base, d, c.chunkBytes, c.opt)
			if err != nil || !bytes.Equal(got, cur) {
				t.Errorf("cur=%v chunk=%d workers=%d: streamed got %v, %v", cur, c.chunkBytes, c.opt.Workers, got, err)
			}
		}
	}
}

func TestDeltaIdentityIsZeros(t *testing.T) {
	base := []byte{7, 7, 7, 7}
	d := EncodeDelta(base, base)
	body := d[16:]
	for i, b := range body {
		if b != 0 {
			t.Errorf("identical payloads produced nonzero delta byte at %d", i)
		}
	}
}

func TestDeltaRejectsWrongBase(t *testing.T) {
	base := []byte{1, 2, 3, 4}
	cur := []byte{1, 2, 3, 5}
	d := EncodeDelta(base, cur)
	if _, err := ApplyDelta([]byte{1, 2, 3}, d); err == nil {
		t.Errorf("wrong-length base accepted")
	}
	if _, err := ApplyDelta(base, d[:10]); err == nil {
		t.Errorf("truncated delta accepted")
	}
	if _, err := ApplyDelta(base, append(d, 0)); err == nil {
		t.Errorf("oversized delta accepted")
	}
	for _, c := range inPlaceCases {
		if _, err := applyStreamed(t, []byte{1, 2, 3}, d, c.chunkBytes, c.opt); err == nil {
			t.Errorf("chunk=%d workers=%d: streamed apply accepted a wrong-length base", c.chunkBytes, c.opt.Workers)
		}
		if _, err := applyStreamed(t, base, append(d, 0), c.chunkBytes, c.opt); err == nil {
			t.Errorf("chunk=%d workers=%d: streamed apply accepted an oversized delta", c.chunkBytes, c.opt.Workers)
		}
	}
	// A header claiming an absurd curLen is refused before anything is
	// sized from it.
	huge := append([]byte(nil), d...)
	binary.LittleEndian.PutUint64(huge, 1<<62)
	if _, err := ApplyDelta(base, huge); err == nil {
		t.Errorf("delta with curLen 2^62 accepted")
	}
	if _, err := applyStreamed(t, base, huge, 3, RestoreOptions{Workers: 2}); err == nil {
		t.Errorf("streamed delta with curLen 2^62 accepted")
	}
}

func TestDeltaRoundTripProperty(t *testing.T) {
	f := func(seedA, seedB uint64, lenA, lenB uint16) bool {
		ra, rb := rng.New(seedA), rng.New(seedB)
		base := make([]byte, int(lenA)%512)
		cur := make([]byte, int(lenB)%512)
		for i := range base {
			base[i] = byte(ra.Uint64())
		}
		for i := range cur {
			cur[i] = byte(rb.Uint64())
		}
		d := EncodeDelta(base, cur)
		got, err := ApplyDelta(base, d)
		if err != nil || !bytes.Equal(got, cur) {
			return false
		}
		c := inPlaceCases[int(lenA^lenB)%len(inPlaceCases)]
		got, err = applyStreamed(t, base, d, c.chunkBytes, c.opt)
		return err == nil && bytes.Equal(got, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDeltaOfSimilarStatesMostlyZero(t *testing.T) {
	// The motivating property: two adjacent training states differ only in
	// a few floats, so the XOR delta is mostly zero bytes (F5's mechanism).
	a := sampleState()
	a.Params = make([]float64, 512)
	for i := range a.Params {
		a.Params[i] = float64(i) * 0.31
	}
	a.BestParams = append([]float64{}, a.Params...)
	b := a.Clone()
	b.Step++
	b.Params[1] += 1e-9
	b.LossHistory = append(b.LossHistory, 0.24)

	pa, _ := EncodePayload(a)
	pb, _ := EncodePayload(b)
	d := EncodeDelta(pa, pb)
	zeros := 0
	for _, v := range d[16:] {
		if v == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / float64(len(d)-16)
	if frac < 0.7 {
		t.Errorf("delta of adjacent states only %.0f%% zero", frac*100)
	}
}
