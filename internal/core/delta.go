package core

import (
	"encoding/binary"
	"fmt"
)

// Delta encoding operates on canonical payloads: the delta of `cur` against
// `base` is cur XOR base over their common prefix, followed by cur's raw
// tail (payload lengths change when the loss history grows or the gradient
// accumulator fills). Because training state changes slowly — parameters
// move in low-order mantissa bits, most sections are untouched between
// sub-step checkpoints — the XOR stream is overwhelmingly zero bytes, which
// the flate layer in the snapshot writer then collapses. Experiment F5
// measures the resulting ratio.
//
// The XOR runs eight bytes per step (uint64 words with a byte tail):
// payloads are multi-megabyte and the delta encode sits on the synchronous
// save path, where the former byte-at-a-time loop was a measurable part of
// the stall.
//
// Wire format:
//
//	curLen  uint64
//	baseLen uint64 (validated at apply time)
//	body    [curLen]byte — XOR over min(curLen, baseLen), raw beyond
//
// Restore applies a chain's deltas in place: the anchor's payload buffer
// is resized to each link's curLen (zero-extended when it grows) and the
// link's body is XORed into it, so the raw tail lands as-is.

// xorWith XORs src into dst in place over their common length, word-wise
// with a byte tail.
func xorWith(dst, src []byte) {
	n := min(len(dst), len(src))
	i := 0
	for ; i+8 <= n; i += 8 {
		x := binary.LittleEndian.Uint64(dst[i:]) ^ binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// EncodeDelta computes the delta of cur against base.
func EncodeDelta(base, cur []byte) []byte {
	return AppendDelta(make([]byte, 0, 16+len(cur)), base, cur)
}

// AppendDelta appends the delta of cur against base to dst and returns the
// extended slice. With 16+len(cur) spare capacity it allocates nothing,
// which is how the save path uses it (pooled delta-body buffers).
func AppendDelta(dst, base, cur []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(cur)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(base)))
	off := len(dst)
	dst = append(dst, cur...)
	xorWith(dst[off:], base)
	return dst
}

// deltaHeader is the fixed curLen+baseLen prefix of a delta.
const deltaHeader = 16

// ApplyDelta reconstructs cur from base and a delta produced by
// EncodeDelta, leaving base untouched. It rejects deltas whose recorded
// base length does not match the supplied base (wrong chain link). It is
// the reference the in-place chain paths are tested against.
func ApplyDelta(base, delta []byte) ([]byte, error) {
	out := make([]byte, len(base), max(len(base), len(delta)-deltaHeader))
	copy(out, base)
	return applyDeltaInPlace(out, delta)
}

// applyDeltaInPlace is ApplyDelta on a payload the caller owns: the
// payload is resized to the delta's length and the body XORed into it
// where it lies. The result may share payload's backing array.
func applyDeltaInPlace(payload, delta []byte) ([]byte, error) {
	if len(delta) < deltaHeader {
		return nil, fmt.Errorf("core: delta too short (%d bytes)", len(delta))
	}
	payload, err := beginDelta(payload, delta[:deltaHeader], len(delta)-deltaHeader)
	if err != nil {
		return nil, err
	}
	xorWith(payload, delta[deltaHeader:])
	return payload, nil
}

// beginDelta is the one delta header check. It verifies the recorded base
// length against payload and the recorded curLen against bodyLen, the
// length of the body that follows the header, then resizes payload to
// curLen: truncated when the payload shrinks, zero-extended when it
// grows, so XORing the body over the result yields cur. curLen is only
// trusted once it equals bodyLen, which the caller has already bounded by
// the bytes it holds or the manifest it checked.
func beginDelta(payload, hdr []byte, bodyLen int) ([]byte, error) {
	curLen := binary.LittleEndian.Uint64(hdr)
	baseLen := binary.LittleEndian.Uint64(hdr[8:])
	if baseLen != uint64(len(payload)) {
		return nil, fmt.Errorf("core: delta expects base of %d bytes, got %d", baseLen, len(payload))
	}
	if uint64(bodyLen) != curLen {
		return nil, fmt.Errorf("core: delta body %d bytes, header says %d", bodyLen, curLen)
	}
	if bodyLen <= len(payload) {
		return payload[:bodyLen], nil
	}
	return append(payload, make([]byte, bodyLen-len(payload))...), nil
}
