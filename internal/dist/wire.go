package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"
)

// Zero-copy wire conversions. The feature-gather hot path reinterprets
// int32/float32 slices as their byte payloads (and back) instead of
// encoding element by element, so a request list or a feature row crosses
// the transport with exactly one copy (the transport's own send copy).
//
// The views use host byte order. Every supported deployment of this
// reproduction runs all ranks inside one process (channel or loopback-TCP
// transport), so encoder and decoder always agree; host order is
// little-endian on the amd64/arm64 targets. The returned
// slices alias their argument — they are views, not copies — and payloads
// handed to AllToAll are only read until the collective returns.

// maxFrame bounds a single transport frame (1 GiB). Feature payloads at
// reproduction scale are a few MiB; anything beyond the bound is treated
// as a corrupt or hostile header rather than allocated.
const maxFrame = 1 << 30

// decodeFrame reads one length-prefixed frame from r into buf's storage: a
// little-endian u32 length followed by that many payload bytes. The
// returned payload reuses buf's capacity, so a receiver that hands back
// what it got last time allocates nothing once its buffer fits the
// largest frame. It returns an error — never panics, never allocates more
// than the bytes actually present — on corrupt input: the payload buffer
// grows incrementally in bounded chunks while reading, so a lying length
// prefix on a truncated stream costs at most one chunk. This is the TCP
// transport's receive path and the fuzz surface of FuzzFrameDecode.
func decodeFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 {
		return buf[:0], nil
	}
	if n > maxFrame {
		return nil, fmt.Errorf("dist: frame of %d bytes exceeds the %d-byte limit", n, maxFrame)
	}
	// Fill the current capacity, then grow geometrically (doubling from at
	// least 64 KiB, capped at n): a truthful header costs O(log(n/64Ki))
	// allocations with at most 2x total copy traffic, and none once buf
	// has grown to fit, while a lying header on a truncated stream
	// allocates at most ~2x the bytes actually read plus one 64 KiB
	// floor — growth only happens after the previous capacity was really
	// received.
	const chunk = 64 << 10
	buf = buf[:0]
	for len(buf) < int(n) {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(int(n), max(2*cap(buf), chunk)))
			copy(grown, buf)
			buf = grown
		}
		lo := len(buf)
		hi := min(int(n), cap(buf))
		buf = buf[:hi]
		if _, err := io.ReadFull(r, buf[lo:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// i32AsBytes returns the byte view of x.
func i32AsBytes(x []int32) []byte {
	if len(x) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&x[0])), 4*len(x))
}

// bytesAsI32 returns the int32 view of b (truncating any partial trailing
// element). b must be 4-byte aligned, which heap-allocated payloads of
// element size ≥ 4 always are.
func bytesAsI32(b []byte) []int32 {
	if len(b) < 4 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// f32AsBytes returns the byte view of x.
func f32AsBytes(x []float32) []byte {
	if len(x) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&x[0])), 4*len(x))
}

// bytesAsF32 returns the float32 view of b (truncating any partial
// trailing element). Alignment as for bytesAsI32.
func bytesAsF32(b []byte) []float32 {
	if len(b) < 4 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
}
