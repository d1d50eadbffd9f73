package dist

import (
	"encoding/binary"
	"fmt"
	"io"
)

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
