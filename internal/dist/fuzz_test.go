package dist

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzFrameDecode drives the transport's frame decoder with arbitrary
// bytes: decodeFrame must error — never panic, never allocate beyond the
// bytes actually present — on truncated, oversized, or garbage input, and
// any frame it accepts must match a re-encode of its payload.
func FuzzFrameDecode(f *testing.F) {
	frame := func(payload []byte) []byte {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
		return append(hdr[:], payload...)
	}
	// Seed corpus: empty frame, small frame, truncated frame, a header
	// claiming far more bytes than follow, and an over-limit length.
	f.Add(frame(nil))
	f.Add(frame([]byte("feature payload")))
	f.Add(frame([]byte("feature payload"))[:6])
	f.Add([]byte{0xff, 0xff, 0x00, 0x00, 1, 2, 3})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		payload, err := decodeFrame(r, nil)
		if err != nil {
			return
		}
		if len(payload) > len(data)-4 {
			t.Fatalf("decoded %d payload bytes from %d input bytes", len(payload), len(data))
		}
		want := binary.LittleEndian.Uint32(data[:4])
		if uint32(len(payload)) != want {
			t.Fatalf("decoded %d bytes, header promised %d", len(payload), want)
		}
		if !bytes.Equal(payload, data[4:4+want]) {
			t.Fatal("payload differs from wire bytes")
		}
	})
}

// FuzzMembershipFrame drives the membership decoder (serving probes and
// the elastic-training agreement alike) with arbitrary bytes:
// DecodeMemberFrame must error — never panic, never
// allocate beyond what the bytes present allow (the step count is bounded
// by MaxMemberSteps and cross-checked against the frame length before any
// allocation) — and every accepted frame must re-encode to its exact wire
// bytes.
func FuzzMembershipFrame(f *testing.F) {
	seed := func(fr MemberFrame) []byte {
		b, err := AppendMemberFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(seed(MemberFrame{}))
	f.Add(seed(MemberFrame{Gen: 3, Rank: 1, Steps: []MemberStep{{Epoch: 2, Round: 40}}}))
	f.Add(seed(MemberFrame{Gen: 1, Rank: 7, Steps: []MemberStep{{5, 0}, {4, 100}, {4, 50}}}))
	f.Add([]byte("SPMB"))                                 // truncated after the magic
	f.Add([]byte("XPMB\x00\x00\x00\x00\x00\x00\x00\x00")) // wrong magic
	lying := seed(MemberFrame{Gen: 1, Rank: 0})
	binary.LittleEndian.PutUint32(lying[12:], 1<<31) // huge claimed step count
	f.Add(lying)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeMemberFrame(data)
		if err != nil {
			return
		}
		if len(fr.Steps) > MaxMemberSteps {
			t.Fatalf("decoder accepted %d steps, max %d", len(fr.Steps), MaxMemberSteps)
		}
		if 8*len(fr.Steps) > len(data) {
			t.Fatalf("decoded %d steps from %d input bytes", len(fr.Steps), len(data))
		}
		re, err := AppendMemberFrame(nil, fr)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted frame %x re-encodes to %x", data, re)
		}
	})
}
