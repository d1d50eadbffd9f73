package ckpt

import (
	"bytes"
	"testing"
)

// FuzzCheckpointDecode drives Decode with arbitrary bytes: it must return
// an error on anything that is not a valid checkpoint — never panic, never
// attempt an allocation larger than the input justifies — and anything it
// does accept must survive validation and re-encode cleanly.
func FuzzCheckpointDecode(f *testing.F) {
	// Seed corpus: a valid checkpoint, a truncation, a CRC flip, the bare
	// preamble, an empty input, the v6 golden, the v5 golden and the v5
	// golden stamped version 4.
	st := testState()
	buf, err := AppendEncode(nil, st)
	if err != nil {
		f.Fatal(err)
	}
	valid := buf
	f.Add(valid)
	f.Add(valid[:len(valid)/3])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 1
	f.Add(flipped)
	f.Add(valid[:8])
	f.Add([]byte{})
	f.Add(v6Golden(f))
	golden := v5Golden(f)
	f.Add(golden)
	f.Add(stamp(golden, 4))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := got.Validate(); verr != nil {
			t.Fatalf("Decode accepted a state that fails validation: %v", verr)
		}
		if _, err := AppendEncode(nil, got); err != nil {
			t.Fatalf("accepted state does not re-encode: %v", err)
		}
	})
}
