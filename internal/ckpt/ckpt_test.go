package ckpt

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testState builds a small but fully populated state: 2 ranks, 2 params
// each, non-trivial topology and partial statistics.
func testState() *TrainState {
	mkRank := func(seed float32) *RankState {
		return &RankState{
			Params: []ParamState{
				// The first param carries an error-feedback residual (lossy
				// gradient codec); the second has none — both shapes must
				// round-trip, with an absent residual staying nil.
				{Rows: 2, Cols: 3, W: []float32{seed, 1, 2, 3, 4, 5}, M: []float32{6, 7, 8, 9, 10, 11}, V: []float32{0, 0, 1, 1, 2, 2},
					EF: []float32{1e-4, -2e-4, 0, 3e-4, -4e-4, 5e-4}},
				{Rows: 1, Cols: 2, W: []float32{seed + 0.5, -1}, M: []float32{0.25, 0.125}, V: []float32{1e-9, 2e-9}},
			},
			AdamStep: 17,
			ModelRNG: [4]uint64{1, 2, 3, ^uint64(0)},
			Partial: PartialEpoch{
				Loss: 1.25, Accuracy: 0.5, Batches: 3,
				Local: 14, CacheHit: 7, Remote: 2,
				BytesSent: 4096, GradBytesSent: 512,
			},
		}
	}
	return &TrainState{
		Step:      Step{Epoch: 1, Round: 3},
		Rounds:    5,
		Dataset:   "toy-sim",
		Seed:      77,
		BatchSize: 2,
		Fanouts:   []int32{3, 2},
		Codec:     "fp16",
		GradCodec: "int8",
		Topo: &Topology{
			NumVertices: 6, FeatureDim: 4, K: 2,
			Perm:     []int32{0, 2, 4, 1, 3, 5},
			Starts:   []int64{0, 3, 6},
			Parts:    []int32{0, 0, 0, 1, 1, 1},
			CacheIDs: [][]int32{{4, 5}, {0}},
		},
		Ranks: []*RankState{mkRank(0.5), mkRank(-0.5)},
	}
}

// v5Golden returns testdata/v5.ckpt: testState() as the v5 writer encoded
// it, with "fp32" in the header's precision slot and each rank's stage
// timings (sample 11, gather 22, compute 33, aggregate 5, transform 9,
// backward 13, grad reduce 21, grad wait 8 ns) in their eight slots.
func v5Golden(t testing.TB) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "v5.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// v6Golden returns testdata/v6.ckpt: testState() in the v6 format,
// committed so that a change to the encoder cannot move a byte unnoticed.
func v6Golden(t testing.TB) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "v6.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// stamp returns a copy of file with its version u32 (little-endian, after
// the 4-byte magic) set to ver.
func stamp(file []byte, ver byte) []byte {
	b := append([]byte(nil), file...)
	b[4] = ver
	return b
}

// TestDecodeVersionWindow pins the versions Decode reads: the current
// format (v6), and v5 and v4, whose layout adds a precision slot and eight
// stage timings that decode drops, all decode to the same state; every
// other version is rejected, and a tag-4 section is an unknown section
// like any other.
func TestDecodeVersionWindow(t *testing.T) {
	st := testState()
	buf, err := AppendEncode(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	valid := buf
	golden := v5Golden(t)
	var extra enc
	extra.str("online")
	tagged := extra.section(append([]byte(nil), valid...), 4)

	for _, tc := range []struct {
		name    string
		data    []byte
		wantErr string // empty: must decode to testState()
	}{
		{"v4", stamp(golden, 4), ""},
		{"v5", golden, ""},
		{"v6", valid, ""},
		{"v0", stamp(valid, 0), "unsupported version 0"},
		{"v3", stamp(golden, 3), "unsupported version 3"},
		{"v7", stamp(valid, 7), "unsupported version 7"},
		{"tag4", tagged, "unknown section tag 4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Decode(bytes.NewReader(tc.data))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Decode error %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st, got) {
				t.Fatalf("decode mismatch:\nwant %+v\ngot  %+v", st, got)
			}
		})
	}
}

// TestDecodeAcceptsVersion4 pins the seam the version window rests on: a
// v4 file is the v5 golden with only the version field changed, so it
// decodes to the source state, and re-encoding that state writes exactly
// the current format's bytes for it.
func TestDecodeAcceptsVersion4(t *testing.T) {
	st := testState()
	got, err := Decode(bytes.NewReader(stamp(v5Golden(t), 4)))
	if err != nil {
		t.Fatalf("v4 checkpoint no longer decodes: %v", err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("v4 decode mismatch:\nwant %+v\ngot  %+v", st, got)
	}
	re, err := AppendEncode(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AppendEncode(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, want) {
		t.Fatal("re-encoded v4 state differs from the state's own encoding")
	}
}

// TestDecodeIgnoresPrecisionSlot pins the v5 header's compute-precision
// slot as ignored: the golden with "int8" in the slot decodes to the same
// state as the golden holding the "fp32" the v5 writer wrote, so files
// written with a reduced serving precision still resume.
func TestDecodeIgnoresPrecisionSlot(t *testing.T) {
	st := testState()
	file := v5Golden(t)
	// The header is the first section after the 8-byte preamble:
	// tag u32 | payloadLen u64 | payload | crc32c u32.
	const hdrAt = 8
	n := int(binary.LittleEndian.Uint64(file[hdrAt+4:]))
	payload := file[hdrAt+12 : hdrAt+12+n]
	var old, slot enc
	old.str(st.Codec)
	old.str("fp32")
	slot.str(st.Codec)
	slot.str("int8")
	if bytes.Count(payload, old.b) != 1 {
		t.Fatalf("header payload holds the codec + precision slot %d times, want once", bytes.Count(payload, old.b))
	}
	var patched enc
	patched.b = bytes.Replace(payload, old.b, slot.b, 1)
	int8File := patched.section(append([]byte(nil), file[:hdrAt]...), tagHeader)
	int8File = append(int8File, file[hdrAt+12+n+4:]...)

	got, err := Decode(bytes.NewReader(int8File))
	if err != nil {
		t.Fatalf("int8-slot checkpoint no longer decodes: %v", err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("int8-slot decode mismatch:\nwant %+v\ngot  %+v", st, got)
	}
}

// TestEncodeDecodeRoundTrip: Encode writes the current version, and
// Decode reads it back to the source state.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	st := testState()
	buf, err := AppendEncode(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != 6 {
		t.Fatalf("Encode wrote version %d, want 6", v)
	}
	got, err := Decode(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", st, got)
	}
}

// TestV6Golden pins the current format byte for byte: the encoder writes
// testdata/v6.ckpt for testState(), and Decode reads the file back to it.
func TestV6Golden(t *testing.T) {
	st := testState()
	golden := v6Golden(t)
	buf, err := AppendEncode(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, golden) {
		t.Fatalf("encoder wrote %d bytes that differ from the %d-byte v6 golden", len(buf), len(golden))
	}
	got, err := Decode(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("golden decode mismatch:\nwant %+v\ngot  %+v", st, got)
	}
}

// TestDecodeRejectsMisorderedSections pins the section order Decode
// accepts: header, topology, one rank section per rank, end of file. Each
// case reassembles the sections of a valid file, every one intact and
// CRC-correct, in a wrong order or number.
func TestDecodeRejectsMisorderedSections(t *testing.T) {
	file := v6Golden(t)
	pre, rest := file[:8], file[8:]
	var secs [][]byte // header, topology, rank 0, rank 1
	for len(rest) > 0 {
		n := 12 + int(binary.LittleEndian.Uint64(rest[4:])) + 4
		secs = append(secs, rest[:n])
		rest = rest[n:]
	}
	if len(secs) != 4 {
		t.Fatalf("golden holds %d sections, want 4", len(secs))
	}
	hdr, topo, r0, r1 := secs[0], secs[1], secs[2], secs[3]
	for _, tc := range []struct {
		name    string
		secs    [][]byte
		wantErr string
	}{
		{"rank before topology", [][]byte{hdr, r0, topo, r1}, "rank section where topology expected"},
		{"duplicate topology", [][]byte{hdr, topo, topo, r0, r1}, "topology section where rank expected"},
		{"missing rank", [][]byte{hdr, topo, r0}, "missing rank section"},
		{"extra rank", [][]byte{hdr, topo, r0, r1, r1}, "rank section where end of file expected"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := append([]byte(nil), pre...)
			for _, s := range tc.secs {
				data = append(data, s...)
			}
			if _, err := Decode(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Decode error %v, want %q", err, tc.wantErr)
			}
		})
	}
}

// TestDecodeRejectsCorruption flips every byte of a valid checkpoint, one
// at a time, and demands that Decode either errors or returns a state that
// still validates — it must never panic. Most flips are caught by the
// per-section CRC; preamble flips by the magic/version checks.
func TestDecodeRejectsCorruption(t *testing.T) {
	st := testState()
	buf, err := AppendEncode(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	orig := buf
	corrupt := make([]byte, len(orig))
	errors := 0
	for i := range orig {
		copy(corrupt, orig)
		corrupt[i] ^= 0xff
		if _, err := Decode(bytes.NewReader(corrupt)); err != nil {
			errors++
		}
	}
	// Every single-byte flip lands in the preamble, a section frame, or a
	// CRC-covered payload, so every one must be detected.
	if errors != len(orig) {
		t.Fatalf("only %d of %d single-byte corruptions were rejected", errors, len(orig))
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	st := testState()
	buf, err := AppendEncode(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	orig := buf
	for cut := 0; cut < len(orig); cut += 7 {
		if _, err := Decode(bytes.NewReader(orig[:cut])); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", cut, len(orig))
		}
	}
}

func TestValidateCatchesInconsistency(t *testing.T) {
	mutations := map[string]func(*TrainState){
		"nil topo":        func(s *TrainState) { s.Topo = nil },
		"bad K":           func(s *TrainState) { s.Topo.K = 0 },
		"bad batch":       func(s *TrainState) { s.BatchSize = 0 },
		"no dataset":      func(s *TrainState) { s.Dataset = "" },
		"no codec":        func(s *TrainState) { s.Codec = "" },
		"no grad codec":   func(s *TrainState) { s.GradCodec = "" },
		"short residual":  func(s *TrainState) { s.Ranks[0].Params[0].EF = s.Ranks[0].Params[0].EF[:3] },
		"no fanouts":      func(s *TrainState) { s.Fanouts = nil },
		"bad fanout":      func(s *TrainState) { s.Fanouts[1] = -1 },
		"cursor past end": func(s *TrainState) { s.Step.Round = s.Rounds },
		"short perm":      func(s *TrainState) { s.Topo.Perm = s.Topo.Perm[:3] },
		"layout gap":      func(s *TrainState) { s.Topo.Starts[1] = 99 },
		"cache range":     func(s *TrainState) { s.Topo.CacheIDs[0][0] = 100 },
		"param shape":     func(s *TrainState) { s.Ranks[1].Params[0].W = s.Ranks[1].Params[0].W[:2] },
		"missing rank":    func(s *TrainState) { s.Ranks = s.Ranks[:1] },
	}
	for name, mut := range mutations {
		st := testState()
		mut(st)
		if err := st.Validate(); err == nil {
			t.Errorf("%s: mutation passed validation", name)
		}
	}
}

func TestSaverBarrierWriteAndRotation(t *testing.T) {
	dir := t.TempDir()
	base := testState()
	s, err := NewSaver(Config{Dir: dir, EveryRounds: 1, Retain: 2}, base)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(src *RankState) func(*RankState) {
		return func(dst *RankState) { *dst = *src }
	}
	steps := []Step{{0, 2}, {0, 4}, {1, 0}, {1, 2}}
	for _, step := range steps {
		// Offers may arrive in any rank order; the write happens on the
		// second (last) arrival.
		if err := s.Offer(1, step, fill(base.Ranks[1])); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, FileName(step))); err == nil {
			t.Fatalf("step %+v written before the barrier completed", step)
		}
		if err := s.Offer(0, step, fill(base.Ranks[0])); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, FileName(step))); err != nil {
			t.Fatalf("step %+v not written after the barrier: %v", step, err)
		}
	}

	// Retain 2: only the two newest files survive, and no temp droppings.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("stale temp file %s after rotation", e.Name())
		}
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("rotation kept %d files %v, want 2", len(names), names)
	}

	// Steps lists the newest step first; the loaded state round-trips.
	held, err := Steps(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(held) == 0 || held[0] != (Step{1, 2}) {
		t.Fatalf("steps = %v, want %v first", held, Step{1, 2})
	}
	latest := filepath.Join(dir, FileName(held[0]))
	got, path, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if path != latest {
		t.Fatalf("LoadLatest chose %s, Steps says %s", path, latest)
	}
	if got.Step != (Step{1, 2}) || len(got.Ranks) != 2 {
		t.Fatalf("loaded wrong state: %+v", got.Step)
	}

	// A duplicate offer for an already-saved step is silently ignored
	// (round and epoch triggers may coincide).
	if err := s.Offer(0, Step{1, 2}, fill(base.Ranks[0])); err != nil {
		t.Fatal(err)
	}
}

// TestLoadLatestSkipsTornFile plants a corrupt newest checkpoint and
// checks restore falls back to the previous valid one.
func TestLoadLatestSkipsTornFile(t *testing.T) {
	dir := t.TempDir()
	older := testState()
	older.Step = Step{Epoch: 0, Round: 2}
	buf, err := AppendEncode(nil, older)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, FileName(older.Step)), buf, 0o666); err != nil {
		t.Fatal(err)
	}
	// Newest file: valid prefix, torn tail.
	if err := os.WriteFile(filepath.Join(dir, FileName(Step{1, 0})), buf[:len(buf)/2], 0o666); err != nil {
		t.Fatal(err)
	}
	got, path, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != FileName(older.Step) {
		t.Fatalf("LoadLatest used %s instead of falling back", path)
	}
	if got.Step != older.Step {
		t.Fatalf("fell back to wrong state %+v", got.Step)
	}
}

func TestSaverRejectsBarrierViolations(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSaver(Config{Dir: dir, EveryRounds: 1}, testState())
	if err != nil {
		t.Fatal(err)
	}
	fill := func(dst *RankState) { *dst = *testState().Ranks[0] }
	if err := s.Offer(0, Step{0, 1}, fill); err != nil {
		t.Fatal(err)
	}
	if err := s.Offer(0, Step{0, 1}, fill); err == nil {
		t.Fatal("duplicate offer from the same rank was accepted")
	}
	s2, err := NewSaver(Config{Dir: dir, EveryRounds: 1}, testState())
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Offer(0, Step{0, 1}, fill); err != nil {
		t.Fatal(err)
	}
	if err := s2.Offer(1, Step{0, 2}, fill); err == nil {
		t.Fatal("mismatched step across ranks was accepted")
	}
}

func TestDueTriggers(t *testing.T) {
	run := testState()
	run.Rounds = 10
	s, err := NewSaver(Config{Dir: t.TempDir(), EveryRounds: 3, EveryEpochs: 2}, run)
	if err != nil {
		t.Fatal(err)
	}
	for rounds, want := range map[int]bool{1: false, 3: true, 6: true, 10: false} {
		if got := s.DueRound(rounds); got != want {
			t.Errorf("DueRound(%d) = %v, want %v", rounds, got, want)
		}
	}
	for epochs, want := range map[int]bool{1: false, 2: true, 3: false, 4: true} {
		if got := s.DueEpoch(epochs); got != want {
			t.Errorf("DueEpoch(%d) = %v, want %v", epochs, got, want)
		}
	}
}
