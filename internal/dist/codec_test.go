package dist

import (
	"bytes"
	"math"
	"testing"

	"salientpp/internal/rng"
	"salientpp/internal/tensor"
)

// TestF16ExhaustiveRoundTrip walks every one of the 65536 binary16 bit
// patterns: converting to float32 and back must reproduce the exact bits
// (float32 is a superset of binary16), with NaNs canonicalized.
func TestF16ExhaustiveRoundTrip(t *testing.T) {
	for h := 0; h < 1<<16; h++ {
		f := tensor.F32FromF16(uint16(h))
		got := tensor.F16FromF32(f)
		exp := uint16(h) >> 10 & 0x1f
		frac := uint16(h) & 0x3ff
		if exp == 0x1f && frac != 0 {
			// Any NaN re-encodes as the quiet NaN with the same sign.
			if want := uint16(h)&0x8000 | 0x7e00; got != want {
				t.Fatalf("NaN %#04x re-encoded as %#04x, want %#04x", h, got, want)
			}
			continue
		}
		if got != uint16(h) {
			t.Fatalf("half bits %#04x -> %v -> %#04x", h, f, got)
		}
	}
}

// TestF16ConversionErrorBound checks the fp16 codec's quantization error on
// random values across the half-precision normal range: relative error at
// most 2^-11 (half of the 10-bit significand ulp).
func TestF16ConversionErrorBound(t *testing.T) {
	r := rng.New(41)
	for i := 0; i < 100000; i++ {
		// Log-uniform magnitudes across the half normal range, both signs.
		mag := math.Pow(10, -4+8*r.Float64())
		x := float32(mag)
		if i%2 == 1 {
			x = -x
		}
		y := tensor.F32FromF16(tensor.F16FromF32(x))
		if err := math.Abs(float64(y-x)) / math.Abs(float64(x)); err > 1.0/2048+1e-9 {
			t.Fatalf("fp16 round trip of %g gave %g (relative error %g)", x, y, err)
		}
	}
	// Specials: overflow saturates to Inf, tiny values flush toward zero,
	// and zero is exact.
	if y := tensor.F32FromF16(tensor.F16FromF32(1e9)); !math.IsInf(float64(y), 1) {
		t.Fatalf("fp16(1e9) = %v, want +Inf", y)
	}
	if y := tensor.F32FromF16(tensor.F16FromF32(0)); y != 0 {
		t.Fatalf("fp16(0) = %v, want 0", y)
	}
	if y := tensor.F32FromF16(tensor.F16FromF32(1e-8)); y != 0 { // below half the smallest subnormal
		t.Fatalf("fp16 of sub-subnormal = %v, want 0", y)
	}
}

// TestInt8RoundTripErrorBound checks the per-row-scaled int8 codec: every
// value's absolute error is at most half a quantization step, i.e.
// maxAbs(row)/254, and all-zero rows are exact.
func TestInt8RoundTripErrorBound(t *testing.T) {
	r := rng.New(43)
	const dim = 64
	src := make([]float32, dim)
	dst := make([]float32, dim)
	for trial := 0; trial < 2000; trial++ {
		var maxAbs float64
		for i := range src {
			src[i] = float32((r.Float64()*2 - 1) * math.Pow(10, -2+4*r.Float64()))
			if a := math.Abs(float64(src[i])); a > maxAbs {
				maxAbs = a
			}
		}
		CodecInt8.RoundTripRow(dst, src)
		bound := maxAbs/254 + maxAbs*1e-6
		for i := range src {
			if err := math.Abs(float64(dst[i] - src[i])); err > bound {
				t.Fatalf("trial %d value %g decoded as %g (error %g > bound %g, row maxAbs %g)",
					trial, src[i], dst[i], err, bound, maxAbs)
			}
		}
	}
	zero := make([]float32, dim)
	CodecInt8.RoundTripRow(dst, zero)
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("all-zero row decoded %v at %d", v, i)
		}
	}
}

// TestInt8NonFiniteRows pins the int8 codec's handling of NaN and ±Inf:
// non-finite values never influence the per-row scale (a NaN mid-row must
// not corrupt the legitimate large magnitudes around it), NaN quantizes to
// 0, ±Inf saturates to ±maxAbs, and an all-non-finite row decodes to
// zeros — all deterministically, with no float→int conversion of a
// non-finite value anywhere on the path.
func TestInt8NonFiniteRows(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	src := []float32{100, nan, 0.5, -inf, -100}
	dst := make([]float32, len(src))
	CodecInt8.RoundTripRow(dst, src)
	// Scale derives from maxAbs=100, so 100 must survive (it was silently
	// crushed to ~0.5 when a trailing finite value could reset a
	// NaN-poisoned maxAbs).
	if math.Abs(float64(dst[0]-100)) > 100.0/127 {
		t.Fatalf("finite 100 decoded as %v after a NaN neighbor", dst[0])
	}
	if dst[1] != 0 {
		t.Fatalf("NaN decoded as %v, want 0", dst[1])
	}
	if math.Abs(float64(dst[3]+100)) > 100.0/127 {
		t.Fatalf("-Inf decoded as %v, want saturation to -maxAbs", dst[3])
	}
	allBad := []float32{nan, inf, float32(math.Inf(-1)), nan}
	out := make([]float32, len(allBad))
	CodecInt8.RoundTripRow(out, allBad)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("all-non-finite row decoded %v at %d, want 0", v, i)
		}
	}
}

// TestIDListDeltaRoundTrip round-trips sorted ascending id lists —
// including duplicates, which Gather produces when two output rows want
// the same remote vertex — through the varint delta codec.
func TestIDListDeltaRoundTrip(t *testing.T) {
	lists := [][]int32{
		nil,
		{0},
		{5, 5, 5},
		{0, 1, 2, 3, 1000000, 1000000, 2147483647},
		{7, 100, 10000, 10007, 10007, 123456789},
	}
	for _, ids := range lists {
		enc := appendIDsDelta(nil, ids)
		rd := idDeltaReader{b: enc}
		for j, want := range ids {
			got, err := rd.next()
			if err != nil {
				t.Fatalf("list %v: decode %d: %v", ids, j, err)
			}
			if got != want {
				t.Fatalf("list %v: decoded id %d as %d, want %d", ids, j, got, want)
			}
		}
		if rd.remaining() != 0 {
			t.Fatalf("list %v: %d trailing bytes", ids, rd.remaining())
		}
	}
	// 4-byte raw encoding vs varint deltas on a dense sorted list: the
	// deltas must be materially smaller (this is the compression claim).
	dense := make([]int32, 1000)
	for i := range dense {
		dense[i] = int32(100000 + 3*i)
	}
	if enc := appendIDsDelta(nil, dense); len(enc) >= 4*len(dense)/2 {
		t.Fatalf("varint deltas of a dense sorted list took %d bytes, raw takes %d", len(enc), 4*len(dense))
	}
}

// FuzzIDListCodec feeds arbitrary bytes to the varint id decoder, which
// must error or terminate cleanly — never panic, never yield a negative or
// descending id — and any list it does accept must survive an
// encode→decode round trip unchanged.
func FuzzIDListCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendIDsDelta(nil, []int32{3, 9, 9, 1000000}))
	f.Add([]byte{0x80})                                                       // truncated varint
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // overflowing delta
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := idDeltaReader{b: data}
		var ids []int32
		for rd.remaining() > 0 {
			v, err := rd.next()
			if err != nil {
				return
			}
			if v < 0 {
				t.Fatalf("decoder yielded negative id %d", v)
			}
			if len(ids) > 0 && v < ids[len(ids)-1] {
				t.Fatalf("decoder yielded descending ids %d after %d", v, ids[len(ids)-1])
			}
			ids = append(ids, v)
		}
		// Round trip: the accepted list re-encodes (canonically, minimal
		// varints) and decodes back to itself.
		rd2 := idDeltaReader{b: appendIDsDelta(nil, ids)}
		for i, want := range ids {
			got, err := rd2.next()
			if err != nil || got != want {
				t.Fatalf("round trip diverged at %d: got %d (%v), want %d", i, got, err, want)
			}
		}
		if rd2.remaining() != 0 {
			t.Fatalf("round trip left %d trailing bytes", rd2.remaining())
		}
	})
}

// buildCodecStores assembles a 2-rank deployment over a 16-vertex feature
// matrix, with rank 0 caching two of rank 1's rows, and returns the full
// matrix for reference checks.
func buildCodecStores(t *testing.T, codec Codec) ([]*Store, *tensor.Matrix, []Comm) {
	t.Helper()
	const n, dim = 16, 6
	layout, err := NewLayout([]int64{0, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	comms, err := NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	full := tensor.New(n, dim)
	r := rng.New(17)
	for i := range full.Data {
		full.Data[i] = float32((r.Float64()*2 - 1) * 10)
	}
	stores := make([]*Store, 2)
	for rank := 0; rank < 2; rank++ {
		local := tensor.New(8, dim)
		for i := 0; i < 8; i++ {
			copy(local.Row(i), full.Row(rank*8+i))
		}
		st, err := NewStore(comms[rank], layout, dim, local, nil)
		if err != nil {
			t.Fatal(err)
		}
		st.SetCodec(codec)
		stores[rank] = st
	}
	return stores, full, comms
}

// TestGatherWithCodecMatchesReference runs a cross-rank gather under each
// lossy codec and demands every remote row equal — bitwise — the local
// quantize-dequantize reference of the owner's row, while local rows stay
// exact fp32. Duplicate and unsorted remote requests exercise the sorted
// delta encoding.
func TestGatherWithCodecMatchesReference(t *testing.T) {
	for _, codec := range []Codec{CodecFP32, CodecFP16, CodecInt8} {
		t.Run(codec.String(), func(t *testing.T) {
			stores, full, comms := buildCodecStores(t, codec)
			defer comms[0].Close()
			ids := []int32{15, 9, 12, 9, 2, 14, 0, 15}
			done := make(chan error, 1)
			go func() {
				_, _, err := stores[1].Gather(nil)
				done <- err
			}()
			out, stats, err := stores[0].Gather(ids)
			if err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if stats.RemoteFetch != 6 {
				t.Fatalf("remote fetches %d, want 6 (codec must not change which rows move)", stats.RemoteFetch)
			}
			ref := make([]float32, full.Cols)
			for i, v := range ids {
				want := full.Row(int(v))
				if v >= 8 { // remote: compare against the quantization reference
					codec.RoundTripRow(ref, want)
					want = ref
				}
				got := out.Row(i)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("row %d (vertex %d) col %d: got %v want %v", i, v, j, got[j], want[j])
					}
				}
			}
			stores[0].Release(out)
		})
	}
}

// TestGatherCodecPayloadShrinks pins the compression claim at the
// transport's byte counter: the same gather ships at least 45% fewer
// payload bytes under fp16 than under fp32, and int8 beats fp16.
func TestGatherCodecPayloadShrinks(t *testing.T) {
	bytesFor := func(codec Codec) int64 {
		stores, _, comms := buildCodecStores(t, codec)
		defer comms[0].Close()
		ids := make([]int32, 0, 64)
		for i := 0; i < 64; i++ {
			ids = append(ids, int32(8+i%8)) // all remote from rank 0
		}
		done := make(chan error, 1)
		go func() {
			_, _, err := stores[1].Gather(nil)
			done <- err
		}()
		out, _, err := stores[0].Gather(ids)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		stores[0].Release(out)
		return comms[0].BytesSent() + comms[1].BytesSent()
	}
	fp32 := bytesFor(CodecFP32)
	fp16 := bytesFor(CodecFP16)
	i8 := bytesFor(CodecInt8)
	if float64(fp16) > 0.55*float64(fp32) {
		t.Fatalf("fp16 shipped %d bytes vs fp32's %d (want ≥ 45%% reduction)", fp16, fp32)
	}
	if i8 >= fp16 {
		t.Fatalf("int8 shipped %d bytes, fp16 %d (int8 must be smaller at dim 6)", i8, fp16)
	}
}

// TestGatherCodecAllocationFree extends the PR-2 warm-loop guard to every
// codec: the store-side gather path (pooled output, reused id/feature
// encode buffers, in-place dequantize) allocates nothing once warm. A
// single-rank group isolates the store from the transport's documented
// per-send copy, exactly like the fp32 guard.
func TestGatherCodecAllocationFree(t *testing.T) {
	for _, codec := range []Codec{CodecFP16, CodecInt8} {
		t.Run(codec.String(), func(t *testing.T) {
			const n, dim = 256, 16
			comms, err := NewLocalGroup(1)
			if err != nil {
				t.Fatal(err)
			}
			defer comms[0].Close()
			layout, err := NewLayout([]int64{0, n})
			if err != nil {
				t.Fatal(err)
			}
			local := tensor.New(n, dim)
			for i := range local.Data {
				local.Data[i] = float32(i)
			}
			st, err := NewStore(comms[0], layout, dim, local, nil)
			if err != nil {
				t.Fatal(err)
			}
			st.SetCodec(codec)
			ids := make([]int32, 64)
			for i := range ids {
				ids[i] = int32((i * 37) % n)
			}
			step := func() {
				out, _, err := st.Gather(ids)
				if err != nil {
					t.Fatal(err)
				}
				st.Release(out)
			}
			for i := 0; i < 3; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
				t.Fatalf("warm %s Gather allocated %.1f times per run, want 0", codec, allocs)
			}
		})
	}
}

// TestCodecPrimitivesAllocationFree guards the encode/decode primitives
// themselves: with warm (capacity-established) buffers, encoding and
// decoding a row and an id list, and a row's round-trip image, allocate
// nothing — the property that lets Gather's cross-rank path reuse its
// per-peer wire buffers and a cache refresh hydrate rows for free.
func TestCodecPrimitivesAllocationFree(t *testing.T) {
	const dim = 128
	row := make([]float32, dim)
	dst := make([]float32, dim)
	for i := range row {
		row[i] = float32(i)*0.25 - 7
	}
	ids := []int32{3, 9, 9, 1024, 1048576}
	for _, codec := range []Codec{CodecFP16, CodecInt8} {
		encBuf := codec.appendFeatRow(nil, row)
		idBuf := appendIDsDelta(nil, ids)
		step := func() {
			encBuf = codec.appendFeatRow(encBuf[:0], row)
			codec.decodeFeatRow(dst, encBuf)
			codec.RoundTripRow(dst, row)
			idBuf = appendIDsDelta(idBuf[:0], ids)
			rd := idDeltaReader{b: idBuf}
			for rd.remaining() > 0 {
				if _, err := rd.next(); err != nil {
					t.Fatal(err)
				}
			}
		}
		step()
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Fatalf("%s warm encode/decode allocated %.1f times per run, want 0", codec, allocs)
		}
	}
}

// TestRoundTripRowMatchesWire pins RoundTripRow's direct image to the
// encoder/decoder pair, bitwise, on rows holding ±0, subnormals, ±Inf and
// NaN as well as ordinary values.
func TestRoundTripRowMatchesWire(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	sub := math.Float32frombits(1)        // smallest float32 subnormal
	f16sub := float32(math.Ldexp(1, -24)) // smallest fp16 subnormal
	negZero := math.Float32frombits(1 << 31)
	rows := map[string][]float32{
		"ordinary":   {1.5, -2.25, 0.1, 3e-3, -7, 65504, 1e5},
		"zeros":      {0, negZero, 0, negZero},
		"subnormals": {sub, -sub, f16sub, -f16sub, 3 * f16sub, 1e-40, 0.5},
		"infinities": {inf, -inf, 2, -3, 0},
		"nan":        {nan, 1, -nan, 0.25, negZero},
		"all-inf":    {inf, -inf},
		"all-nan":    {nan, nan},
	}
	for _, codec := range []Codec{CodecFP16, CodecInt8} {
		for name, row := range rows {
			want := make([]float32, len(row))
			codec.decodeFeatRow(want, codec.appendFeatRow(nil, row))
			got := make([]float32, len(row))
			codec.RoundTripRow(got, row)
			for i := range row {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Errorf("%s %s[%d] = %v: RoundTripRow bits %#x, wire image %#x",
						codec, name, i, row[i], math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// TestParseCodec pins the flag surface.
func TestParseCodec(t *testing.T) {
	for name, want := range map[string]Codec{"": CodecFP32, "fp32": CodecFP32, "fp16": CodecFP16, "int8": CodecInt8} {
		got, err := ParseCodec(name)
		if err != nil || got != want {
			t.Fatalf("ParseCodec(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseCodec("zstd"); err == nil {
		t.Fatal("ParseCodec accepted an unknown codec")
	}
	if CodecInt8.String() != "int8" || CodecFP16.String() != "fp16" || CodecFP32.String() != "fp32" {
		t.Fatal("codec names drifted")
	}
}

// TestCodecBitwiseAcrossF16Tiers pins the fp16 codec to one set of bits
// whichever converter tier the CPU runs: appendFeatRow frames,
// decodeFeatRow rows (of either tier's frame) and RoundTripRow images
// from the F16C kernel equal the portable tier's, byte for byte and bit
// for bit, on rows of every tail length holding ±0, subnormals, values
// past the half range, ±Inf and NaNs with payloads.
func TestCodecBitwiseAcrossF16Tiers(t *testing.T) {
	if !tensor.HasF16C {
		t.Skip("CPU has no F16C: the codec runs the portable tier only")
	}
	defer func(on bool) { tensor.HasF16C = on }(tensor.HasF16C)
	r := rng.New(47)
	odd := []float32{ // the NaNs first
		float32(math.NaN()), math.Float32frombits(0xffa00001), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, math.Float32frombits(1 << 31), math.Float32frombits(1), 1e-40, 0x1p-25, 65520, -1e9,
	}
	type image struct {
		frame   []byte
		decoded []float32
		trip    []float32
	}
	run := func(row []float32) image {
		// A non-empty prefix: the codec appends after what the frame holds.
		frame := CodecFP16.appendFeatRow([]byte{0xaa, 0x55, 0x01}, row)
		im := image{frame: frame, decoded: make([]float32, len(row)), trip: make([]float32, len(row))}
		CodecFP16.decodeFeatRow(im.decoded, frame[3:])
		CodecFP16.RoundTripRow(im.trip, row)
		return im
	}
	sameBits := func(a, b []float32) bool {
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				return false
			}
		}
		return true
	}
	for _, n := range []int{1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 128, 129, 300} {
		for trial := 0; trial < 6; trial++ {
			// Odd trials mix NaNs in (their rows take the scalar
			// fallback); even ones keep every block on the kernel.
			special := odd[2:]
			if trial%2 == 1 {
				special = odd
			}
			row := make([]float32, n)
			for i := range row {
				row[i] = float32(r.NormFloat64() * math.Ldexp(1, r.Intn(36)-20))
				if r.Intn(6) == 0 {
					row[i] = special[r.Intn(len(special))]
				}
			}
			tensor.HasF16C = true
			fast := run(row)
			tensor.HasF16C = false
			portable := run(row)
			crossed := make([]float32, n)
			CodecFP16.decodeFeatRow(crossed, fast.frame[3:])
			switch {
			case !bytes.Equal(fast.frame, portable.frame):
				t.Fatalf("len %d trial %d: F16C frame % x, portable % x", n, trial, fast.frame, portable.frame)
			case !sameBits(fast.decoded, portable.decoded) || !sameBits(crossed, portable.decoded):
				t.Fatalf("len %d trial %d: decoded rows differ across tiers", n, trial)
			case !sameBits(fast.trip, portable.trip) || !sameBits(fast.trip, fast.decoded):
				t.Fatalf("len %d trial %d: RoundTripRow images differ across tiers or from the wire", n, trial)
			}
		}
	}
}

// BenchmarkCodecRow encodes and decodes one 128-float row per op under each
// codec, fp16 on the F16C tier (where the CPU has it) and the portable one.
func BenchmarkCodecRow(b *testing.B) {
	row, dst := make([]float32, 128), make([]float32, 128)
	for i := range row {
		row[i] = float32(i)*0.25 - 7
	}
	run := func(codec Codec) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			enc := codec.appendFeatRow(nil, row)
			for i := 0; i < b.N; i++ {
				enc = codec.appendFeatRow(enc[:0], row)
				codec.decodeFeatRow(dst, enc)
			}
		}
	}
	defer func(on bool) { tensor.HasF16C = on }(tensor.HasF16C)
	f16c := tensor.HasF16C
	b.Run("fp32", run(CodecFP32))
	if f16c {
		b.Run("fp16-f16c", run(CodecFP16))
	}
	tensor.HasF16C = false
	b.Run("fp16-portable", run(CodecFP16))
	b.Run("int8", run(CodecInt8))
}
