package dist

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"salientpp/internal/tensor"
)

// gradTestMats builds a small two-layer-ish gradient set with a seeded,
// reproducible fill. Values are scaled to look like real gradients
// (mostly small, a few outliers) so int8 row scales are exercised.
func gradTestMats(seed int64, shapes [][2]int) []*tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	mats := make([]*tensor.Matrix, len(shapes))
	for i, s := range shapes {
		m := tensor.New(s[0], s[1])
		for j := range m.Data {
			v := float32(rng.NormFloat64()) * 0.01
			if rng.Intn(50) == 0 {
				v *= 40 // occasional outlier stresses the per-row scale
			}
			m.Data[j] = v
		}
		mats[i] = m
	}
	return mats
}

func newResiduals(mats []*tensor.Matrix) [][]float32 {
	res := make([][]float32, len(mats))
	for i, m := range mats {
		res[i] = make([]float32, len(m.Data))
	}
	return res
}

// TestGradReduceFP32MatchesAllReduce pins that the fp32 reducer is the
// historical raw all-reduce: same values, bitwise, on every rank.
func TestGradReduceFP32MatchesAllReduce(t *testing.T) {
	const k = 3
	shapes := [][2]int{{8, 16}, {16, 4}, {1, 4}}
	comms, err := NewLocalGroup(k)
	if err != nil {
		t.Fatal(err)
	}
	defer comms[0].Close()

	perRank := make([][]*tensor.Matrix, k)
	for r := 0; r < k; r++ {
		perRank[r] = gradTestMats(int64(100+r), shapes)
	}
	// Reference: flatten each rank's tensors and sum contributions in rank
	// order — exactly what Comm.AllReduceSum documents.
	var want []float32
	for _, m := range perRank[0] {
		want = append(want, make([]float32, len(m.Data))...)
	}
	for src := 0; src < k; src++ {
		off := 0
		for _, m := range perRank[src] {
			for j, v := range m.Data {
				want[off+j] += v
			}
			off += len(m.Data)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, k)
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			gr := NewGradReducer(comms[r], CodecFP32)
			errs[r] = gr.Reduce(perRank[r], nil)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 0; r < k; r++ {
		off := 0
		for mi, m := range perRank[r] {
			for j, v := range m.Data {
				if math.Float32bits(v) != math.Float32bits(want[off+j]) {
					t.Fatalf("rank %d tensor %d[%d]: got %g want %g (not bitwise)", r, mi, j, v, want[off+j])
				}
			}
			off += len(m.Data)
		}
	}
}

// TestGradReduceLossyBitwiseAcrossRanks pins the determinism contract for
// compressed reduces: after any number of rounds, every rank holds the
// identical reduced gradient and the identical residual, bitwise.
func TestGradReduceLossyBitwiseAcrossRanks(t *testing.T) {
	for _, codec := range []Codec{CodecFP16, CodecInt8} {
		t.Run(codec.String(), func(t *testing.T) {
			const k, rounds = 2, 5
			shapes := [][2]int{{12, 8}, {8, 3}}
			comms, err := NewLocalGroup(k)
			if err != nil {
				t.Fatal(err)
			}
			defer comms[0].Close()
			perRank := make([][]*tensor.Matrix, k)
			perRes := make([][][]float32, k)
			for r := 0; r < k; r++ {
				perRank[r] = gradTestMats(int64(7+r), shapes)
				perRes[r] = newResiduals(perRank[r])
			}
			var wg sync.WaitGroup
			errs := make([]error, k)
			for r := 0; r < k; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					gr := NewGradReducer(comms[r], codec)
					for round := 0; round < rounds; round++ {
						if errs[r] = gr.Reduce(perRank[r], perRes[r]); errs[r] != nil {
							return
						}
						// Next round's "fresh gradient": perturb the reduced
						// value deterministically so state keeps evolving.
						for _, m := range perRank[r] {
							for j := range m.Data {
								m.Data[j] = m.Data[j]*0.5 + float32(j%5)*1e-3
							}
						}
					}
				}(r)
			}
			wg.Wait()
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
			for r := 1; r < k; r++ {
				for mi := range perRank[0] {
					for j := range perRank[0][mi].Data {
						a := math.Float32bits(perRank[0][mi].Data[j])
						b := math.Float32bits(perRank[r][mi].Data[j])
						if a != b {
							t.Fatalf("rank %d tensor %d[%d] diverged: %08x vs %08x", r, mi, j, a, b)
						}
					}
				}
			}
		})
	}
}

// TestGradReduceErrorFeedback pins the telescoping property that makes
// lossy gradient compression safe: with error feedback, the accumulated
// decoded gradient over T rounds of a constant true gradient g differs
// from T*g by at most one quantization step (the in-flight residual),
// independent of T — while naive quantization without feedback accumulates
// bias linearly in T.
func TestGradReduceErrorFeedback(t *testing.T) {
	const rounds = 64
	comms, err := NewLocalGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	defer comms[0].Close()
	gr := NewGradReducer(comms[0], CodecInt8)

	// A gradient whose values are deliberately off-grid for the int8 scale
	// so every round has persistent rounding bias for naive quantization.
	const dim = 16
	g := make([]float32, dim)
	for i := range g {
		g[i] = 0.001 + 0.0001*float32(i) // maxAbs ~0.0025 → step ~2e-5
	}
	g[dim-1] = 0.0025

	m := tensor.New(1, dim)
	res := newResiduals([]*tensor.Matrix{m})
	accEF := make([]float64, dim)
	accNaive := make([]float64, dim)
	naiveRow := make([]float32, dim)
	for round := 0; round < rounds; round++ {
		copy(m.Data, g)
		if err := gr.Reduce([]*tensor.Matrix{m}, res); err != nil {
			t.Fatal(err)
		}
		for i, v := range m.Data {
			accEF[i] += float64(v)
		}
		CodecInt8.RoundTripRow(naiveRow, g)
		for i, v := range naiveRow {
			accNaive[i] += float64(v)
		}
	}
	scale := tensor.Int8RowScale(g)
	step := float64(scale) // one int8 quantization step at this row's scale
	var worstEF, worstNaive float64
	for i := range g {
		target := float64(rounds) * float64(g[i])
		if d := math.Abs(accEF[i] - target); d > worstEF {
			worstEF = d
		}
		if d := math.Abs(accNaive[i] - target); d > worstNaive {
			worstNaive = d
		}
	}
	if worstEF > step {
		t.Fatalf("error-feedback drift %g exceeds one quant step %g after %d rounds", worstEF, step, rounds)
	}
	if worstNaive <= worstEF {
		t.Fatalf("naive quantization drift %g should exceed error-feedback drift %g on an off-grid gradient", worstNaive, worstEF)
	}
}

// TestGradReduceCrossTransport pins that a multi-round compressed reduce
// produces bitwise-identical weights-in-waiting on the in-process and TCP
// transports: the payload is identical bytes, the sum identical order.
func TestGradReduceCrossTransport(t *testing.T) {
	const k, rounds = 2, 3
	shapes := [][2]int{{10, 6}, {6, 2}}
	run := func(newGroup func(int) ([]Comm, error)) [][]*tensor.Matrix {
		comms, err := newGroup(k)
		if err != nil {
			t.Fatal(err)
		}
		defer comms[0].Close()
		perRank := make([][]*tensor.Matrix, k)
		perRes := make([][][]float32, k)
		for r := 0; r < k; r++ {
			perRank[r] = gradTestMats(int64(31+r), shapes)
			perRes[r] = newResiduals(perRank[r])
		}
		var wg sync.WaitGroup
		errs := make([]error, k)
		for r := 0; r < k; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				gr := NewGradReducer(comms[r], CodecInt8)
				for round := 0; round < rounds; round++ {
					if errs[r] = gr.Reduce(perRank[r], perRes[r]); errs[r] != nil {
						return
					}
					for _, m := range perRank[r] {
						for j := range m.Data {
							m.Data[j] = m.Data[j]*0.25 + float32((j+round)%3)*1e-3
						}
					}
				}
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		return perRank
	}
	local := run(NewLocalGroup)
	tcp := run(NewTCPGroup)
	for r := 0; r < k; r++ {
		for mi := range local[r] {
			for j := range local[r][mi].Data {
				a := math.Float32bits(local[r][mi].Data[j])
				b := math.Float32bits(tcp[r][mi].Data[j])
				if a != b {
					t.Fatalf("rank %d tensor %d[%d]: local %08x vs tcp %08x", r, mi, j, a, b)
				}
			}
		}
	}
}

// TestGradReduceValidation pins that malformed inputs error instead of
// panicking or reading garbage: missing/short residuals locally, and
// mismatched shapes across ranks (which surface as payload-length errors
// on every rank, the loud failure the codec doc promises).
func TestGradReduceValidation(t *testing.T) {
	comms, err := NewLocalGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	defer comms[0].Close()
	gr := NewGradReducer(comms[0], CodecInt8)
	m := tensor.New(2, 4)
	if err := gr.Reduce([]*tensor.Matrix{m}, nil); err == nil {
		t.Fatal("want error for missing residuals")
	}
	if err := gr.Reduce([]*tensor.Matrix{m}, [][]float32{make([]float32, 3)}); err == nil {
		t.Fatal("want error for short residual")
	}

	mis, err := NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer mis[0].Close()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cols := 4 + r // shape drift between ranks
			mm := tensor.New(2, cols)
			gr := NewGradReducer(mis[r], CodecInt8)
			errs[r] = gr.Reduce([]*tensor.Matrix{mm}, newResiduals([]*tensor.Matrix{mm}))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: want payload-length error for mismatched shapes", r)
		}
	}
}

// TestGradReduceAllocationFree is the allocation-regression guard for the
// warm per-round reduce, in both raw and compressed form. A single-rank
// group keeps the assertion deterministic — cross-rank payloads pay
// exactly one transport-owned copy, the same documented floor as Gather.
func TestGradReduceAllocationFree(t *testing.T) {
	for _, codec := range []Codec{CodecFP32, CodecInt8} {
		t.Run(codec.String(), func(t *testing.T) {
			comms, err := NewLocalGroup(1)
			if err != nil {
				t.Fatal(err)
			}
			defer comms[0].Close()
			gr := NewGradReducer(comms[0], codec)
			mats := gradTestMats(5, [][2]int{{16, 32}, {32, 8}})
			res := newResiduals(mats)
			step := func() {
				if err := gr.Reduce(mats, res); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
				t.Fatalf("warm %s Reduce allocated %.1f times per run, want 0", codec, allocs)
			}
		})
	}
}

// TestGradWireSize pins the wire arithmetic behind the ≥50% (fp16) and
// ~73% (int8) gradient byte cuts the bench columns record: bytes per
// encoded row for the hidden widths the reference model actually uses.
func TestGradWireSize(t *testing.T) {
	for _, tc := range []struct {
		codec Codec
		dim   int
		want  int
	}{
		{CodecFP32, 64, 256},
		{CodecFP16, 64, 128}, // exactly 0.5×
		{CodecInt8, 64, 68},  // (4+64)/256 ≈ 0.27×
		{CodecInt8, 32, 36},  // (4+32)/128 ≈ 0.28×
	} {
		if got := tc.codec.featRowWire(tc.dim); got != tc.want {
			t.Errorf("%s featRowWire(%d) = %d, want %d", tc.codec, tc.dim, got, tc.want)
		}
	}
}
