package tensor

import (
	"fmt"
	"math"
	"testing"

	"salientpp/internal/rng"
)

// reluBranch and reluBackwardBranch are the branchy loops ReLU and
// ReLUBackward replaced: the definition the branch-free versions must
// reproduce bit for bit.
func reluBranch(d []float32) {
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		}
	}
}

func reluBackwardBranch(grad, act []float32) {
	for i, a := range act {
		if a <= 0 {
			grad[i] = 0
		}
	}
}

// reluInputs draws n values: normal draws mixed with ±0, ±Inf, quiet and
// signalling NaNs of both signs (with payloads), subnormals and the
// extremes of the normal range — both sides of every bit-pattern boundary
// the branch-free tests split on.
func reluInputs(r *rng.RNG, n int) []float32 {
	special := []uint32{
		0x00000000, 0x80000000, // ±0
		0x7F800000, 0xFF800000, // ±Inf
		0x7FC00000, 0xFFC00000, 0x7FC12345, 0x7FFFFFFF, 0xFFFFFFFF, // quiet NaNs
		0x7F800001, 0xFF800001, 0x7FA00000, 0xFFBFFFFF, // signalling NaNs
		0x00000001, 0x80000001, 0x007FFFFF, 0x807FFFFF, // subnormals
		0x00800000, 0x80800000, 0x7F7FFFFF, 0xFF7FFFFF, // normal extremes
	}
	out := make([]float32, n)
	for i := range out {
		if r.Intn(2) == 0 {
			out[i] = math.Float32frombits(special[r.Intn(len(special))])
		} else {
			out[i] = float32(r.NormFloat64())
		}
	}
	return out
}

// TestReLUMatchesBranchDefinition pins ReLU and ReLUBackward to the branchy
// definition bit for bit, on each kernel tier (withVectorTiers): forward
// zeroes only v < 0, so −0 and every NaN pass through with their payloads;
// backward zeroes the gradient where act <= 0 and leaves it where act is
// NaN. Lengths 0–67 cover empty rows and every tail of the AVX2 kernels'
// 32-, 8- and 1-element stages.
func TestReLUMatchesBranchDefinition(t *testing.T) {
	withVectorTiers(t, func(t *testing.T) {
		r := rng.New(29)
		for n := 0; n <= 67; n++ {
			for trial := 0; trial < 20; trial++ {
				in := reluInputs(r, n)
				want := append([]float32(nil), in...)
				reluBranch(want)
				got := FromSlice(1, n, append([]float32(nil), in...))
				got.ReLU()
				for i := range want {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want[i]) {
						t.Fatalf("ReLU n=%d: element %d (%#x) gave %#x, want %#x",
							n, i, math.Float32bits(in[i]), math.Float32bits(got.Data[i]), math.Float32bits(want[i]))
					}
				}

				act := reluInputs(r, n)
				grad := reluInputs(r, n)
				wantG := append([]float32(nil), grad...)
				reluBackwardBranch(wantG, act)
				gotG := FromSlice(1, n, append([]float32(nil), grad...))
				ReLUBackward(gotG, FromSlice(1, n, act))
				for i := range wantG {
					if math.Float32bits(gotG.Data[i]) != math.Float32bits(wantG[i]) {
						t.Fatalf("ReLUBackward n=%d: act %#x grad %#x gave %#x, want %#x",
							n, math.Float32bits(act[i]), math.Float32bits(grad[i]), math.Float32bits(gotG.Data[i]), math.Float32bits(wantG[i]))
					}
				}
			}
		}
	})
}

// BenchmarkReLU measures the forward and backward activation passes over a
// 4000×256 activation (a train.compute-sized hidden layer) of normal
// draws, half of them negative.
func BenchmarkReLU(b *testing.B) {
	r := rng.New(3)
	act := randMat(4000, 256, r)
	grad := randMat(4000, 256, r)
	m := New(4000, 256)
	b.SetBytes(int64(3 * 4 * len(act.Data)))
	for i := 0; i < b.N; i++ {
		copy(m.Data, act.Data)
		m.ReLU()
		ReLUBackward(grad, act)
	}
}

// packBenchShapes are the k×n operands the train.compute benchmark packs
// every step: layer 0's dOut and inputs (6 890 destination rows, 128 → 256)
// and layer 1's (1 446 rows, 256 → 256).
var packBenchShapes = [][2]int{{6890, 128}, {6890, 256}, {1446, 256}}

// BenchmarkPackTranspose measures the transpose pack that feeds the Aᵀ·B
// products at packBenchShapes.
func BenchmarkPackTranspose(b *testing.B) {
	for _, s := range packBenchShapes {
		m := randMat(s[0], s[1], rng.New(5))
		b.Run(fmt.Sprintf("%dx%d", s[0], s[1]), func(b *testing.B) {
			b.SetBytes(int64(4 * len(m.Data)))
			for i := 0; i < b.N; i++ {
				putPackBuf(packTranspose(m).Data)
			}
		})
	}
}

// BenchmarkPackB measures the panel pack of the Aᵀ·B products' shared dOut
// (and of every weight) at packBenchShapes.
func BenchmarkPackB(b *testing.B) {
	for _, s := range packBenchShapes {
		m := randMat(s[0], s[1], rng.New(5))
		b.Run(fmt.Sprintf("%dx%d", s[0], s[1]), func(b *testing.B) {
			b.SetBytes(int64(4 * len(m.Data)))
			for i := 0; i < b.N; i++ {
				p := PackB(m)
				p.Release()
			}
		})
	}
}
