//go:build amd64

package tensor

import (
	"math"
	"testing"

	"salientpp/internal/rng"
)

// sameFloat is bitwise equality, except that any two NaNs match: the
// payload and sign of a NaN depend on instruction operand order, which the
// kernels' contract does not fix.
func sameFloat(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

// kernelInputs fills depth values per row: mostly normal draws, with NaN,
// ±Inf, ±0, subnormals and magnitudes around 1e±30 (whose products
// overflow and underflow) mixed in when special is set.
func kernelInputs(r *rng.RNG, rows, depth int, special bool) [][]float32 {
	odd := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)), 1e-40, -3e-42, math.SmallestNonzeroFloat32,
		1e30, -2.5e30, 1e-30, -4e-30,
	}
	out := make([][]float32, rows)
	for i := range out {
		out[i] = make([]float32, depth)
		for k := range out[i] {
			out[i][k] = float32(r.NormFloat64())
			if special && r.Intn(16) == 0 {
				out[i][k] = odd[r.Intn(len(odd))]
			}
		}
	}
	return out
}

// packRows packs rows (each depth long, at most eight) into panels the way
// the products pack their right operand, zero-padding the last panel.
func packRows(rows [][]float32, depth int) PackedB {
	m := New(len(rows), depth)
	for j, row := range rows {
		copy(m.Row(j), row)
	}
	return packPanelsT(m)
}

// TestDotBlock4x4AVX2MatchesPortable pins the micro-kernel contract: the
// AVX2 kernel gives every output bit-for-bit the portable kernel's value —
// same lanes, same (l0+l2)+(l1+l3) reduction, same ascending tail, a
// rounded product and a rounded sum per term — at depths around every
// vector and tail boundary, on ordinary and special-value inputs.
func TestDotBlock4x4AVX2MatchesPortable(t *testing.T) {
	if !x86HasAVX2() {
		t.Skip("CPU has no AVX2")
	}
	r := rng.New(41)
	depths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 127, 128, 129, 4099}
	for _, depth := range depths {
		for trial := 0; trial < 40; trial++ {
			in := kernelInputs(r, 8, depth, trial%2 == 1)
			bp := packRows(in[4:], depth)
			var simd, portable [16]float32
			dotBlock4x4AVX2(&in[0][0], &in[1][0], &in[2][0], &in[3][0], &bp.data[0], depth, &simd)
			dotBlock4x4Go(&in[0][0], &in[1][0], &in[2][0], &in[3][0], &bp.data[0], depth, &portable)
			bp.Release()
			for o := range simd {
				if !sameFloat(simd[o], portable[o]) {
					t.Fatalf("depth %d trial %d output %d: avx2 %g (%#x), portable %g (%#x)",
						depth, trial, o, simd[o], math.Float32bits(simd[o]), portable[o], math.Float32bits(portable[o]))
				}
			}
		}
	}
}

// TestDotBlockAVX512MatchesPortable pins the register block's contract:
// the AVX-512 8×8 kernel gives every output bit-for-bit the value of four
// portable 4×4 blocks, at depths around every vector and tail boundary, on
// ordinary and special-value inputs, on partial row blocks (the last live
// row pointer repeated) and partial column blocks (a zero-padded panel,
// the first panel repeated for a missing second), stored and accumulated
// into a strided C whose elements past the block stay untouched.
func TestDotBlockAVX512MatchesPortable(t *testing.T) {
	if !x86HasAVX512() {
		t.Skip("CPU has no AVX-512F: the AVX-512 tier is not built into the dispatch")
	}
	r := rng.New(42)
	const ldc = 11
	depths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 127, 128, 129, 4099}
	for _, depth := range depths {
		for trial := 0; trial < 40; trial++ {
			ni, nj := 8, 8
			if trial%4 >= 2 {
				ni, nj = 1+r.Intn(8), 1+r.Intn(8)
			}
			acc := trial%8 >= 4
			in := kernelInputs(r, 16, depth, trial%2 == 1)
			var rows [8]*float32
			for i := range rows {
				rows[i] = &in[min(i, ni-1)][0]
			}
			bp := packRows(in[8:8+nj], depth)
			b0, b1 := &bp.data[0], &bp.data[0]
			if nj > 4 {
				b1 = &bp.data[4*depth]
			}
			base := kernelInputs(r, 1, 8*ldc, trial%2 == 1)[0]
			simd := append([]float32(nil), base...)
			want := append([]float32(nil), base...)
			dotBlock8x8AVX512(&rows, b0, b1, depth, &simd[0], ldc, acc)
			var out [16]float32
			for h := 0; h < 8; h += 4 {
				for q, b := range [2]*float32{b0, b1} {
					dotBlock4x4Go(rows[h], rows[h+1], rows[h+2], rows[h+3], b, depth, &out)
					for o, v := range out {
						e := (h+o/4)*ldc + 4*q + o%4
						if acc {
							v += base[e]
						}
						want[e] = v
					}
				}
			}
			bp.Release()
			for e := range simd {
				if !sameFloat(simd[e], want[e]) {
					t.Fatalf("depth %d trial %d (%d×%d live, acc %v) row %d col %d: avx512 %g (%#x), portable %g (%#x)",
						depth, trial, ni, nj, acc, e/ldc, e%ldc, simd[e], math.Float32bits(simd[e]), want[e], math.Float32bits(want[e]))
				}
			}
		}
	}
}

// kernelTiers are the dispatch settings of the three fp32 kernel tiers.
var kernelTiers = []struct {
	name         string
	avx512, avx2 bool
}{{"avx512", true, true}, {"avx2", false, true}, {"portable", false, false}}

// TestProductsBitwiseAcrossDispatch runs every product — the shared-B
// weight-gradient pair and the pre-packed accumulate included — at every
// backendShapes entry with the dispatch forced to each kernel tier: the
// outputs must be bitwise equal, so which tier a CPU picks never changes a
// trained weight or a served logit.
func TestProductsBitwiseAcrossDispatch(t *testing.T) {
	if !x86HasAVX2() {
		t.Skip("CPU has no AVX2")
	}
	defer func(avx512, avx2 bool) { hasAVX512, hasAVX2 = avx512, avx2 }(hasAVX512, hasAVX2)
	tiers := kernelTiers
	if !x86HasAVX512() {
		tiers = tiers[1:]
	}
	r := rng.New(43)
	names := []string{"MatMul", "MatMulATB", "MatMulABT", "MatMulAdd", "MatMulATBAddPair first", "MatMulATBAddPair second", "MatMulAddPacked"}
	for _, s := range backendShapes {
		m, k, n := s[0], s[1], s[2]
		a, b := randMat(m, k, r), randMat(k, n, r)
		at, bt := randMat(k, m, r), randMat(n, k, r)
		base := randMat(m, n, r)
		at2 := randMat(k, m, r)
		var first [7]*Matrix
		for tier, tr := range tiers {
			hasAVX512, hasAVX2 = tr.avx512, tr.avx2
			outs := [7]*Matrix{New(m, n), New(m, n), New(m, n), base.Clone(), base.Clone(), base.Clone(), base.Clone()}
			MatMul(outs[0], a, b)
			MatMulATB(outs[1], at, b)
			MatMulABT(outs[2], a, bt)
			MatMulAdd(outs[3], a, b)
			MatMulATBAddPair(outs[4], at, outs[5], at2, b)
			bp := PackB(b)
			MatMulAddPacked(outs[6], a, &bp)
			bp.Release()
			if tier == 0 {
				first = outs
				continue
			}
			for p, name := range names {
				for e, v := range outs[p].Data {
					if !sameFloat(v, first[p].Data[e]) {
						t.Fatalf("%s %v element %d: %s %g, %s %g", name, s, e, tr.name, v, tiers[0].name, first[p].Data[e])
					}
				}
			}
		}
	}
	if len(tiers) < len(kernelTiers) {
		t.Skip("CPU has no AVX-512F: compared the AVX2 and portable tiers only")
	}
}

// TestRowKernelsAVX2MatchPortable pins the row kernels' contract: the AVX2
// row add and row scale give every element bit-for-bit the portable
// kernel's value, at every length from 0 to 67 (each 8-lane tail, below,
// at and past the 32-element unrolled pass) and every start alignment, on
// ordinary and special-value inputs. Elements past the row stay untouched.
func TestRowKernelsAVX2MatchPortable(t *testing.T) {
	if !x86HasAVX2() {
		t.Skip("CPU has no AVX2")
	}
	r := rng.New(47)
	const pad = 8
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 16; trial++ {
			off := trial % 8
			in := kernelInputs(r, 2, off+n+pad, trial%2 == 1)
			scales := kernelInputs(r, 1, 1, trial%4 == 3)[0]
			simd := append([]float32(nil), in[0]...)
			portable := append([]float32(nil), in[0]...)
			addRowAVX2(simd[off:off+n], in[1][off:off+n])
			addRowGo(portable[off:off+n], in[1][off:off+n])
			for e := range simd {
				if !sameFloat(simd[e], portable[e]) {
					t.Fatalf("add n=%d off=%d element %d: avx2 %g, portable %g", n, off, e, simd[e], portable[e])
				}
			}
			scaleRowAVX2(simd[off:off+n], scales[0])
			scaleRowGo(portable[off:off+n], scales[0])
			for e := range simd {
				if !sameFloat(simd[e], portable[e]) {
					t.Fatalf("scale n=%d off=%d by %g element %d: avx2 %g, portable %g", n, off, scales[0], e, simd[e], portable[e])
				}
			}
			for e := off + n; e < len(simd); e++ {
				if math.Float32bits(simd[e]) != math.Float32bits(in[0][e]) {
					t.Fatalf("n=%d off=%d: element %d past the row changed", n, off, e)
				}
			}
		}
	}
}
