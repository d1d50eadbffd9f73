//go:build amd64

package tensor

import (
	"fmt"
	"math"
	"testing"

	"salientpp/internal/rng"
)

// randBitsMat fills a rows×cols matrix with uniformly random bit patterns:
// every class of float (NaNs with payloads of both signs, ±Inf, ±0,
// subnormals) turns up, and a pack must carry each one bit for bit.
func randBitsMat(rows, cols int, r *rng.RNG) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = math.Float32frombits(r.Uint32())
	}
	return m
}

// packShapes are the k×n operands of TestPacksAVX2MatchPortable: ragged
// ones around every tail (k < 8, n < 8, k%8 and k%4 ≠ 0, n%8 ≠ 0, n%4 ≠ 0,
// a lone full panel past the last AVX2 pair), ones around the AVX2 packs'
// row blocks (packBRowBlock and transposeRowBlock ± a few rows), and the
// layer shapes of the train.compute benchmark.
var packShapes = [][2]int{
	{1, 1}, {1, 8}, {3, 5}, {4, 4}, {5, 7}, {7, 9}, {8, 8}, {9, 3},
	{8, 12}, {12, 13}, {13, 14}, {16, 15}, {17, 16}, {31, 20}, {33, 36},
	{127, 17}, {129, 24}, {131, 30}, {260, 20}, {511, 9}, {513, 16}, {1030, 41},
	{6890, 128}, {6890, 256}, {1446, 256},
}

// TestPacksAVX2MatchPortable pins the data-movement tier: PackB,
// packTranspose and packPanelsT write every element of their output —
// panel padding included — with the bits their definition names, on the
// AVX2 tier and with hasAVX2 cleared, at every packShapes entry.
func TestPacksAVX2MatchPortable(t *testing.T) {
	if !x86HasAVX2() {
		t.Skip("CPU has no AVX2")
	}
	defer func(avx512, avx2 bool) { hasAVX512, hasAVX2 = avx512, avx2 }(hasAVX512, hasAVX2)
	r := rng.New(53)
	for _, s := range packShapes {
		k, n := s[0], s[1]
		b := randBitsMat(k, n, r)
		for _, avx2 := range []bool{true, false} {
			hasAVX2, hasAVX512 = avx2, avx2 && x86HasAVX512()
			tier := fmt.Sprintf("%d×%d avx2=%v", k, n, avx2)

			bp := PackB(b)
			checkPanels(t, "PackB "+tier, bp, func(kk, j int) float32 { return b.Data[kk*n+j] })
			bp.Release()

			bt := b.Clone()
			bt.Rows, bt.Cols = n, k // an n×k Bᵀ for packPanelsT
			pt := packPanelsT(bt)
			checkPanels(t, "packPanelsT "+tier, pt, func(kk, j int) float32 { return bt.Data[j*k+kk] })
			pt.Release()

			at := packTranspose(b)
			for i := 0; i < k; i++ {
				for j := 0; j < n; j++ {
					if got, want := math.Float32bits(at.Data[j*k+i]), math.Float32bits(b.Data[i*n+j]); got != want {
						t.Fatalf("packTranspose %s: row %d col %d is %#x, want %#x", tier, j, i, got, want)
					}
				}
			}
			putPackBuf(at.Data)
		}
	}
}

// checkPanels compares every element of p with src(k, j), the operand's
// depth-k term of column j, and the padding columns of a partial last
// panel with +0.
func checkPanels(t *testing.T, name string, p PackedB, src func(k, j int) float32) {
	t.Helper()
	if want := (p.cols + 3) / 4 * 4 * p.depth; len(p.data) != want {
		t.Fatalf("%s: %d packed floats, want %d", name, len(p.data), want)
	}
	for j := 0; j < (p.cols+3)&^3; j++ {
		panel := p.data[(j&^3)*p.depth:]
		for k := 0; k < p.depth; k++ {
			var want float32
			if j < p.cols {
				want = src(k, j)
			}
			if got := panel[panelIndex(k, j&3, p.depth)]; math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%s: column %d depth %d is %#x, want %#x", name, j, k, math.Float32bits(got), math.Float32bits(want))
			}
		}
	}
}
