//go:build amd64

package tensor

// transposeStripAVX2 transposes a rows×8 block of a row-major matrix (row
// stride lds) into an 8×rows block (row stride ldd), rows a multiple of 8
// (pack_amd64.s).
//
//go:noescape
func transposeStripAVX2(src *float32, lds int, dst *float32, ldd, rows int)

// packPanelPairAVX2 packs rows [0, rows) of eight adjacent B columns (row
// stride lds) into two adjacent panels of a depth-deep PackedB, dst being
// the first panel's chunk of the first row; rows a multiple of 4
// (pack_amd64.s).
//
//go:noescape
func packPanelPairAVX2(src *float32, lds int, dst *float32, depth, rows int)

// Source rows per block of the AVX2 packs. The transpose walks a block of
// transposeRowBlock rows one 8-column strip at a time, so each destination
// row takes a 2 KB run while the block's source lines stay in L2 for the
// next strip. The panel pack walks a block of packBRowBlock rows one panel
// pair at a time, so each pass writes two sequential streams instead of
// one per panel (the portable pack's 64 streams at n = 256 are its
// slowest case). Both sizes are the fastest of 64–1024 at the layer shapes
// of the train.compute benchmark, timed on a 2-vCPU AVX-512 Xeon.
const (
	transposeRowBlock = 512
	packBRowBlock     = 128
)

// transposeInto writes the k×n src transposed into buf (n×k): the AVX2
// strips take the columns below n&^7 of the rows below k&^7, and
// packTransposeGo the remaining columns and rows. Without AVX2 the
// portable pack does it all. Both give the same bits.
func transposeInto(buf, src []float32, k, n int) {
	j0 := 0
	if hasAVX2 {
		j0 = n &^ 7
		k8 := k &^ 7
		for ib := 0; ib < k8; ib += transposeRowBlock {
			rows := min(transposeRowBlock, k8-ib)
			for j := 0; j < j0; j += 8 {
				transposeStripAVX2(&src[ib*n+j], n, &buf[j*k+ib], k, rows)
			}
		}
	}
	packTransposeGo(buf, src, k, n, j0)
}

// packBInto packs the depth×n src into panels in buf: the AVX2 panel pairs
// take the vector rows (below depth&^3) of the columns below n&^7, and
// packBGo the remaining panels, the depth%4 tail rows and a partial last
// panel. Without AVX2 the portable pack does it all. Both give the same
// bits.
func packBInto(buf, src []float32, depth, n int) {
	j0 := 0
	if hasAVX2 {
		j0 = n &^ 7
		kv := depth &^ 3
		for kb := 0; kb < kv; kb += packBRowBlock {
			rows := min(packBRowBlock, kv-kb)
			for j := 0; j < j0; j += 8 {
				packPanelPairAVX2(&src[kb*n+j], n, &buf[j*depth+4*kb], depth, rows)
			}
		}
	}
	packBGo(buf, src, depth, n, j0)
}
