//go:build amd64

#include "textflag.h"

// func dotBlock4x4AVX2(a0, a1, a2, a3, bp *float32, depth int, out *[16]float32)
//
// Sixteen dot products (4 A rows × the 4 B rows of one packed panel, see
// dot.go) over a shared depth. Each YMM accumulator holds two outputs'
// 4-lane partial sums side by side: Y0..Y3 = [a0 | a1]·{b0..b3},
// Y4..Y7 = [a2 | a3]·{b0..b3}, so a row pair is one [a_i | a_{i+1}] load
// against a VBROADCASTF128 B chunk. Per four k that is 8 loads, 8 VMULPS
// and 8 VADDPS for 64 multiply-adds, with 8 independent add chains to cover
// VADDPS latency. Every operation keeps the operand order of one lane of
// the portable kernel: product then sum, each rounded — no FMA, which would
// round once and change the result. AX is the byte offset of the current k
// in every A row; the panel's terms of that k start at byte 4·AX.
TEXT ·dotBlock4x4AVX2(SB), NOSPLIT, $0-56
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), DI
	MOVQ a2+16(FP), R12
	MOVQ a3+24(FP), R13
	MOVQ bp+32(FP), R8
	MOVQ depth+40(FP), CX
	MOVQ out+48(FP), DX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX
	SHLQ $2, BX // byte offset where the depth%4 tail starts
	JZ   reduce

vecloop:
	VMOVUPS        (SI)(AX*1), X8
	VINSERTF128    $1, (DI)(AX*1), Y8, Y8
	VMOVUPS        (R12)(AX*1), X9
	VINSERTF128    $1, (R13)(AX*1), Y9, Y9
	VBROADCASTF128 (R8)(AX*4), Y10
	VBROADCASTF128 16(R8)(AX*4), Y11
	VBROADCASTF128 32(R8)(AX*4), Y12
	VBROADCASTF128 48(R8)(AX*4), Y13

	VMULPS Y8, Y10, Y14
	VADDPS Y14, Y0, Y0
	VMULPS Y8, Y11, Y15
	VADDPS Y15, Y1, Y1
	VMULPS Y8, Y12, Y14
	VADDPS Y14, Y2, Y2
	VMULPS Y8, Y13, Y15
	VADDPS Y15, Y3, Y3

	VMULPS Y9, Y10, Y10
	VADDPS Y10, Y4, Y4
	VMULPS Y9, Y11, Y11
	VADDPS Y11, Y5, Y5
	VMULPS Y9, Y12, Y12
	VADDPS Y12, Y6, Y6
	VMULPS Y9, Y13, Y13
	VADDPS Y13, Y7, Y7

	ADDQ $16, AX
	CMPQ AX, BX
	JB   vecloop

reduce:
	// Transpose each group of four accumulators within its 128-bit halves
	// so lane L of every output lands in one register, then reduce as
	// (l0+l2)+(l1+l3). The result holds the group's eight outputs in
	// store order: [a_i·b0..b3 | a_{i+1}·b0..b3].
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPD Y10, Y8, Y0 // lane 0
	VUNPCKHPD Y10, Y8, Y1 // lane 1
	VUNPCKLPD Y11, Y9, Y2 // lane 2
	VUNPCKHPD Y11, Y9, Y3 // lane 3
	VADDPS    Y2, Y0, Y0
	VADDPS    Y3, Y1, Y1
	VADDPS    Y1, Y0, Y0

	VUNPCKLPS Y5, Y4, Y8
	VUNPCKHPS Y5, Y4, Y9
	VUNPCKLPS Y7, Y6, Y10
	VUNPCKHPS Y7, Y6, Y11
	VUNPCKLPD Y10, Y8, Y4
	VUNPCKHPD Y10, Y8, Y5
	VUNPCKLPD Y11, Y9, Y6
	VUNPCKHPD Y11, Y9, Y7
	VADDPS    Y6, Y4, Y4
	VADDPS    Y7, Y5, Y5
	VADDPS    Y5, Y4, Y4

	// Tail: the depth%4 trailing terms accumulate onto the reduced sums in
	// ascending k, one [a_i ×4 | a_{i+1} ×4] · [b0..b3 | b0..b3] product
	// per row pair; the panel holds each tail k's b0..b3 contiguously.
	ANDQ $3, CX
	JZ   store

tailloop:
	VBROADCASTSS (SI)(AX*1), X8
	VBROADCASTSS (DI)(AX*1), X9
	VINSERTF128  $1, X9, Y8, Y8
	VBROADCASTSS (R12)(AX*1), X9
	VBROADCASTSS (R13)(AX*1), X10
	VINSERTF128  $1, X10, Y9, Y9
	VBROADCASTF128 (R8)(AX*4), Y10

	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y0, Y0
	VMULPS Y9, Y10, Y10
	VADDPS Y10, Y4, Y4

	ADDQ $4, AX
	DECQ CX
	JNZ  tailloop

store:
	VMOVUPS Y0, (DX)
	VMOVUPS Y4, 32(DX)
	VZEROUPPER
	RET
