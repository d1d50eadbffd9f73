//go:build amd64

#include "textflag.h"

// rowPerm reorders a reduced row-pair register from column-major
// [out(r,j) out(r,4+j) out(r+1,j) out(r+1,4+j)] per 128-bit chunk j into
// the rows' store order [out(r,0..7) | out(r+1,0..7)].
DATA rowPerm<>+0(SB)/8, $0x0000000400000000
DATA rowPerm<>+8(SB)/8, $0x0000000c00000008
DATA rowPerm<>+16(SB)/8, $0x0000000500000001
DATA rowPerm<>+24(SB)/8, $0x0000000d00000009
DATA rowPerm<>+32(SB)/8, $0x0000000600000002
DATA rowPerm<>+40(SB)/8, $0x0000000e0000000a
DATA rowPerm<>+48(SB)/8, $0x0000000700000003
DATA rowPerm<>+56(SB)/8, $0x0000000f0000000b
GLOBL rowPerm<>(SB), RODATA|NOPTR, $64

// func dotBlock8x8AVX512(a *[8]*float32, b0, b1 *float32, depth int, c *float32, ldc int, acc bool)
//
// Sixty-four dot products: the 8 A rows a[0..7] against the 8 B rows of
// two packed panels (b0: columns 0..3, b1: columns 4..7; layout in
// dot.go). Accumulator Z(2i+p) holds row i against panel p: its 128-bit
// chunk j is output (i, 4p+j)'s four lane sums, so a 4-k chunk is one
// 64-byte panel load per panel against one VBROADCASTF32X4 per A row. Per
// four k that is 10 loads, 16 VMULPS and 16 VADDPS for 256 multiply-adds,
// with 16 independent add chains. Every operation keeps the operand order
// of one lane of the portable kernel (dot.go): product then sum, each
// rounded — no FMA, which would round once and change the result. AX is
// the byte offset of the current k in every A row; the panels' terms of
// that k start at byte 4·AX. Row r of the block is stored to
// c[r*ldc : r*ldc+8], or added there when acc is set.
//
// Only AVX-512F instructions touch ZMM state; the 256-bit steps use VEX
// encodings on Y0..Y15.
TEXT ·dotBlock8x8AVX512(SB), NOSPLIT, $0-49
	MOVQ a+0(FP), AX
	MOVQ 0(AX), SI
	MOVQ 8(AX), DI
	MOVQ 16(AX), R8
	MOVQ 24(AX), R9
	MOVQ 32(AX), R10
	MOVQ 40(AX), R11
	MOVQ 48(AX), R12
	MOVQ 56(AX), R13
	MOVQ b0+8(FP), R14
	MOVQ b1+16(FP), BX
	MOVQ depth+24(FP), CX

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15

	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX
	SHLQ $2, DX // byte offset where the depth%4 tail starts
	JZ   reduce

loop:
	VMOVUPS (R14)(AX*4), Z16
	VMOVUPS (BX)(AX*4), Z17
	VBROADCASTF32X4 (SI)(AX*1), Z18
	VBROADCASTF32X4 (DI)(AX*1), Z19
	VBROADCASTF32X4 (R8)(AX*1), Z20
	VBROADCASTF32X4 (R9)(AX*1), Z21
	VMULPS Z16, Z18, Z24
	VMULPS Z17, Z18, Z25
	VMULPS Z16, Z19, Z26
	VMULPS Z17, Z19, Z27
	VADDPS Z24, Z0, Z0
	VADDPS Z25, Z1, Z1
	VADDPS Z26, Z2, Z2
	VADDPS Z27, Z3, Z3
	VMULPS Z16, Z20, Z28
	VMULPS Z17, Z20, Z29
	VMULPS Z16, Z21, Z30
	VMULPS Z17, Z21, Z31
	VADDPS Z28, Z4, Z4
	VADDPS Z29, Z5, Z5
	VADDPS Z30, Z6, Z6
	VADDPS Z31, Z7, Z7
	VBROADCASTF32X4 (R10)(AX*1), Z22
	VBROADCASTF32X4 (R11)(AX*1), Z23
	VBROADCASTF32X4 (R12)(AX*1), Z18
	VBROADCASTF32X4 (R13)(AX*1), Z19
	VMULPS Z16, Z22, Z24
	VMULPS Z17, Z22, Z25
	VMULPS Z16, Z23, Z26
	VMULPS Z17, Z23, Z27
	VADDPS Z24, Z8, Z8
	VADDPS Z25, Z9, Z9
	VADDPS Z26, Z10, Z10
	VADDPS Z27, Z11, Z11
	VMULPS Z16, Z18, Z28
	VMULPS Z17, Z18, Z29
	VMULPS Z16, Z19, Z30
	VMULPS Z17, Z19, Z31
	VADDPS Z28, Z12, Z12
	VADDPS Z29, Z13, Z13
	VADDPS Z30, Z14, Z14
	VADDPS Z31, Z15, Z15

	ADDQ $16, AX
	CMPQ AX, DX
	JB   loop

reduce:
	// Transpose each row pair's four accumulators within their 128-bit
	// chunks so lane L of every output lands in one register, reduce as
	// (l0+l2)+(l1+l3), then permute the pair's sixteen outputs into store
	// order. Row pair g ends in Z(4g).
	VMOVUPS rowPerm<>(SB), Z31

	VUNPCKLPS Z1, Z0, Z16
	VUNPCKHPS Z1, Z0, Z17
	VUNPCKLPS Z3, Z2, Z18
	VUNPCKHPS Z3, Z2, Z19
	VUNPCKLPD Z18, Z16, Z20 // lane 0
	VUNPCKHPD Z18, Z16, Z21 // lane 1
	VUNPCKLPD Z19, Z17, Z22 // lane 2
	VUNPCKHPD Z19, Z17, Z23 // lane 3
	VADDPS    Z22, Z20, Z20
	VADDPS    Z23, Z21, Z21
	VADDPS    Z21, Z20, Z20
	VPERMPS   Z20, Z31, Z0

	VUNPCKLPS Z5, Z4, Z16
	VUNPCKHPS Z5, Z4, Z17
	VUNPCKLPS Z7, Z6, Z18
	VUNPCKHPS Z7, Z6, Z19
	VUNPCKLPD Z18, Z16, Z20 // lane 0
	VUNPCKHPD Z18, Z16, Z21 // lane 1
	VUNPCKLPD Z19, Z17, Z22 // lane 2
	VUNPCKHPD Z19, Z17, Z23 // lane 3
	VADDPS    Z22, Z20, Z20
	VADDPS    Z23, Z21, Z21
	VADDPS    Z21, Z20, Z20
	VPERMPS   Z20, Z31, Z4

	VUNPCKLPS Z9, Z8, Z16
	VUNPCKHPS Z9, Z8, Z17
	VUNPCKLPS Z11, Z10, Z18
	VUNPCKHPS Z11, Z10, Z19
	VUNPCKLPD Z18, Z16, Z20 // lane 0
	VUNPCKHPD Z18, Z16, Z21 // lane 1
	VUNPCKLPD Z19, Z17, Z22 // lane 2
	VUNPCKHPD Z19, Z17, Z23 // lane 3
	VADDPS    Z22, Z20, Z20
	VADDPS    Z23, Z21, Z21
	VADDPS    Z21, Z20, Z20
	VPERMPS   Z20, Z31, Z8

	VUNPCKLPS Z13, Z12, Z16
	VUNPCKHPS Z13, Z12, Z17
	VUNPCKLPS Z15, Z14, Z18
	VUNPCKHPS Z15, Z14, Z19
	VUNPCKLPD Z18, Z16, Z20 // lane 0
	VUNPCKHPD Z18, Z16, Z21 // lane 1
	VUNPCKLPD Z19, Z17, Z22 // lane 2
	VUNPCKHPD Z19, Z17, Z23 // lane 3
	VADDPS    Z22, Z20, Z20
	VADDPS    Z23, Z21, Z21
	VADDPS    Z21, Z20, Z20
	VPERMPS   Z20, Z31, Z12

	// Tail: the depth%4 trailing terms accumulate onto the reduced sums in
	// ascending k, one [a_r ×8 | a_{r+1} ×8] · [b0..b7 | b0..b7] product per
	// row pair; each panel holds a tail k's four B values contiguously.
	ANDQ $3, CX
	JZ   store

tail:
	VBROADCASTF32X4 (R14)(AX*4), Z1
	VINSERTF32X4    $1, (BX)(AX*4), Z1, Z1
	VINSERTF32X4    $3, (BX)(AX*4), Z1, Z1
	VBROADCASTSS    (SI)(AX*1), Y2
	VBROADCASTSS    (DI)(AX*1), Y3
	VINSERTF64X4    $1, Y3, Z2, Z2
	VMULPS          Z1, Z2, Z2
	VADDPS          Z2, Z0, Z0
	VBROADCASTSS    (R8)(AX*1), Y2
	VBROADCASTSS    (R9)(AX*1), Y3
	VINSERTF64X4    $1, Y3, Z2, Z2
	VMULPS          Z1, Z2, Z2
	VADDPS          Z2, Z4, Z4
	VBROADCASTSS    (R10)(AX*1), Y2
	VBROADCASTSS    (R11)(AX*1), Y3
	VINSERTF64X4    $1, Y3, Z2, Z2
	VMULPS          Z1, Z2, Z2
	VADDPS          Z2, Z8, Z8
	VBROADCASTSS    (R12)(AX*1), Y2
	VBROADCASTSS    (R13)(AX*1), Y3
	VINSERTF64X4    $1, Y3, Z2, Z2
	VMULPS          Z1, Z2, Z2
	VADDPS          Z2, Z12, Z12
	ADDQ $4, AX
	DECQ CX
	JNZ  tail

store:
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), CX
	SHLQ $2, CX // row stride in bytes
	VEXTRACTF64X4 $1, Z0, Y1
	VEXTRACTF64X4 $1, Z4, Y5
	VEXTRACTF64X4 $1, Z8, Y9
	VEXTRACTF64X4 $1, Z12, Y13
	CMPB acc+48(FP), $0
	JNE  accumulate
	VMOVUPS Y0, (DX)
	ADDQ    CX, DX
	VMOVUPS Y1, (DX)
	ADDQ    CX, DX
	VMOVUPS Y4, (DX)
	ADDQ    CX, DX
	VMOVUPS Y5, (DX)
	ADDQ    CX, DX
	VMOVUPS Y8, (DX)
	ADDQ    CX, DX
	VMOVUPS Y9, (DX)
	ADDQ    CX, DX
	VMOVUPS Y12, (DX)
	ADDQ    CX, DX
	VMOVUPS Y13, (DX)
	VZEROUPPER
	RET

accumulate:
	VADDPS  (DX), Y0, Y0
	VMOVUPS Y0, (DX)
	ADDQ    CX, DX
	VADDPS  (DX), Y1, Y1
	VMOVUPS Y1, (DX)
	ADDQ    CX, DX
	VADDPS  (DX), Y4, Y4
	VMOVUPS Y4, (DX)
	ADDQ    CX, DX
	VADDPS  (DX), Y5, Y5
	VMOVUPS Y5, (DX)
	ADDQ    CX, DX
	VADDPS  (DX), Y8, Y8
	VMOVUPS Y8, (DX)
	ADDQ    CX, DX
	VADDPS  (DX), Y9, Y9
	VMOVUPS Y9, (DX)
	ADDQ    CX, DX
	VADDPS  (DX), Y12, Y12
	VMOVUPS Y12, (DX)
	ADDQ    CX, DX
	VADDPS  (DX), Y13, Y13
	VMOVUPS Y13, (DX)
	VZEROUPPER
	RET
