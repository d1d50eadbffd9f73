//go:build amd64

#include "textflag.h"

// func transposeStripAVX2(src *float32, lds int, dst *float32, ldd, rows int)
//
// Transposes a rows×8 block of a row-major matrix (row stride lds floats)
// into an 8×rows block (row stride ldd floats): dst[c*ldd+i] = src[i*lds+c].
// rows must be a multiple of 8. Each pass loads eight source rows of eight
// values and transposes them in registers: VUNPCKLPS/VUNPCKHPS interleave
// row pairs, VSHUFPS 0x44/0xEE gathers four rows of a column per 128-bit
// lane, and VPERM2F128 0x20/0x31 joins the lanes of rows 0..3 and 4..7.
// Every destination row then takes one 32-byte store, so the eight
// destination rows are written as contiguous runs. Only moves: the bits
// are the source's.
TEXT ·transposeStripAVX2(SB), NOSPLIT, $0-40
	MOVQ src+0(FP), SI
	MOVQ lds+8(FP), R8
	MOVQ dst+16(FP), DI
	MOVQ ldd+24(FP), R9
	MOVQ rows+32(FP), CX

	SHLQ $2, R8              // source row stride in bytes
	SHLQ $2, R9              // destination row stride in bytes
	LEAQ (R8)(R8*2), R10     // three source rows
	LEAQ (R9)(R9*2), R11     // three destination rows
	LEAQ (SI)(R8*4), R12     // source rows 4..7
	LEAQ (DI)(R9*4), R13     // destination rows 4..7
	MOVQ R8, BX
	SHLQ $3, BX              // eight source rows
	SHRQ $3, CX
	JZ   tdone

tloop:
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(R8*1), Y1
	VMOVUPS (SI)(R8*2), Y2
	VMOVUPS (SI)(R10*1), Y3
	VMOVUPS (R12), Y4
	VMOVUPS (R12)(R8*1), Y5
	VMOVUPS (R12)(R8*2), Y6
	VMOVUPS (R12)(R10*1), Y7

	// Rows a..h, columns 0..7. After the unpacks, per 128-bit lane:
	// Y8 = a0 b0 a1 b1 | a4 b4 a5 b5, Y9 = a2 b2 a3 b3 | a6 b6 a7 b7, …
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15

	// Y0 = a0 b0 c0 d0 | a4 b4 c4 d4, Y1 = columns 1 | 5, Y2 = 2 | 6,
	// Y3 = 3 | 7; Y4..Y7 the same for rows e..h.
	VSHUFPS $0x44, Y10, Y8, Y0
	VSHUFPS $0xEE, Y10, Y8, Y1
	VSHUFPS $0x44, Y11, Y9, Y2
	VSHUFPS $0xEE, Y11, Y9, Y3
	VSHUFPS $0x44, Y14, Y12, Y4
	VSHUFPS $0xEE, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xEE, Y15, Y13, Y7

	// Column c of the block: the low lanes for c < 4, the high for c ≥ 4.
	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15

	VMOVUPS Y8, (DI)
	VMOVUPS Y9, (DI)(R9*1)
	VMOVUPS Y10, (DI)(R9*2)
	VMOVUPS Y11, (DI)(R11*1)
	VMOVUPS Y12, (R13)
	VMOVUPS Y13, (R13)(R9*1)
	VMOVUPS Y14, (R13)(R9*2)
	VMOVUPS Y15, (R13)(R11*1)

	ADDQ BX, SI
	ADDQ BX, R12
	ADDQ $32, DI
	ADDQ $32, R13
	DECQ CX
	JNZ  tloop

tdone:
	VZEROUPPER
	RET

// func packPanelPairAVX2(src *float32, lds int, dst *float32, depth, rows int)
//
// Packs rows [0, rows) of eight adjacent columns of a row-major B (row
// stride lds floats) into two adjacent panels (see PackedB): dst is the
// first panel's chunk of the first row, and the second panel starts
// 4·depth floats after the first. rows must be a multiple of 4. Each pass
// loads four source rows of eight values, transposes the two 4×4 quarters
// in their 128-bit lanes (VUNPCKLPS/VUNPCKHPS, VSHUFPS 0x44/0xEE), joins
// the lanes per panel (VPERM2F128 0x20 for columns 0..3, 0x31 for 4..7)
// and stores one 16-float chunk in each panel. Only moves: the bits are
// the source's.
TEXT ·packPanelPairAVX2(SB), NOSPLIT, $0-40
	MOVQ src+0(FP), SI
	MOVQ lds+8(FP), R8
	MOVQ dst+16(FP), DI
	MOVQ depth+24(FP), R9
	MOVQ rows+32(FP), CX

	SHLQ $2, R8              // source row stride in bytes
	LEAQ (R8)(R8*2), R10     // three source rows
	SHLQ $4, R9              // panel size in bytes
	LEAQ (DI)(R9*1), R11     // the second panel's chunk
	MOVQ R8, BX
	SHLQ $2, BX              // four source rows
	SHRQ $2, CX
	JZ   pdone

ploop:
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(R8*1), Y1
	VMOVUPS (SI)(R8*2), Y2
	VMOVUPS (SI)(R10*1), Y3

	VUNPCKLPS Y1, Y0, Y4
	VUNPCKHPS Y1, Y0, Y5
	VUNPCKLPS Y3, Y2, Y6
	VUNPCKHPS Y3, Y2, Y7

	// Y0 = a0 b0 c0 d0 | a4 b4 c4 d4: column 0 | column 4 of the four rows.
	VSHUFPS $0x44, Y6, Y4, Y0
	VSHUFPS $0xEE, Y6, Y4, Y1
	VSHUFPS $0x44, Y7, Y5, Y2
	VSHUFPS $0xEE, Y7, Y5, Y3

	VPERM2F128 $0x20, Y1, Y0, Y4
	VPERM2F128 $0x20, Y3, Y2, Y5
	VPERM2F128 $0x31, Y1, Y0, Y6
	VPERM2F128 $0x31, Y3, Y2, Y7

	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	VMOVUPS Y6, (R11)
	VMOVUPS Y7, 32(R11)

	ADDQ BX, SI
	ADDQ $64, DI
	ADDQ $64, R11
	DECQ CX
	JNZ  ploop

pdone:
	VZEROUPPER
	RET
