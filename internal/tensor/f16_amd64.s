//go:build amd64

#include "textflag.h"

// func encodeF16F16C(dst []byte, src []float32) (nan bool)
//
// Eight floats per pass through VCVTPS2PH with imm 0 (round to nearest
// even), which gives F16FromF32's bits for every non-NaN input. An
// unordered self-compare of each block is ORed into Y3, and the result
// reports whether any input was a NaN: VCVTPS2PH keeps a NaN's payload,
// F16FromF32 does not, so the caller then converts the slice again with
// the scalar loop. len(src) is a multiple of 8; dst holds 2*len(src)
// bytes.
TEXT ·encodeF16F16C(SB), NOSPLIT, $0-49
	MOVQ   dst_base+0(FP), DI
	MOVQ   src_base+24(FP), SI
	MOVQ   src_len+32(FP), CX
	VXORPS Y3, Y3, Y3
	SHRQ   $3, CX
	JZ     encdone

encloop:
	VMOVUPS   (SI), Y0
	VCMPPS    $3, Y0, Y0, Y1 // unordered: the NaN lanes
	VORPS     Y1, Y3, Y3
	VCVTPS2PH $0, Y0, (DI)
	ADDQ      $32, SI
	ADDQ      $16, DI
	DECQ      CX
	JNZ       encloop

encdone:
	VMOVMSKPS Y3, AX
	VZEROUPPER
	TESTL     AX, AX
	SETNE     nan+48(FP)
	RET

// func decodeF16F16C(dst []float32, src []byte) (nan bool)
//
// Eight halves per pass through VCVTPH2PS, which is exact for every
// non-NaN half; as in encodeF16F16C, the result reports a NaN output,
// whose payload differs from F32FromF16's, for the caller to convert
// again with the scalar loop. len(dst) is a multiple of 8; src holds
// 2*len(dst) bytes.
TEXT ·decodeF16F16C(SB), NOSPLIT, $0-49
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   src_base+24(FP), SI
	VXORPS Y3, Y3, Y3
	SHRQ   $3, CX
	JZ     decdone

decloop:
	VCVTPH2PS (SI), Y0
	VCMPPS    $3, Y0, Y0, Y1
	VORPS     Y1, Y3, Y3
	VMOVUPS   Y0, (DI)
	ADDQ      $16, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       decloop

decdone:
	VMOVMSKPS Y3, AX
	VZEROUPPER
	TESTL     AX, AX
	SETNE     nan+48(FP)
	RET
