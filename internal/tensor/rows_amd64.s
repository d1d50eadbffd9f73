//go:build amd64

#include "textflag.h"

// func addRowAVX2(dst, src []float32)
//
// dst[j] += src[j] for j < len(dst): 32 elements per pass in four YMM
// registers, then 8 per pass, then one at a time. Every element is one
// VADDPS/VADDSS lane of dst[j] + src[j], the portable kernel's operation.
// AX is the element index.
TEXT ·addRowAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX

	MOVQ CX, BX
	ANDQ $-32, BX
	JZ   add8

add32:
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS 32(DI)(AX*4), Y1
	VMOVUPS 64(DI)(AX*4), Y2
	VMOVUPS 96(DI)(AX*4), Y3
	VADDPS  (SI)(AX*4), Y0, Y0
	VADDPS  32(SI)(AX*4), Y1, Y1
	VADDPS  64(SI)(AX*4), Y2, Y2
	VADDPS  96(SI)(AX*4), Y3, Y3
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	VMOVUPS Y2, 64(DI)(AX*4)
	VMOVUPS Y3, 96(DI)(AX*4)
	ADDQ    $32, AX
	CMPQ    AX, BX
	JB      add32

add8:
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ AX, BX
	JAE  add1

add8loop:
	VMOVUPS (DI)(AX*4), Y0
	VADDPS  (SI)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JB      add8loop

add1:
	CMPQ AX, CX
	JAE  adddone

add1loop:
	VMOVSS (DI)(AX*4), X0
	VADDSS (SI)(AX*4), X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	CMPQ   AX, CX
	JB     add1loop

adddone:
	VZEROUPPER
	RET

// func scaleRowAVX2(dst []float32, s float32)
//
// dst[j] *= s, in the same three stages as addRowAVX2.
TEXT ·scaleRowAVX2(SB), NOSPLIT, $0-28
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	VBROADCASTSS s+24(FP), Y4
	XORQ         AX, AX

	MOVQ CX, BX
	ANDQ $-32, BX
	JZ   scale8

scale32:
	VMULPS  (DI)(AX*4), Y4, Y0
	VMULPS  32(DI)(AX*4), Y4, Y1
	VMULPS  64(DI)(AX*4), Y4, Y2
	VMULPS  96(DI)(AX*4), Y4, Y3
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	VMOVUPS Y2, 64(DI)(AX*4)
	VMOVUPS Y3, 96(DI)(AX*4)
	ADDQ    $32, AX
	CMPQ    AX, BX
	JB      scale32

scale8:
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ AX, BX
	JAE  scale1

scale8loop:
	VMULPS  (DI)(AX*4), Y4, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JB      scale8loop

scale1:
	CMPQ AX, CX
	JAE  scaledone

scale1loop:
	VMULSS (DI)(AX*4), X4, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	CMPQ   AX, CX
	JB     scale1loop

scaledone:
	VZEROUPPER
	RET

// func reluAVX2(d []float32)
//
// d[j] = 0 where d[j] < 0, in the same three stages as addRowAVX2. VCMPPS
// with LT_OS against zero is true exactly for the negative non-NaN values
// (−0 < 0 is false, every comparison with a NaN is false), and VANDNPS
// clears those lanes, so −0 and NaNs keep their bits: the portable
// kernel's bit test.
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ   d_base+0(FP), DI
	MOVQ   d_len+8(FP), CX
	VXORPS Y15, Y15, Y15
	XORQ   AX, AX

	MOVQ CX, BX
	ANDQ $-32, BX
	JZ   relu8

relu32:
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS 32(DI)(AX*4), Y1
	VMOVUPS 64(DI)(AX*4), Y2
	VMOVUPS 96(DI)(AX*4), Y3
	VCMPPS  $1, Y15, Y0, Y4
	VCMPPS  $1, Y15, Y1, Y5
	VCMPPS  $1, Y15, Y2, Y6
	VCMPPS  $1, Y15, Y3, Y7
	VANDNPS Y0, Y4, Y0
	VANDNPS Y1, Y5, Y1
	VANDNPS Y2, Y6, Y2
	VANDNPS Y3, Y7, Y3
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	VMOVUPS Y2, 64(DI)(AX*4)
	VMOVUPS Y3, 96(DI)(AX*4)
	ADDQ    $32, AX
	CMPQ    AX, BX
	JB      relu32

relu8:
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ AX, BX
	JAE  relu1

relu8loop:
	VMOVUPS (DI)(AX*4), Y0
	VCMPPS  $1, Y15, Y0, Y4
	VANDNPS Y0, Y4, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JB      relu8loop

relu1:
	CMPQ AX, CX
	JAE  reludone

relu1loop:
	VMOVSS  (DI)(AX*4), X0
	VCMPSS  $1, X15, X0, X4
	VANDNPS X0, X4, X0
	VMOVSS  X0, (DI)(AX*4)
	INCQ    AX
	CMPQ    AX, CX
	JB      relu1loop

reludone:
	VZEROUPPER
	RET

// func reluBackwardAVX2(grad, act []float32)
//
// grad[j] = 0 where act[j] <= 0, for j < len(grad), in the same three
// stages: VCMPPS with LE_OS against zero is true for ±0 and the negative
// values and false for NaNs, and VANDNPS clears those gradient lanes,
// leaving every other gradient's bits as they are.
TEXT ·reluBackwardAVX2(SB), NOSPLIT, $0-48
	MOVQ   grad_base+0(FP), DI
	MOVQ   grad_len+8(FP), CX
	MOVQ   act_base+24(FP), SI
	VXORPS Y15, Y15, Y15
	XORQ   AX, AX

	MOVQ CX, BX
	ANDQ $-32, BX
	JZ   back8

back32:
	VMOVUPS (SI)(AX*4), Y0
	VMOVUPS 32(SI)(AX*4), Y1
	VMOVUPS 64(SI)(AX*4), Y2
	VMOVUPS 96(SI)(AX*4), Y3
	VCMPPS  $2, Y15, Y0, Y0
	VCMPPS  $2, Y15, Y1, Y1
	VCMPPS  $2, Y15, Y2, Y2
	VCMPPS  $2, Y15, Y3, Y3
	VANDNPS (DI)(AX*4), Y0, Y0
	VANDNPS 32(DI)(AX*4), Y1, Y1
	VANDNPS 64(DI)(AX*4), Y2, Y2
	VANDNPS 96(DI)(AX*4), Y3, Y3
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	VMOVUPS Y2, 64(DI)(AX*4)
	VMOVUPS Y3, 96(DI)(AX*4)
	ADDQ    $32, AX
	CMPQ    AX, BX
	JB      back32

back8:
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ AX, BX
	JAE  back1

back8loop:
	VMOVUPS (SI)(AX*4), Y0
	VCMPPS  $2, Y15, Y0, Y0
	VANDNPS (DI)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JB      back8loop

back1:
	CMPQ AX, CX
	JAE  backdone

back1loop:
	VMOVSS  (SI)(AX*4), X0
	VCMPSS  $2, X15, X0, X0
	VMOVSS  (DI)(AX*4), X1
	VANDNPS X1, X0, X0
	VMOVSS  X0, (DI)(AX*4)
	INCQ    AX
	CMPQ    AX, CX
	JB      back1loop

backdone:
	VZEROUPPER
	RET
