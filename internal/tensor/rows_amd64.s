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
