//go:build amd64

#include "textflag.h"

// func x86HasAVX2() bool
//
// Standard AVX2 availability probe: CPUID.1:ECX must report OSXSAVE and
// AVX, XGETBV(0) must show the OS saves XMM and YMM state, and
// CPUID.(7,0):EBX bit 5 must report AVX2.
TEXT ·x86HasAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE | AVX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX          // XMM | YMM state enabled
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX      // AVX2
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func x86HasAVX512() bool
//
// AVX-512F availability probe: CPUID.1:ECX must report OSXSAVE, XGETBV(0)
// must show the OS saves XMM, YMM, opmask and both halves of the upper ZMM
// state (XCR0 bits 1, 2, 5, 6 and 7), and CPUID.(7,0):EBX bit 16 must
// report AVX512F.
TEXT ·x86HasAVX512(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x08000000, CX // OSXSAVE
	JZ   no512
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX       // XMM | YMM | opmask | ZMM_Hi256 | Hi16_ZMM
	CMPL AX, $0xe6
	JNE  no512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x10000, BX   // AVX512F
	JZ   no512
	MOVB $1, ret+0(FP)
	RET

no512:
	MOVB $0, ret+0(FP)
	RET

// func x86HasF16C() bool
//
// F16C availability probe: CPUID.1:ECX must report OSXSAVE, AVX (the
// kernels' compares and blends are VEX-encoded) and F16C (bit 29), and
// XGETBV(0) must show the OS saves XMM and YMM state.
TEXT ·x86HasF16C(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x38000000, CX // OSXSAVE | AVX | F16C
	CMPL CX, $0x38000000
	JNE  nof16c
	XORL CX, CX
	XGETBV
	ANDL $6, AX          // XMM | YMM state enabled
	CMPL AX, $6
	JNE  nof16c
	MOVB $1, ret+0(FP)
	RET

nof16c:
	MOVB $0, ret+0(FP)
	RET
