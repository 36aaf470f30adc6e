#include "textflag.h"

// func patchRowKernel(dst, src *float32, channels, plane, pw int)
//
// One pixel's row of the 3x3/pad-1 patch matrix, front to back, out of
// zero-bordered planes (plane floats apart, rows pw floats apart; src at the
// pixel's top-left tap in the first plane). Per channel the three kernel rows
// are three unaligned 16-byte loads, stored at dst+0, +12 and +24 bytes: each
// store's fourth float is overwritten by the next store, the next channel's
// first, or the next pixel's call, so dst[channels*9] is written as well.
// channels >= 1. VEX XMM moves only, which the avx2 and avx512 classes both
// have; no YMM upper half is dirtied.
TEXT ·patchRowKernel(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ channels+16(FP), CX
	MOVQ plane+24(FP), R8
	MOVQ pw+32(FP), R9
	SHLQ $2, R8
	SHLQ $2, R9

loop:
	VMOVUPS (SI), X0
	VMOVUPS (SI)(R9*1), X1
	VMOVUPS (SI)(R9*2), X2
	VMOVUPS X0, (DI)
	VMOVUPS X1, 12(DI)
	VMOVUPS X2, 24(DI)
	ADDQ    R8, SI
	ADDQ    $36, DI
	DECQ    CX
	JNZ     loop
	RET

// func padRowsKernel(dst, src *float32, channels, h, w, srcPlane, dstPlane int)
//
// padRows for w >= 4: each row of w floats as 16-byte moves front to back,
// the last one ending at the row's end and so overlapping the one before
// unless w%4 == 0. Reads and writes only the rows' floats.
TEXT ·padRowsKernel(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ channels+16(FP), CX
	MOVQ h+24(FP), R8
	MOVQ w+32(FP), R9
	MOVQ srcPlane+40(FP), R10
	MOVQ dstPlane+48(FP), R11
	SHLQ $2, R9
	SHLQ $2, R10
	SHLQ $2, R11
	LEAQ 8(R9), R12   // dst row stride: w+2 floats
	LEAQ -16(R9), R13 // the last move's offset in a row

plane:
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ R8, DX

row:
	XORQ R14, R14

move:
	VMOVUPS (AX)(R14*1), X0
	VMOVUPS X0, (BX)(R14*1)
	ADDQ    $16, R14
	CMPQ    R14, R13
	JL      move
	VMOVUPS (AX)(R13*1), X0
	VMOVUPS X0, (BX)(R13*1)
	ADDQ    R9, AX
	ADDQ    R12, BX
	DECQ    DX
	JNZ     row
	ADDQ    R10, SI
	ADDQ    R11, DI
	DECQ    CX
	JNZ     plane
	RET
