#include "textflag.h"
#include "gemm_amd64.h"

// The avx2 register tiles (hasAVX2 in kernel_amd64.go: AVX2 and FMA, and
// the OS saving the YMM state). The contract is tile's in kernel.go;
// gemm6x16AVX2Kernel keeps six rows of C by two 8-lane vectors in Y4-Y15
// and gemm6x8AVX2Kernel six rows by one masked vector in Y4-Y9, and each
// runs down the panel's rows six at a time. Per k each loads the row of B
// once and broadcasts each row's element of A, so every lane is one
// VFMADD231PS chain over k in order. Both end with VZEROUPPER.

// maskTab holds eight all-ones lanes and eight zero lanes: the eight lanes
// from (8-cols) on are the VMASKMOVPS mask of the first cols lanes.
DATA  maskTab<>+0(SB)/8, $-1
DATA  maskTab<>+8(SB)/8, $-1
DATA  maskTab<>+16(SB)/8, $-1
DATA  maskTab<>+24(SB)/8, $-1
DATA  maskTab<>+32(SB)/8, $0
DATA  maskTab<>+40(SB)/8, $0
DATA  maskTab<>+48(SB)/8, $0
DATA  maskTab<>+56(SB)/8, $0
GLOBL maskTab<>(SB), RODATA|NOPTR, $64

#define YROW(src, r0, r1) \
	VBROADCASTSS src, Y2;   \
	VFMADD231PS  Y0, Y2, r0; \
	VFMADD231PS  Y1, Y2, r1

#define YZERO(r0, r1) \
	VXORPS r0, r0, r0; \
	VXORPS r1, r1, r1

// YSTORE adds the bias (Y0, Y1), raises each lane to the floor (Y3; the
// accumulator is VMAXPS's second source, so a NaN stays a NaN) and stores.
#define YSTORE(p, r0, r1) \
	VADDPS  Y0, r0, r0; \
	VADDPS  Y1, r1, r1; \
	VMAXPS  r0, Y3, r0; \
	VMAXPS  r1, Y3, r1; \
	VMOVUPS r0, (p);    \
	VMOVUPS r1, 32(p)

// func gemm6x16AVX2Kernel(c *float32, ldc int, a *float32, lda int, b *float32, ldb int, rows, cols, k int, bias *float32, floor float32)
//
// tile for exactly 16 columns (cols is unread): 12 FMAs per k on two loads
// of B and six broadcasts.
TEXT ·gemm6x16AVX2Kernel(SB), NOSPLIT, $0-84
wtile:
	YZERO(Y4, Y5)
	YZERO(Y6, Y7)
	YZERO(Y8, Y9)
	YZERO(Y10, Y11)
	YZERO(Y12, Y13)
	YZERO(Y14, Y15)
	AROWS
	TESTQ CX, CX
	JZ    wdone

wloop:
	VMOVUPS (BX), Y0
	VMOVUPS 32(BX), Y1
	YROW((SI)(DX*1), Y4, Y5)
	YROW((DI)(DX*1), Y6, Y7)
	YROW((R8)(DX*1), Y8, Y9)
	YROW((R9)(DX*1), Y10, Y11)
	YROW((R12)(DX*1), Y12, Y13)
	YROW((R13)(DX*1), Y14, Y15)
	ADDQ    $4, DX
	ADDQ    R14, BX
	DECQ    CX
	JNZ     wloop

wdone:
	MOVQ         bias+72(FP), BX
	VMOVUPS      (BX), Y0
	VMOVUPS      32(BX), Y1
	VBROADCASTSS floor+80(FP), Y3
	CROWS
	YSTORE(SI, Y4, Y5)
	YSTORE(DI, Y6, Y7)
	YSTORE(R8, Y8, Y9)
	YSTORE(R9, Y10, Y11)
	YSTORE(R12, Y12, Y13)
	YSTORE(R13, Y14, Y15)
	NEXTTILE(wtile)
	VZEROUPPER
	RET

// NROW and NSTORE are YROW and YSTORE for one vector under the mask in Y3
// (bias in Y0, floor in Y1).
#define NROW(src, r) \
	VBROADCASTSS src, Y2; \
	VFMADD231PS  Y0, Y2, r

#define NSTORE(p, r) \
	VADDPS     Y0, r, r; \
	VMAXPS     r, Y1, r; \
	VMASKMOVPS r, Y3, (p)

// func gemm6x8AVX2Kernel(c *float32, ldc int, a *float32, lda int, b *float32, ldb int, rows, cols, k int, bias *float32, floor float32)
//
// tile for 1 <= cols <= 8 columns: every load and store of B, C and the
// bias goes through the mask of the first cols lanes, so nothing past them
// is read or written.
TEXT ·gemm6x8AVX2Kernel(SB), NOSPLIT, $0-84
	MOVQ    $8, CX
	SUBQ    cols+56(FP), CX
	LEAQ    maskTab<>(SB), DX
	VMOVUPS (DX)(CX*4), Y3

ntile:
	YZERO(Y4, Y5)
	YZERO(Y6, Y7)
	YZERO(Y8, Y9)
	AROWS
	TESTQ CX, CX
	JZ    ndone

nloop:
	VMASKMOVPS (BX), Y3, Y0
	NROW((SI)(DX*1), Y4)
	NROW((DI)(DX*1), Y5)
	NROW((R8)(DX*1), Y6)
	NROW((R9)(DX*1), Y7)
	NROW((R12)(DX*1), Y8)
	NROW((R13)(DX*1), Y9)
	ADDQ       $4, DX
	ADDQ       R14, BX
	DECQ       CX
	JNZ        nloop

ndone:
	MOVQ         bias+72(FP), BX
	VMASKMOVPS   (BX), Y3, Y0
	VBROADCASTSS floor+80(FP), Y1
	CROWS
	NSTORE(SI, Y4)
	NSTORE(DI, Y5)
	NSTORE(R8, Y6)
	NSTORE(R9, Y7)
	NSTORE(R12, Y8)
	NSTORE(R13, Y9)
	NEXTTILE(ntile)
	VZEROUPPER
	RET
