#include "textflag.h"
#include "gemm_amd64.h"

// The avx512 register tiles (hasAVX512 in kernel_amd64.go: AVX512F for the
// 512-bit arithmetic and the opmask registers). The contract is tile's in
// kernel.go; gemm6x64Kernel keeps six rows of C by four 16-lane vectors in
// Z8-Z31 and gemm6x16Kernel six rows by one masked vector in Z8-Z13, and
// each runs down the panel's rows six at a time. Per k each loads the row
// of B once and broadcasts each row's element of A, so every lane is one
// VFMADD231PS chain over k in order. Both end with VZEROUPPER.

// WROW multiplies one row's broadcast A element into its four accumulators.
#define WROW(src, r0, r1, r2, r3) \
	VBROADCASTSS src, Z4;   \
	VFMADD231PS  Z0, Z4, r0; \
	VFMADD231PS  Z1, Z4, r1; \
	VFMADD231PS  Z2, Z4, r2; \
	VFMADD231PS  Z3, Z4, r3

#define WZERO(r0, r1, r2, r3) \
	VPXORD r0, r0, r0; \
	VPXORD r1, r1, r1; \
	VPXORD r2, r2, r2; \
	VPXORD r3, r3, r3

// WSTORE adds the bias (Z0-Z3), raises each lane to the floor (Z5; the
// accumulator is VMAXPS's second source, so a NaN stays a NaN) and stores.
#define WSTORE(p, r0, r1, r2, r3) \
	VADDPS  Z0, r0, r0;   \
	VADDPS  Z1, r1, r1;   \
	VADDPS  Z2, r2, r2;   \
	VADDPS  Z3, r3, r3;   \
	VMAXPS  r0, Z5, r0;   \
	VMAXPS  r1, Z5, r1;   \
	VMAXPS  r2, Z5, r2;   \
	VMAXPS  r3, Z5, r3;   \
	VMOVUPS r0, (p);      \
	VMOVUPS r1, 64(p);    \
	VMOVUPS r2, 128(p);   \
	VMOVUPS r3, 192(p)

// func gemm6x64Kernel(c *float32, ldc int, a *float32, lda int, b *float32, ldb int, rows, cols, k int, bias *float32, floor float32)
//
// tile for exactly 64 columns (cols is unread): 24 FMAs per k on four
// loads of B and six broadcasts.
TEXT ·gemm6x64Kernel(SB), NOSPLIT, $0-84
wtile:
	WZERO(Z8, Z9, Z10, Z11)
	WZERO(Z12, Z13, Z14, Z15)
	WZERO(Z16, Z17, Z18, Z19)
	WZERO(Z20, Z21, Z22, Z23)
	WZERO(Z24, Z25, Z26, Z27)
	WZERO(Z28, Z29, Z30, Z31)
	AROWS
	TESTQ CX, CX
	JZ    wdone

wloop:
	VMOVUPS (BX), Z0
	VMOVUPS 64(BX), Z1
	VMOVUPS 128(BX), Z2
	VMOVUPS 192(BX), Z3
	WROW((SI)(DX*1), Z8, Z9, Z10, Z11)
	WROW((DI)(DX*1), Z12, Z13, Z14, Z15)
	WROW((R8)(DX*1), Z16, Z17, Z18, Z19)
	WROW((R9)(DX*1), Z20, Z21, Z22, Z23)
	WROW((R12)(DX*1), Z24, Z25, Z26, Z27)
	WROW((R13)(DX*1), Z28, Z29, Z30, Z31)
	ADDQ    $4, DX
	ADDQ    R14, BX
	DECQ    CX
	JNZ     wloop

wdone:
	MOVQ         bias+72(FP), BX
	VMOVUPS      (BX), Z0
	VMOVUPS      64(BX), Z1
	VMOVUPS      128(BX), Z2
	VMOVUPS      192(BX), Z3
	VBROADCASTSS floor+80(FP), Z5
	CROWS
	WSTORE(SI, Z8, Z9, Z10, Z11)
	WSTORE(DI, Z12, Z13, Z14, Z15)
	WSTORE(R8, Z16, Z17, Z18, Z19)
	WSTORE(R9, Z20, Z21, Z22, Z23)
	WSTORE(R12, Z24, Z25, Z26, Z27)
	WSTORE(R13, Z28, Z29, Z30, Z31)
	NEXTTILE(wtile)
	VZEROUPPER
	RET

// NROW is WROW for one masked vector; NSTORE is WSTORE's.
#define NROW(src, r) \
	VBROADCASTSS src, Z4; \
	VFMADD231PS  Z0, Z4, r

#define NSTORE(p, r) \
	VADDPS  Z0, r, r; \
	VMAXPS  r, Z5, r; \
	VMOVUPS r, K1, (p)

// func gemm6x16Kernel(c *float32, ldc int, a *float32, lda int, b *float32, ldb int, rows, cols, k int, bias *float32, floor float32)
//
// tile for 1 <= cols <= 16 columns: the lanes past cols are masked off
// (K1) in every load and store of B, C and the bias, so nothing past them
// is read or written.
TEXT ·gemm6x16Kernel(SB), NOSPLIT, $0-84
	MOVQ  cols+56(FP), CX
	MOVL  $1, DX
	SHLL  CX, DX
	DECL  DX
	KMOVW DX, K1

ntile:
	WZERO(Z8, Z9, Z10, Z11)
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	AROWS
	TESTQ CX, CX
	JZ    ndone

nloop:
	VMOVUPS.Z (BX), K1, Z0
	NROW((SI)(DX*1), Z8)
	NROW((DI)(DX*1), Z9)
	NROW((R8)(DX*1), Z10)
	NROW((R9)(DX*1), Z11)
	NROW((R12)(DX*1), Z12)
	NROW((R13)(DX*1), Z13)
	ADDQ      $4, DX
	ADDQ      R14, BX
	DECQ      CX
	JNZ       nloop

ndone:
	MOVQ         bias+72(FP), BX
	VMOVUPS.Z    (BX), K1, Z0
	VBROADCASTSS floor+80(FP), Z5
	CROWS
	NSTORE(SI, Z8)
	NSTORE(DI, Z9)
	NSTORE(R8, Z10)
	NSTORE(R9, Z11)
	NSTORE(R12, Z12)
	NSTORE(R13, Z13)
	NEXTTILE(ntile)
	VZEROUPPER
	RET
