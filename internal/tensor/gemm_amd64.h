// The row and argument set-up the avx2 and avx512 register tiles share
// (gemm_avx2_amd64.s, gemm_avx512_amd64.s), whose arguments are tile's in
// kernel.go.

// ROWPTRS sets p1..p5 to the rows after p0, ld bytes apart, where there are
// that many rows and to the last row where there are not: a last tile of
// fewer than six rows computes its last row again and stores the same bits
// to the same place, and reads and writes nothing outside its rows.
#define ROWPTRS(p0, ld, rows, p1, p2, p3, p4, p5) \
	LEAQ    (p0)(ld*1), p1; \
	CMPQ    rows, $2;       \
	CMOVQLT p0, p1;         \
	LEAQ    (p1)(ld*1), p2; \
	CMPQ    rows, $3;       \
	CMOVQLT p1, p2;         \
	LEAQ    (p2)(ld*1), p3; \
	CMPQ    rows, $4;       \
	CMOVQLT p2, p3;         \
	LEAQ    (p3)(ld*1), p4; \
	CMPQ    rows, $5;       \
	CMOVQLT p3, p4;         \
	LEAQ    (p4)(ld*1), p5; \
	CMPQ    rows, $6;       \
	CMOVQLT p4, p5

// The pointer set-up both kernels share: CROWS puts C's row pointers in SI,
// DI, R8, R9, R12, R13 for the stores, and AROWS puts A's there, B in BX,
// ldb in R14, k in CX and the running byte offset into the A rows in DX.
// Both leave rows in AX; CROWS leaves ldc in R11.
#define CROWS \
	MOVQ rows+48(FP), AX; \
	MOVQ ldc+8(FP), R11;  \
	SHLQ $2, R11;         \
	MOVQ c+0(FP), SI;     \
	ROWPTRS(SI, R11, AX, DI, R8, R9, R12, R13)

#define AROWS \
	MOVQ rows+48(FP), AX; \
	MOVQ a+16(FP), SI;    \
	MOVQ lda+24(FP), R10; \
	SHLQ $2, R10;         \
	ROWPTRS(SI, R10, AX, DI, R8, R9, R12, R13); \
	MOVQ b+32(FP), BX;    \
	MOVQ ldb+40(FP), R14; \
	SHLQ $2, R14;         \
	MOVQ k+64(FP), CX;    \
	XORQ DX, DX

// NEXTTILE moves a and c on by six rows, and jumps back to top while rows
// are left: one call runs the tile down every row of its panel.
#define NEXTTILE(top) \
	MOVQ  rows+48(FP), AX; \
	SUBQ  $6, AX;          \
	MOVQ  AX, rows+48(FP); \
	MOVQ  lda+24(FP), DX;  \
	IMULQ $24, DX;         \
	ADDQ  DX, a+16(FP);    \
	MOVQ  ldc+8(FP), DX;   \
	IMULQ $24, DX;         \
	ADDQ  DX, c+0(FP);     \
	TESTQ AX, AX;          \
	JG    top
