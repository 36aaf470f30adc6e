#include "textflag.h"

// The AVX-512 micro-kernels, gated behind runtime feature detection
// (hasAVX512 in dot_amd64.go): AVX512F for the 512-bit arithmetic, shuffles
// and opmask registers, AVX512VL for the 256-bit EVEX forms on Y16-Y31. The
// class borrows its other kernels from the AVX2 file. Every routine ends with
// VZEROUPPER, as the AVX2 ones do.

// reduceIdx is the VPERMPS index of the last reduction step of REDUCE8: the
// eight sums sit in lanes 0, 4, 8, 12 (columns 0-3) and 2, 6, 10, 14
// (columns 4-7).
DATA  reduceIdx<>+0(SB)/4, $0
DATA  reduceIdx<>+4(SB)/4, $4
DATA  reduceIdx<>+8(SB)/4, $8
DATA  reduceIdx<>+12(SB)/4, $12
DATA  reduceIdx<>+16(SB)/4, $2
DATA  reduceIdx<>+20(SB)/4, $6
DATA  reduceIdx<>+24(SB)/4, $10
DATA  reduceIdx<>+28(SB)/4, $14
GLOBL reduceIdx<>(SB), RODATA|NOPTR, $32

// FMA3 loads one 16-wide slice of a B row into Z3 and accumulates its
// products with the three A rows (Z0-Z2) into one tile column; FMA3Z does
// the same for the masked last step, loading only the K1 lanes (zero
// elsewhere, faults suppressed).
#define FMA3(src, r0, r1, r2) \
	VMOVUPS     src, Z3;     \
	VFMADD231PS Z3, Z0, r0;  \
	VFMADD231PS Z3, Z1, r1;  \
	VFMADD231PS Z3, Z2, r2

#define FMA3Z(src, r0, r1, r2) \
	VMOVUPS.Z   src, K1, Z3; \
	VFMADD231PS Z3, Z0, r0;  \
	VFMADD231PS Z3, Z1, r1;  \
	VFMADD231PS Z3, Z2, r2

// PAIR16 starts the reduction of two columns' 16-lane accumulators a and b:
// it leaves a = [lanes 0-7 + lanes 8-15 of a | the same of b], each folded
// half in its own 256-bit half. One shuffle brings the high half of a and
// the low half of b together, the K2 blend (lanes 8-15) the other two.
#define PAIR16(a, b)                \
	VSHUFF32X4 $0x4E, b, a, Z4; \
	VBLENDMPS  b, a, K2, a;     \
	VADDPS     Z4, a, a

// REDUCE8 reduces one tile row's eight accumulators r0..r7 (columns 0-7) to
// their eight sums, left in order in the low 256 bits of r0. Every column's
// sixteen lanes are summed by the same halving tree: lanes i and i+8, then
// i and i+4, i and i+2, i and i+1 — the 512-to-256 fold and then HSUM's
// order — with the columns' reductions sharing instructions. The pair step
// leaves four columns' 8-lane halves per register; two 128-bit shuffles then
// put the four columns' low quarters beside their high quarters (Z4, Z5), so
// one add halves all four; VSHUFPS and the K3 blend (lanes 2-3 of every
// quarter) do the same within 128-bit lanes for all eight columns, and one
// swap of neighbouring lanes finishes them, leaving column c's sum in lane
// 4c (c < 4) or 4(c-4)+2, which the Z7 permutation gathers.
#define REDUCE8(r0, r1, r2, r3, r4, r5, r6, r7) \
	PAIR16(r0, r1);                 \
	PAIR16(r2, r3);                 \
	PAIR16(r4, r5);                 \
	PAIR16(r6, r7);                 \
	VSHUFF32X4 $0x88, r2, r0, Z4;   \
	VSHUFF32X4 $0xDD, r2, r0, Z5;   \
	VADDPS     Z5, Z4, r0;          \
	VSHUFF32X4 $0x88, r6, r4, Z4;   \
	VSHUFF32X4 $0xDD, r6, r4, Z5;   \
	VADDPS     Z5, Z4, r4;          \
	VSHUFPS    $0x4E, r4, r0, Z4;   \
	VBLENDMPS  r4, r0, K3, r0;      \
	VADDPS     Z4, r0, r0;          \
	VSHUFPS    $0xB1, r0, r0, Z4;   \
	VADDPS     Z4, r0, r0;          \
	VPERMPS    r0, Z7, r0

// func tile3x8Kernel(a *float32, lda, rows int, b *float32, ldb, n int, c *float32, ldc int, acc bool)
//
// c[i*ldc+j] (+)= sum_{p < n} a[i*lda+p]*b[j*ldb+p] for i < rows, j in 0..7 —
// the MatMulTransB register tile of the avx512 class, run down a panel of A
// rows: three rows of A against eight rows of B at a time, the 24 ZMM
// accumulators in Z8-Z31 (row 0 in Z8-Z15, row 1 in Z16-Z23, row 2 in
// Z24-Z31). Each 16-wide step loads eleven vectors for 24 FMAs. Every
// accumulator is one chain over p in order, sixteen lanes wide; the last
// n%16 elements take one more step with the lanes past n zero (a masked
// load, so nothing past the rows is read), and then REDUCE8 sums the lanes.
// So an output element's bits depend on n and its two rows and on nothing
// else, and any n >= 1 works. A last group of fewer than three rows repeats
// its last row and stores only the rows there are. acc selects += over =.
TEXT ·tile3x8Kernel(SB), NOSPLIT, $0-65
	MOVQ    n+40(FP), CX
	ANDQ    $15, CX
	MOVL    $1, AX
	SHLL    CX, AX
	DECL    AX
	KMOVW   AX, K1             // the n%16 lanes of the masked step
	MOVL    $0xFF00, AX
	KMOVW   AX, K2
	MOVL    $0xCCCC, AX
	KMOVW   AX, K3
	VMOVUPS reduceIdx<>(SB), Y7
	MOVQ    a+0(FP), SI
	MOVQ    lda+8(FP), R15
	SHLQ    $2, R15            // element strides -> byte strides
	MOVQ    rows+16(FP), AX
	MOVQ    b+24(FP), R12
	MOVQ    ldb+32(FP), R14
	SHLQ    $2, R14
	LEAQ    (R14)(R14*2), R13  // three B rows down
	MOVQ    c+48(FP), DI
	MOVQ    ldc+56(FP), BX
	SHLQ    $2, BX

rows3:
	// SI, R8, R9: the group's rows, AX of them left.
	MOVQ SI, R8
	CMPQ AX, $2
	JL   row1set
	ADDQ R15, R8

row1set:
	MOVQ R8, R9
	CMPQ AX, $3
	JL   row2set
	ADDQ R15, R9

row2set:
	MOVQ   R12, R10            // B rows 0-3 from R10, 4-7 from R11
	LEAQ   (R12)(R14*4), R11
	XORQ   DX, DX              // running byte offset into the A rows
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	VPXORD Z16, Z16, Z16
	VPXORD Z17, Z17, Z17
	VPXORD Z18, Z18, Z18
	VPXORD Z19, Z19, Z19
	VPXORD Z20, Z20, Z20
	VPXORD Z21, Z21, Z21
	VPXORD Z22, Z22, Z22
	VPXORD Z23, Z23, Z23
	VPXORD Z24, Z24, Z24
	VPXORD Z25, Z25, Z25
	VPXORD Z26, Z26, Z26
	VPXORD Z27, Z27, Z27
	VPXORD Z28, Z28, Z28
	VPXORD Z29, Z29, Z29
	VPXORD Z30, Z30, Z30
	VPXORD Z31, Z31, Z31
	MOVQ   n+40(FP), CX
	SUBQ   $16, CX
	JL     masked

loop:
	VMOVUPS (SI)(DX*1), Z0
	VMOVUPS (R8)(DX*1), Z1
	VMOVUPS (R9)(DX*1), Z2
	FMA3((R10), Z8, Z16, Z24)
	FMA3((R10)(R14*1), Z9, Z17, Z25)
	FMA3((R10)(R14*2), Z10, Z18, Z26)
	FMA3((R10)(R13*1), Z11, Z19, Z27)
	FMA3((R11), Z12, Z20, Z28)
	FMA3((R11)(R14*1), Z13, Z21, Z29)
	FMA3((R11)(R14*2), Z14, Z22, Z30)
	FMA3((R11)(R13*1), Z15, Z23, Z31)
	ADDQ    $64, DX
	ADDQ    $64, R10
	ADDQ    $64, R11
	SUBQ    $16, CX
	JGE     loop

masked:
	ADDQ      $16, CX          // the n%16 elements still to add
	JZ        reduce
	VMOVUPS.Z (SI)(DX*1), K1, Z0
	VMOVUPS.Z (R8)(DX*1), K1, Z1
	VMOVUPS.Z (R9)(DX*1), K1, Z2
	FMA3Z((R10), Z8, Z16, Z24)
	FMA3Z((R10)(R14*1), Z9, Z17, Z25)
	FMA3Z((R10)(R14*2), Z10, Z18, Z26)
	FMA3Z((R10)(R13*1), Z11, Z19, Z27)
	FMA3Z((R11), Z12, Z20, Z28)
	FMA3Z((R11)(R14*1), Z13, Z21, Z29)
	FMA3Z((R11)(R14*2), Z14, Z22, Z30)
	FMA3Z((R11)(R13*1), Z15, Z23, Z31)

reduce:
	REDUCE8(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	REDUCE8(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23)
	REDUCE8(Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31)
	CMPB   acc+64(FP), $0
	JEQ    put
	VADDPS (DI), Y8, Y8
	CMPQ   AX, $2
	JL     put
	VADDPS (DI)(BX*1), Y16, Y16
	CMPQ   AX, $3
	JL     put
	VADDPS (DI)(BX*2), Y24, Y24

put:
	VMOVUPS Y8, (DI)
	CMPQ    AX, $2
	JL      done
	VMOVUPS Y16, (DI)(BX*1)
	CMPQ    AX, $3
	JL      done
	VMOVUPS Y24, (DI)(BX*2)
	LEAQ    (R15)(R15*2), CX
	ADDQ    CX, SI
	LEAQ    (BX)(BX*2), CX
	ADDQ    CX, DI
	SUBQ    $3, AX
	JG      rows3

done:
	VZEROUPPER
	RET
