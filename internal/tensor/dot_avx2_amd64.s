#include "textflag.h"

// The AVX2+FMA micro-kernels. All of them are gated behind runtime feature
// detection (hasAVX2 in dot_amd64.go): AVX2 for the 256-bit integer ops and
// VBROADCASTSS-from-register-free forms, FMA for VFMADD231PS. Every routine
// ends with VZEROUPPER so the transition back to SSE code carries no
// dirty-upper-state penalty.

// HSUM reduces the eight lanes of accumulator Y (whose low half is X) to one
// float32 at off(DI), staying VEX-encoded throughout: fold the high 128-bit
// lane onto the low one, then [a b c d] -> a+c, b+d -> sum. Both fp32 dot
// kernels reduce this way.
#define HSUM(Y, X, off) \
	VEXTRACTF128 $1, Y, X0;       \
	VADDPS       X0, X, X;        \
	VSHUFPS      $0xEE, X, X, X0; \
	VADDPS       X0, X, X;        \
	VSHUFPS      $0x55, X, X, X0; \
	VADDSS       X0, X, X;        \
	VMOVSS       X, off(DI)

// func dot8Kernel(a, b0, b1, b2, b3 *float32, n int, out *[4]float32)
//
// out[j] = sum_{p < n} a[p]*bj[p] for j in 0..3, 8 lanes at a time with
// fused multiply-add. n must be a multiple of 8; the Go wrapper handles the
// scalar tail. One 8-wide a-vector load is amortised over four b rows and
// the four YMM accumulators form independent FMA dependency chains.
TEXT ·dot8Kernel(SB), NOSPLIT, $0-56
	MOVQ   a+0(FP), SI
	MOVQ   b0+8(FP), R8
	MOVQ   b1+16(FP), R9
	MOVQ   b2+24(FP), R10
	MOVQ   b3+32(FP), R11
	MOVQ   n+40(FP), CX
	MOVQ   out+48(FP), DI
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11

	// 2x-unrolled main loop: 16 elements per pass with EIGHT independent
	// FMA chains (two per b row), enough to cover FMA latency at two FMAs
	// per cycle. The chains merge once, after the loop.
loop16:
	CMPQ        CX, $16
	JL          loop8
	VMOVUPS     (SI), Y0
	VMOVUPS     32(SI), Y12
	VMOVUPS     (R8), Y1
	VFMADD231PS Y1, Y0, Y4    // Y4 += Y0 * Y1
	VMOVUPS     32(R8), Y13
	VFMADD231PS Y13, Y12, Y8
	VMOVUPS     (R9), Y2
	VFMADD231PS Y2, Y0, Y5
	VMOVUPS     32(R9), Y14
	VFMADD231PS Y14, Y12, Y9
	VMOVUPS     (R10), Y3
	VFMADD231PS Y3, Y0, Y6
	VMOVUPS     32(R10), Y15
	VFMADD231PS Y15, Y12, Y10
	VMOVUPS     (R11), Y1
	VFMADD231PS Y1, Y0, Y7
	VMOVUPS     32(R11), Y13
	VFMADD231PS Y13, Y12, Y11
	ADDQ        $64, SI
	ADDQ        $64, R8
	ADDQ        $64, R9
	ADDQ        $64, R10
	ADDQ        $64, R11
	SUBQ        $16, CX
	JMP         loop16

loop8:
	CMPQ        CX, $8
	JL          merge
	VMOVUPS     (SI), Y0
	VMOVUPS     (R8), Y1
	VFMADD231PS Y1, Y0, Y4
	VMOVUPS     (R9), Y2
	VFMADD231PS Y2, Y0, Y5
	VMOVUPS     (R10), Y3
	VFMADD231PS Y3, Y0, Y6
	VMOVUPS     (R11), Y1
	VFMADD231PS Y1, Y0, Y7
	ADDQ        $32, SI
	ADDQ        $32, R8
	ADDQ        $32, R9
	ADDQ        $32, R10
	ADDQ        $32, R11
	SUBQ        $8, CX
	JMP         loop8

merge:
	VADDPS Y8, Y4, Y4
	VADDPS Y9, Y5, Y5
	VADDPS Y10, Y6, Y6
	VADDPS Y11, Y7, Y7

	HSUM(Y4, X4, 0)
	HSUM(Y5, X5, 4)
	HSUM(Y6, X6, 8)
	HSUM(Y7, X7, 12)
	VZEROUPPER
	RET

// HSUM4 reduces the four accumulators Ya..Yd (low halves Xa..Xd) of one tile
// row to their four sums, left in Xa in that order. Each sum is formed
// exactly as HSUM forms it — high half onto low half, lanes 0+2 and 1+3,
// then those two — but the middle steps run on the transposed 4x4 block, so
// the four reductions share their instructions: the unpacks leave
// [a0 b0 a1 b1], [a2 b2 a3 b3] and the same for c and d, their sums hold
// lanes 0+2 of a and b beside lanes 1+3, and the two moves bring the 0+2s of
// a, b, c, d together in Xa and the 1+3s in Xb.
#define HSUM4(Ya, Xa, Yb, Xb, Yc, Xc, Yd, Xd) \
	VEXTRACTF128 $1, Ya, X0;  \
	VADDPS       X0, Xa, Xa;  \
	VEXTRACTF128 $1, Yb, X1;  \
	VADDPS       X1, Xb, Xb;  \
	VEXTRACTF128 $1, Yc, X2;  \
	VADDPS       X2, Xc, Xc;  \
	VEXTRACTF128 $1, Yd, X3;  \
	VADDPS       X3, Xd, Xd;  \
	VUNPCKLPS    Xb, Xa, X0;  \
	VUNPCKHPS    Xb, Xa, X1;  \
	VUNPCKLPS    Xd, Xc, X2;  \
	VUNPCKHPS    Xd, Xc, X3;  \
	VADDPS       X1, X0, X0;  \
	VADDPS       X3, X2, X2;  \
	VMOVLHPS     X2, X0, Xa;  \
	VMOVHLPS     X0, X2, Xb;  \
	VADDPS       Xb, Xa, Xa

// func tile3x4Kernel(a *float32, lda, rows int, b *float32, ldb, n int, c *float32, ldc int, acc bool)
//
// c[i*ldc+j] (+)= sum_{p < n} a[i*lda+p]*b[j*ldb+p] for i < rows, j in 0..3 —
// the MatMulTransB register tile, run down a panel of A rows: three rows of
// A against four rows of B at a time. Each 8-wide step loads seven vectors
// for twelve FMAs (the 1x8 tile it replaced loaded nine for eight), and the
// twelve YMM accumulators are twelve independent FMA chains, enough to keep
// two FMA ports busy at latency 4. Every accumulator is one chain over p in
// order, reduced as HSUM reduces, then the last n%8 products are added one
// by one (multiply, then add: two roundings, as the Go kernels' scalar tails
// do), so an output element's bits are those of a single-row dot tile. A
// last group of fewer than three rows repeats its last row and stores only
// the rows there are. acc selects += over =.
TEXT ·tile3x4Kernel(SB), NOSPLIT, $0-65
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), R15
	SHLQ $2, R15               // element strides -> byte strides
	MOVQ rows+16(FP), AX
	MOVQ b+24(FP), R10
	MOVQ ldb+32(FP), R14
	SHLQ $2, R14
	MOVQ c+48(FP), DI
	MOVQ ldc+56(FP), BX
	SHLQ $2, BX
	LEAQ (R10)(R14*1), R11
	LEAQ (R11)(R14*1), R12
	LEAQ (R12)(R14*1), R13

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
	XORQ   DX, DX              // running byte offset, one increment per step
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15
	MOVQ   n+40(FP), CX
	SUBQ   $8, CX
	JL     reduce

loop:
	VMOVUPS     (SI)(DX*1), Y0
	VMOVUPS     (R8)(DX*1), Y1
	VMOVUPS     (R9)(DX*1), Y2
	VMOVUPS     (R10)(DX*1), Y3
	VFMADD231PS Y3, Y0, Y4     // Y4 += Y0 * Y3
	VFMADD231PS Y3, Y1, Y8
	VFMADD231PS Y3, Y2, Y12
	VMOVUPS     (R11)(DX*1), Y3
	VFMADD231PS Y3, Y0, Y5
	VFMADD231PS Y3, Y1, Y9
	VFMADD231PS Y3, Y2, Y13
	VMOVUPS     (R12)(DX*1), Y3
	VFMADD231PS Y3, Y0, Y6
	VFMADD231PS Y3, Y1, Y10
	VFMADD231PS Y3, Y2, Y14
	VMOVUPS     (R13)(DX*1), Y3
	VFMADD231PS Y3, Y0, Y7
	VFMADD231PS Y3, Y1, Y11
	VFMADD231PS Y3, Y2, Y15
	ADDQ        $32, DX
	SUBQ        $8, CX
	JGE         loop

reduce:
	HSUM4(Y4, X4, Y5, X5, Y6, X6, Y7, X7)
	HSUM4(Y8, X8, Y9, X9, Y10, X10, Y11, X11)
	HSUM4(Y12, X12, Y13, X13, Y14, X14, Y15, X15)
	ADDQ $8, CX                // the n%8 products still to add
	JZ   store

tail:
	VMOVSS       (R10)(DX*1), X0
	VINSERTPS    $0x10, (R11)(DX*1), X0, X0
	VINSERTPS    $0x20, (R12)(DX*1), X0, X0
	VINSERTPS    $0x30, (R13)(DX*1), X0, X0
	VBROADCASTSS (SI)(DX*1), X1
	VMULPS       X0, X1, X1
	VADDPS       X1, X4, X4
	VBROADCASTSS (R8)(DX*1), X2
	VMULPS       X0, X2, X2
	VADDPS       X2, X8, X8
	VBROADCASTSS (R9)(DX*1), X3
	VMULPS       X0, X3, X3
	VADDPS       X3, X12, X12
	ADDQ         $4, DX
	DECQ         CX
	JNZ          tail

store:
	CMPB   acc+64(FP), $0
	JEQ    put
	VADDPS (DI), X4, X4
	CMPQ   AX, $2
	JL     put
	VADDPS (DI)(BX*1), X8, X8
	CMPQ   AX, $3
	JL     put
	VADDPS (DI)(BX*2), X12, X12

put:
	VMOVUPS X4, (DI)
	CMPQ    AX, $2
	JL      done
	VMOVUPS X8, (DI)(BX*1)
	CMPQ    AX, $3
	JL      done
	VMOVUPS X12, (DI)(BX*2)
	LEAQ    (R15)(R15*2), CX
	ADDQ    CX, SI
	LEAQ    (BX)(BX*2), CX
	ADDQ    CX, DI
	SUBQ    $3, AX
	JG      rows3

done:
	VZEROUPPER
	RET

// func seqDot8Kernel(a *float32, lda, groups int, b *float32, n int, out *float32)
//
// out[r] += a[r*lda+0]*b[0] + a[r*lda+1]*b[1] + ... for r < 8*groups, each sum
// taken strictly left to right with every product and every partial sum
// rounded — a scalar loop's bits — but with eight rows to a vector: the rows'
// products for eight p are formed row-wise (VMULPS rounds a lane as MULSS
// does), transposed so that vector p holds the p-th product of each of the
// eight rows, and added to the rows' running sums one vector after another.
// The running sums live in out, so the row groups are independent chains
// and overlap. n must be a positive multiple of 8.
TEXT ·seqDot8Kernel(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), AX
	MOVQ lda+8(FP), R8
	SHLQ $2, R8                // element stride -> byte stride
	LEAQ (R8)(R8*2), R9        // 3, 5 and 7 rows down
	LEAQ (R8)(R8*4), R10
	LEAQ (R9)(R8*4), R11
	MOVQ groups+16(FP), R12
	MOVQ b+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ out+40(FP), R13

seqblock:
	VMOVUPS (BX), Y15          // eight of b, against every row group
	MOVQ    AX, SI
	MOVQ    R13, DI
	MOVQ    R12, DX

seqgroup:
	VMULPS (SI), Y15, Y0
	VMULPS (SI)(R8*1), Y15, Y1
	VMULPS (SI)(R8*2), Y15, Y2
	VMULPS (SI)(R9*1), Y15, Y3
	VMULPS (SI)(R8*4), Y15, Y4
	VMULPS (SI)(R10*1), Y15, Y5
	VMULPS (SI)(R9*2), Y15, Y6
	VMULPS (SI)(R11*1), Y15, Y7

	// 8x8 transpose of Y0..Y7 into Y0..Y7: pairs of rows interleaved, then
	// quads, then the 128-bit halves exchanged.
	VUNPCKLPS  Y1, Y0, Y8
	VUNPCKHPS  Y1, Y0, Y9
	VUNPCKLPS  Y3, Y2, Y0
	VUNPCKHPS  Y3, Y2, Y1
	VUNPCKLPS  Y5, Y4, Y2
	VUNPCKHPS  Y5, Y4, Y3
	VUNPCKLPS  Y7, Y6, Y4
	VUNPCKHPS  Y7, Y6, Y5
	VSHUFPS    $0x44, Y0, Y8, Y6
	VSHUFPS    $0xEE, Y0, Y8, Y7
	VSHUFPS    $0x44, Y1, Y9, Y10
	VSHUFPS    $0xEE, Y1, Y9, Y11
	VSHUFPS    $0x44, Y4, Y2, Y12
	VSHUFPS    $0xEE, Y4, Y2, Y13
	VSHUFPS    $0x44, Y5, Y3, Y14
	VSHUFPS    $0xEE, Y5, Y3, Y8
	VMOVUPS    (DI), Y9
	VPERM2F128 $0x20, Y12, Y6, Y0
	VPERM2F128 $0x20, Y13, Y7, Y1
	VPERM2F128 $0x20, Y14, Y10, Y2
	VPERM2F128 $0x20, Y8, Y11, Y3
	VPERM2F128 $0x31, Y12, Y6, Y4
	VPERM2F128 $0x31, Y13, Y7, Y5
	VPERM2F128 $0x31, Y14, Y10, Y6
	VPERM2F128 $0x31, Y8, Y11, Y7
	VADDPS     Y0, Y9, Y9
	VADDPS     Y1, Y9, Y9
	VADDPS     Y2, Y9, Y9
	VADDPS     Y3, Y9, Y9
	VADDPS     Y4, Y9, Y9
	VADDPS     Y5, Y9, Y9
	VADDPS     Y6, Y9, Y9
	VADDPS     Y7, Y9, Y9
	VMOVUPS    Y9, (DI)
	LEAQ       (SI)(R8*8), SI
	ADDQ       $32, DI
	DECQ       DX
	JNZ        seqgroup
	ADDQ       $32, AX
	ADDQ       $32, BX
	SUBQ       $8, CX
	JNZ        seqblock
	VZEROUPPER
	RET

// func reluKernel(x *float32, n int)
//
// x[i] = max(x[i], 0) for i < n, 8 lanes per step. n must be a multiple of
// 8; the Go wrapper handles the tail.
TEXT ·reluKernel(SB), NOSPLIT, $0-16
	MOVQ   x+0(FP), DI
	MOVQ   n+8(FP), CX
	VXORPS Y1, Y1, Y1

loop:
	CMPQ    CX, $8
	JL      done
	VMOVUPS (DI), Y0
	VMAXPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     loop

done:
	VZEROUPPER
	RET
