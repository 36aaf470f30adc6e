package tensor

// dot8Kernel is the 8-wide AVX2+FMA micro-kernel in dot_avx2_amd64.s. n
// must be a multiple of 8. Only callable when hasAVX2 is true.
//
//go:noescape
func dot8Kernel(a, b0, b1, b2, b3 *float32, n int, out *[4]float32)

// tile3x4Kernel is the AVX2+FMA register tile in dot_avx2_amd64.s:
// c[i*ldc+j] (+)= dot(a[i*lda:][:n], b[j*ldb:][:n]) for i < rows, j in 0..3,
// any n >= 1. Every element it reads or writes must be in bounds of the
// caller's backing slices. Only callable when hasAVX2 is true.
//
//go:noescape
func tile3x4Kernel(a *float32, lda, rows int, b *float32, ldb, n int, c *float32, ldc int, acc bool)

// seqDot8Kernel is the AVX2 sequential-sum kernel in dot_avx2_amd64.s:
// out[r] += the left-to-right sum of a[r*lda+p]*b[p] over p < n, for
// r < 8*groups. n must be a positive multiple of 8. Only callable when
// hasAVX2 is true.
//
//go:noescape
func seqDot8Kernel(a *float32, lda, groups int, b *float32, n int, out *float32)

// reluKernel is the AVX2 in-place ReLU in dot_avx2_amd64.s. n must be a
// multiple of 8. Only callable when hasAVX2 is true.
//
//go:noescape
func reluKernel(x *float32, n int)

// cpuid and xgetbv are in cpuid_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether this host can run the AVX2+FMA kernels: CPU
// support for AVX, AVX2 and FMA, plus OS support for saving the YMM state
// (OSXSAVE and XCR0 bits 1-2). Detected once at package init.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&fma == 0 || ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX/YMM upper halves) must both be enabled
	// by the OS, otherwise YMM registers are not preserved across context
	// switches. xgetbv is only safe once OSXSAVE is confirmed.
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func availableKernels() []string {
	if hasAVX2 {
		return []string{KernelGeneric, KernelAVX2}
	}
	return []string{KernelGeneric}
}

func selectKernel(name string) {
	dotTile = nil
	dotSeq = dotSeqGeneric
	switch name {
	case KernelAVX2:
		dot4, reluVec = dot4AVX2, reluAVX2
		dotTile, dotSeq = dotTileAVX2, dotSeqAVX2
	default:
		name = KernelGeneric
		dot4, reluVec = dot4Generic, reluGeneric
	}
	kernelName = name
}

// dot4AVX2 runs the 8-wide AVX2+FMA kernel over the aligned prefix and a
// scalar tail.
func dot4AVX2(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32) {
	n := len(a)
	n8 := n &^ 7
	if n8 > 0 {
		var out [4]float32
		dot8Kernel(&a[0], &b0[0], &b1[0], &b2[0], &b3[0], n8, &out)
		s0, s1, s2, s3 = out[0], out[1], out[2], out[3]
	}
	for p := n8; p < n; p++ {
		av := a[p]
		s0 += av * b0[p]
		s1 += av * b1[p]
		s2 += av * b2[p]
		s3 += av * b3[p]
	}
	return
}

// dotTileAVX2 is dotTile on tile3x4Kernel; the index expressions are the
// bounds checks the kernel relies on.
func dotTileAVX2(c []float32, ldc int, a []float32, lda, rows int, b []float32, ldb, n int, acc bool) {
	if rows <= 0 || n <= 0 {
		panic("tensor: empty register-tile panel")
	}
	_ = a[(rows-1)*lda+n-1]
	_ = b[(tileCols-1)*ldb+n-1]
	_ = c[(rows-1)*ldc+tileCols-1]
	tile3x4Kernel(&a[0], lda, rows, &b[0], ldb, n, &c[0], ldc, acc)
}

// dotSeqAVX2 sums eight rows to a vector through seqDot8Kernel, blockM rows
// per call, finishes each row's last len(b)%8 products in order, and leaves
// the last rows%8 rows to the one-row loop.
func dotSeqAVX2(c []float32, ldc int, a []float32, lda, rows int, b []float32, acc bool) {
	n := len(b)
	n8 := n &^ 7
	i := 0
	for n8 > 0 && i+8 <= rows {
		g := min(blockM, (rows-i)&^7)
		ai := a[i*lda:]
		_ = ai[(g-1)*lda+n-1]
		var sums [blockM]float32
		seqDot8Kernel(&ai[0], lda, g/8, &b[0], n8, &sums[0])
		for r, sum := range sums[:g] {
			for p := n8; p < n; p++ {
				sum += ai[r*lda+p] * b[p]
			}
			if acc {
				sum += c[(i+r)*ldc]
			}
			c[(i+r)*ldc] = sum
		}
		i += g
	}
	if i < rows {
		dotSeqGeneric(c[i*ldc:], ldc, a[i*lda:], lda, rows-i, b, acc)
	}
}

// reluAVX2 runs the 8-wide VMAXPS kernel over the aligned prefix and a
// scalar tail.
func reluAVX2(x []float32) {
	n := len(x)
	n8 := n &^ 7
	if n8 > 0 {
		reluKernel(&x[0], n8)
	}
	for i := n8; i < n; i++ {
		if x[i] < 0 {
			x[i] = 0
		}
	}
}
