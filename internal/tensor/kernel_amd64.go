package tensor

// gemm6x64Kernel and gemm6x16Kernel are the avx512 class's tiles in
// gemm_avx512_amd64.s, gemm6x16AVX2Kernel and gemm6x8AVX2Kernel the avx2
// class's in gemm_avx2_amd64.s: tile, six rows at a time (a last group of
// fewer repeats its last row), for exactly 64 or 16, or at most 16 or 8,
// columns. Every element they read or write must be in bounds of the
// caller's slices (tileAsm checks). Only callable when hasAVX512 or hasAVX2
// is true.
//
//go:noescape
func gemm6x64Kernel(c *float32, ldc int, a *float32, lda int, b *float32, ldb int, rows, cols, k int, bias *float32, floor float32)

//go:noescape
func gemm6x16Kernel(c *float32, ldc int, a *float32, lda int, b *float32, ldb int, rows, cols, k int, bias *float32, floor float32)

//go:noescape
func gemm6x16AVX2Kernel(c *float32, ldc int, a *float32, lda int, b *float32, ldb int, rows, cols, k int, bias *float32, floor float32)

//go:noescape
func gemm6x8AVX2Kernel(c *float32, ldc int, a *float32, lda int, b *float32, ldb int, rows, cols, k int, bias *float32, floor float32)

// cpuid and xgetbv are in cpuid_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether this host can run the AVX2+FMA kernels: CPU
// support for AVX, AVX2 and FMA, plus OS support for saving the YMM state
// (OSXSAVE and XCR0 bits 1-2). hasAVX512 reports whether it can also run the
// AVX-512 ones: AVX512F and AVX512VL, plus OS support for the opmask and ZMM
// state (XCR0 bits 5-7). Detected once at package init.
var hasAVX2, hasAVX512 = detectAVX()

func detectAVX() (avx2, avx512 bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&fma == 0 || ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false, false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX/YMM upper halves) must both be enabled
	// by the OS, otherwise YMM registers are not preserved across context
	// switches; bits 5-7 likewise for the opmask registers, the ZMM upper
	// halves and ZMM16-31. xgetbv is only safe once OSXSAVE is confirmed.
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 {
		return false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const (
		avx2bit  = 1 << 5
		avx512f  = 1 << 16
		avx512vl = 1 << 31
	)
	avx2 = ebx7&avx2bit != 0
	return avx2, avx2 && ebx7&(avx512f|avx512vl) == avx512f|avx512vl && xcr0&0xE6 == 0xE6
}

func availableKernels() []string {
	switch {
	case hasAVX512:
		return []string{KernelGeneric, KernelAVX2, KernelAVX512}
	case hasAVX2:
		return []string{KernelGeneric, KernelAVX2}
	}
	return []string{KernelGeneric}
}

// selectKernel installs a class's tile and its width.
func selectKernel(name string) {
	switch name {
	case KernelAVX512:
		tile, tileCols = tileAVX512, 64
	case KernelAVX2:
		tile, tileCols = tileAVX2, 16
	default:
		name = KernelGeneric
		tile, tileCols = tileGeneric, 64
	}
	kernelName = name
}

// tileAVX512 runs a 64-column tile on the wide kernel and anything narrower
// on the masked one, 16 columns at a time; tileAVX2 likewise at 16 and 8.
func tileAVX512(c []float32, ldc int, a []float32, lda int, b []float32, ldb int, rows, cols, k int, bias []float32, floor float32) {
	tileAsm(gemm6x64Kernel, gemm6x16Kernel, 64, 16, c, ldc, a, lda, b, ldb, rows, cols, k, bias, floor)
}

func tileAVX2(c []float32, ldc int, a []float32, lda int, b []float32, ldb int, rows, cols, k int, bias []float32, floor float32) {
	tileAsm(gemm6x16AVX2Kernel, gemm6x8AVX2Kernel, 16, 8, c, ldc, a, lda, b, ldb, rows, cols, k, bias, floor)
}

type tileKernel func(c *float32, ldc int, a *float32, lda int, b *float32, ldb int, rows, cols, k int, bias *float32, floor float32)

// tileAsm is the bounds check the kernels rely on — the index expressions
// name the last element each operand is read or written at — and the split
// of a tile between them.
func tileAsm(wide, narrow tileKernel, wcols, ncols int, c []float32, ldc int, a []float32, lda int, b []float32, ldb int, rows, cols, k int, bias []float32, floor float32) {
	if rows <= 0 || cols <= 0 || cols > wcols || k <= 0 {
		panic("tensor: register tile out of shape")
	}
	_ = a[(rows-1)*lda+k-1]
	_ = b[(k-1)*ldb+cols-1]
	_ = c[(rows-1)*ldc+cols-1]
	_ = bias[cols-1]
	if cols == wcols {
		wide(&c[0], ldc, &a[0], lda, &b[0], ldb, rows, cols, k, &bias[0], floor)
		return
	}
	for j := 0; j < cols; j += ncols {
		narrow(&c[j], ldc, &a[0], lda, &b[j], ldb, rows, min(ncols, cols-j), k, &bias[j], floor)
	}
}
