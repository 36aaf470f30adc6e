package tensor

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

// Kernel names accepted by SetKernel and the TENSOR_KERNEL environment
// variable, worst to best. Each names one implementation of MatMulTransB's
// micro-kernels, the ReLU and the bias add: "generic" is portable Go, "avx2"
// the 8-wide AVX2+FMA assembly (amd64 with AVX2+FMA+OS support only),
// "avx512" avx2 with a 16-wide register tile (AVX512F+VL and OS support for
// the ZMM state as well). Every other host runs generic.
const (
	KernelGeneric = "generic"
	KernelAVX2    = "avx2"
	KernelAVX512  = "avx512"
)

// Shape of the fp32 register tile dotTile as matMulTransBRange sees it:
// tileCols rows of B per call (the kernel pairs them with three rows of A at
// a time, which is its own business). Whole groups of tileGroup columns are
// tiled — the width of the single-row tile the 3x4 one replaced — so the
// columns that take the dot4 path, whose two-chain accumulation rounds
// differently, are the ones that always did.
const (
	tileCols  = 8
	tileGroup = 8
)

// The dispatched micro-kernels. They are selected once — at package init
// from TENSOR_KERNEL, or explicitly via SetKernel — and read (never written)
// by every GEMM call, so selection must happen before concurrent kernel use.
var (
	// dot4 computes the four dot products of a against b0..b3, which must
	// all share a's length — the register tile of MatMulTransB: four C
	// columns per pass over one A row.
	dot4 func(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32)
	// reluVec clamps every element of x to [0, inf) in place — dispatched
	// alongside the GEMM tiles because ReLU runs over every activation matrix
	// between layers and is pure bandwidth.
	reluVec func(x []float32)
	// dotTile is the optional MatMulTransB register tile run down a panel of
	// A rows: c[i*ldc+j] = dot(a[i*lda:][:n], b[j*ldb:][:n]) for i < rows and
	// j < tileCols, added to c instead when acc is set; nil when the selected
	// kernel class has none (generic). It takes three rows of A against four
	// (avx2) or eight (avx512) rows of B at a time, so each loaded vector is
	// reused across several rows of BOTH operands; every output element is
	// still one accumulation over p in order — 8-lane FMA chains, the
	// horizontal sum, then the scalar tail (avx2); 16-lane FMA chains, a last
	// step masked to the n%16 elements left, then the horizontal sum
	// (avx512).
	dotTile func(c []float32, ldc int, a []float32, lda, rows int, b []float32, ldb, n int, acc bool)
	// dotSeq computes one column of MatMulTransB by plain sequential sums:
	// c[i*ldc] = ((a[i*lda]*b[0] + a[i*lda+1]*b[1]) + ...) over len(b) for
	// i < rows, every product and partial sum rounded, added to c instead
	// when acc is set. The classes differ in how many rows they sum at once,
	// never in a bit of the result.
	dotSeq func(c []float32, ldc int, a []float32, lda, rows int, b []float32, acc bool)
	// addScalar adds s to every element of x: one rounded add per element in
	// every class, so the classes differ in speed only.
	addScalar func(x []float32, s float32)

	kernelName string
)

// ReLUInPlace sets x[i] = max(x[i], 0) using the dispatched kernel class.
func ReLUInPlace(x []float32) { reluVec(x) }

func init() {
	// TENSOR_KERNEL forces a kernel class at process start; an unavailable
	// or unknown value degrades to the best available kernel rather than
	// failing, so a binary built for avx2 still starts on a host without it.
	if _, err := SetKernel(os.Getenv("TENSOR_KERNEL")); err != nil {
		selectKernel(bestKernel())
	}
}

// SetKernel selects the micro-kernel implementation by name ("" selects the
// best available). A known-but-unavailable name (e.g. "avx2" on a host
// without AVX2) degrades to the best available kernel and returns the name
// actually selected; an unknown name is an error. SetKernel is NOT safe to
// call concurrently with running kernels — it is for process start and test
// setup.
func SetKernel(name string) (selected string, err error) {
	switch name {
	case "":
		selectKernel(bestKernel())
	case KernelGeneric, KernelAVX2, KernelAVX512:
		if !kernelAvailable(name) {
			selectKernel(bestKernel())
			return kernelName, nil
		}
		selectKernel(name)
	default:
		return kernelName, fmt.Errorf("tensor: unknown kernel %q (have %v)", name, Kernels())
	}
	return kernelName, nil
}

// KernelFlag registers the -kernel flag every binary that runs the network
// offers. The value goes through SetKernel while the flags are parsed, so an
// unknown name is a usage error (message, usage, exit code 2 under
// flag.ExitOnError) and no binary handles the flag itself.
func KernelFlag(fs *flag.FlagSet) {
	fs.Func("kernel", "force the tensor micro-kernel class: "+strings.Join(Kernels(), ", ")+" (default: best available; TENSOR_KERNEL env also works)", func(name string) error {
		_, err := SetKernel(name)
		return err
	})
}

// KernelName reports the micro-kernel implementation currently dispatched.
func KernelName() string { return kernelName }

// Kernels returns the kernel names available on this host, best last.
func Kernels() []string { return availableKernels() }

func bestKernel() string {
	ks := availableKernels()
	return ks[len(ks)-1]
}

func kernelAvailable(name string) bool {
	for _, k := range availableKernels() {
		if k == name {
			return true
		}
	}
	return false
}

// dot4Generic is the portable register tile: the four accumulators form
// independent dependency chains, so even scalar hardware overlaps the adds.
func dot4Generic(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32) {
	for p, av := range a {
		s0 += av * b0[p]
		s1 += av * b1[p]
		s2 += av * b2[p]
		s3 += av * b3[p]
	}
	return
}

// dotSeqGeneric is the portable dotSeq: one row, one chain of dependent adds,
// at a time.
func dotSeqGeneric(c []float32, ldc int, a []float32, lda, rows int, b []float32, acc bool) {
	for i := 0; i < rows; i++ {
		var sum float32
		for p, av := range a[i*lda:][:len(b)] {
			sum += av * b[p]
		}
		if acc {
			sum += c[i*ldc]
		}
		c[i*ldc] = sum
	}
}

// addScalarGeneric is the portable bias add.
func addScalarGeneric(x []float32, s float32) {
	for i := range x {
		x[i] += s
	}
}

// reluGeneric is the portable ReLU.
func reluGeneric(x []float32) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}
