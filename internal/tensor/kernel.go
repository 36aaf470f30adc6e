package tensor

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
)

// Kernel names accepted by SetKernel and the TENSOR_KERNEL environment
// variable, worst to best. Each names one implementation of the GEMM's
// register tile: "generic" is portable Go, "avx2" 8-lane AVX2+FMA assembly
// (amd64 with AVX2+FMA+OS support only), "avx512" 16-lane AVX-512 assembly
// (AVX512F+VL and OS support for the ZMM state as well). Every other host
// runs generic. The classes differ in speed only: each computes every
// output as the same fp32 FMA chain, so they agree bit for bit.
const (
	KernelGeneric = "generic"
	KernelAVX2    = "avx2"
	KernelAVX512  = "avx512"
)

// tileRows is the number of rows of C the assembly tiles hold at a time.
const tileRows = 6

// The dispatched register tile. It is selected once — at package init from
// TENSOR_KERNEL, or explicitly via SetKernel — and read (never written) by
// every GEMM call, so selection must happen before concurrent kernel use.
var (
	// tile computes rows [0, rows) and columns [0, cols) of C = A·B over k
	// (cols <= tileCols; A rows lda apart, B and C rows ldb and ldc apart)
	// as one chain per element from +0, each step c = fma(a[p], b[p], c)
	// rounded once, p in order. It then stores max(c + bias[j], floor): a
	// GEMM without a bias passes -0 (which adds nothing, not even to a -0)
	// and one without a ReLU -Inf. A NaN stays a NaN. Nothing outside the
	// rows and columns is written.
	tile func(c []float32, ldc int, a []float32, lda int, b []float32, ldb int, rows, cols, k int, bias []float32, floor float32)
	// tileCols is the widest tile of the class, the GEMM's column block.
	tileCols int

	kernelName string
)

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

// tileGeneric is the portable tile, for any rows and cols: fma32, one row
// of C at a time.
func tileGeneric(c []float32, ldc int, a []float32, lda int, b []float32, ldb int, rows, cols, k int, bias []float32, floor float32) {
	for i := 0; i < rows; i++ {
		ci := c[i*ldc:][:cols]
		clear(ci)
		for p, av := range a[i*lda:][:k] {
			bp := b[p*ldb:][:cols]
			for j := fmaRow(ci, bp, float64(av)); j < cols; j += 1 + fmaRow(ci[j+1:], bp[j+1:], float64(av)) {
				ci[j] = fma32Odd(av, bp[j], ci[j])
			}
		}
		for j, v := range ci {
			if v += bias[j]; v < floor {
				v = floor
			}
			ci[j] = v
		}
	}
}

// fmaRow sets c[j] = fma32(a, b[j], c[j]) in order of j while the sum is
// exact32, and returns the first j where it is not (rare; len(c) if none).
// It is a loop of few live values that calls nothing, kept out of line so
// that it stays in registers.
//
//go:noinline
func fmaRow(c, b []float32, a float64) int {
	for j, bv := range b[:len(c)] {
		s := a*float64(bv) + float64(c[j])
		if !exact32(s) {
			return j
		}
		c[j] = float32(s)
	}
	return len(c)
}

// fma32 is a*b + c with one rounding, as VFMADD231PS computes each lane.
// The product is exact in float64, so the float64 sum s is rounded once,
// and float32(s) rounds it again. Rounding twice errs only where s is
// exactly halfway between two float32s (a halfway point is a float64, so no
// other one can lie between s and the exact sum) or where float32 spacing
// is wider than a normal's (exact32 is false): those take fma32Odd, and
// the rest convert directly. (float32(math.FMA(a, b, c)) rounds twice.)
func fma32(a, b, c float32) float32 {
	if s := float64(a)*float64(b) + float64(c); exact32(s) {
		return float32(s)
	}
	return fma32Odd(a, b, c)
}

// exact32 reports whether s is neither halfway between two float32s nor
// below 2^-126 in magnitude (zero is exact).
func exact32(s float64) bool {
	bits := math.Float64bits(s)
	return bits&(1<<29-1) != 1<<28 && (bits<<1 >= (1023-126)<<53 || bits<<1 == 0)
}

// fma32Odd is fma32 by rounding the float64 sum to odd: TwoSum gives the
// sum's exact error, and an inexact sum with an even last bit moves one ulp
// toward the exact value. A round-to-odd result with at least two more bits
// than float32 rounds to float32 as the exact sum would.
func fma32Odd(a, b, c float32) float32 {
	p, q := float64(a)*float64(b), float64(c)
	s := p + q
	if p == 0 || math.IsInf(s, 0) || s != s {
		// A zero product or a non-finite sum: nothing was rounded (an exact
		// zero product takes float64's sign rules, which are float32's) or
		// the result is Inf or NaN whatever the rounding.
		return float32(s)
	}
	v := s - p
	if t := (p - (s - v)) + (q - v); t != 0 {
		// s is nonzero (a zero sum is exact), so the odd neighbour toward
		// the exact sum is one bit pattern up or down.
		if bits := math.Float64bits(s); bits&1 == 0 {
			if (t > 0) == (s > 0) {
				bits++
			} else {
				bits--
			}
			s = math.Float64frombits(bits)
		}
	}
	return float32(s)
}
