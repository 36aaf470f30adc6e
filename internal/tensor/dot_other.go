//go:build !amd64

package tensor

// Non-amd64 hosts have only the portable Go kernels.

func availableKernels() []string { return []string{KernelGeneric} }

func selectKernel(string) {
	dot4, reluVec, addScalar = dot4Generic, reluGeneric, addScalarGeneric
	dotSeq = dotSeqGeneric
	dotTile = nil
	padRows, gather3x3 = padRowsGeneric, im2col3x3
	kernelName = KernelGeneric
}
