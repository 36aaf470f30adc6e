//go:build !amd64

package tensor

// Non-amd64 hosts have only the portable Go kernels.

func availableKernels() []string { return []string{KernelGeneric} }

func selectKernel(string) {
	dot4, axpy4, dotQ8, reluVec = dot4Generic, axpy4Generic, dotQ8Generic, reluGeneric
	dotSeq = dotSeqGeneric
	dotTile, dotQ8Tile8 = nil, nil
	kernelName = KernelGeneric
}
