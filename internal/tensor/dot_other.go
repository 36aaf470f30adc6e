//go:build !amd64

package tensor

// Non-amd64 hosts have only the portable Go kernels.

func availableKernels() []string { return []string{KernelGeneric} }

func selectKernel(string) {
	dot4, reluVec = dot4Generic, reluGeneric
	dotSeq = dotSeqGeneric
	dotTile = nil
	kernelName = KernelGeneric
}
