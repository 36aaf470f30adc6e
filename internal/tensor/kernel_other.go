//go:build !amd64

package tensor

// Non-amd64 hosts have only the portable Go tile.

func availableKernels() []string { return []string{KernelGeneric} }

func selectKernel(string) {
	tile, tileCols = tileGeneric, 64
	kernelName = KernelGeneric
}
