package tensor

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestKernelDetectionMatchesCPUInfo holds the CPUID+XCR0 detection to the
// kernel's own view of the CPU: flags listing avx512f, avx512vl and
// avx512dq mean Kernels() offers avx512, and flags without avx512f mean it
// does not. A detection slip can then never silently leave a capable host on
// avx2. (The kernel lists a flag only when the OS also saves its state.)
func TestKernelDetectionMatchesCPUInfo(t *testing.T) {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(raw), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(list)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	has := func(f string) bool { return slices.Contains(flags, f) }
	offered := slices.Contains(Kernels(), KernelAVX512)
	t.Logf("selected %s of %v; avx512f=%v avx512vl=%v avx512dq=%v", KernelName(), Kernels(), has("avx512f"), has("avx512vl"), has("avx512dq"))
	if has("avx512f") && has("avx512vl") && has("avx512dq") && has("avx2") && has("fma") && !offered {
		t.Errorf("CPU flags list avx512f, avx512vl and avx512dq, but Kernels() = %v", Kernels())
	}
	if !has("avx512f") && offered {
		t.Errorf("CPU flags lack avx512f, but Kernels() = %v", Kernels())
	}
}
