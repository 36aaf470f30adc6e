package simsched

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/parmcts/parmcts/internal/perfmodel"
	"github.com/parmcts/parmcts/internal/rng"
)

// randomWorkload draws a plausible profile: in-tree ops in the hundreds of
// nanoseconds to tens of microseconds, DNN latency orders of magnitude
// larger, as every real profile in this domain looks.
func randomWorkload(r *rng.Rand) (w perfmodel.Params, playouts int) {
	w = paperLikeWorkload()
	w.TSelect = time.Duration(r.Intn(20_000)+200) * time.Nanosecond
	w.TBackup = time.Duration(r.Intn(10_000)+100) * time.Nanosecond
	w.TDNNCPU = time.Duration(r.Intn(2_000_000)+50_000) * time.Nanosecond
	w.TSharedAccess = time.Duration(r.Intn(2_000)+50) * time.Nanosecond
	return w, r.Intn(400) + 100
}

func TestPropertySharedCPUMonotoneInN(t *testing.T) {
	// Adding workers can never make the shared scheme slower end-to-end:
	// the serialized access term grows per round but rounds shrink.
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		w, playouts := randomWorkload(r)
		prev := SharedCPU(w, playouts, 1).Total
		for n := 2; n <= 64; n *= 2 {
			cur := SharedCPU(w, playouts, n).Total
			if cur > prev+prev/100 { // 1% slack for heap-order ties
				return false
			}
			prev = cur
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLocalCPULowerBounds(t *testing.T) {
	// The simulated local scheme can never beat either Equation 5 bound:
	// total >= Playouts*(TSelect+TBackup) (master is serial) and
	// total >= Playouts*TDNN/N (N inference servers).
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		w, playouts := randomWorkload(r)
		n := r.Intn(32) + 1
		res := LocalCPU(w, playouts, n)
		masterBound := time.Duration(playouts) * (w.TSelect + w.TBackup)
		dnnBound := time.Duration(playouts) * w.TDNNCPU / time.Duration(n)
		return res.Total >= masterBound && res.Total >= dnnBound
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAccelTotalAtLeastComputeSum(t *testing.T) {
	// Device compute is serialized, so no schedule can finish before the
	// sum of the kernel times of the batches it launched.
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		w, playouts := randomWorkload(r)
		n := r.Intn(32) + 1
		b := r.Intn(n) + 1
		var computeSum time.Duration
		dev := device(w)
		total, batches := local(w, playouts, n, b, func(at time.Duration, size int) time.Duration {
			computeSum += w.GPU.ComputeTime(size)
			return dev(at, size)
		})
		return result(total, playouts, batches) == LocalAccel(w, playouts, n, b) &&
			computeSum > 0 && total >= computeSum
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySharedAccelBatchAccounting(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		w, playouts := randomWorkload(r)
		n := r.Intn(32) + 1
		res := SharedAccel(w, playouts, n)
		want := (playouts + n - 1) / n
		return res.Batches == want
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRuleLaunchesEveryRequestOnce(t *testing.T) {
	// The three timelines that launch through evaluate's rule launch every
	// request exactly once (launched sizes sum to the playouts) and never a
	// batch past the rule's threshold: 1 on the CPU, b for the local
	// accelerator scheme, n for the shared one. Each recorded run must
	// equal the exported timeline's result.
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		w, playouts := randomWorkload(r)
		n := r.Intn(32) + 1
		b := r.Intn(n) + 1
		ok := true
		record := func(threshold int, inner launcher) (launcher, *int) {
			sum := new(int)
			return func(at time.Duration, size int) time.Duration {
				ok = ok && size >= 1 && size <= threshold
				*sum += size
				return inner(at, size)
			}, sum
		}
		cpu, cpuSum := record(1, threads(w, n))
		cpuTotal, _ := local(w, playouts, n, 1, cpu)
		acc, accSum := record(b, device(w))
		accTotal, accBatches := local(w, playouts, n, b, acc)
		sh, shSum := record(n, device(w))
		shRes := shared(w, playouts, n, sh)
		ok = ok && cpuTotal == LocalCPU(w, playouts, n).Total &&
			result(accTotal, playouts, accBatches) == LocalAccel(w, playouts, n, b) &&
			shRes == SharedAccel(w, playouts, n)
		return ok && *cpuSum == playouts && *accSum == playouts && *shSum == playouts
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
