package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"sync"
	"testing"

	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/tensor"
)

func tinyNet(t testing.TB) *Network {
	t.Helper()
	return MustNew(TinyConfig(2, 5, 5, 25), rng.New(42))
}

func randInput(r *rng.Rand, n int) []float32 {
	in := make([]float32, n)
	for i := range in {
		in[i] = r.Float32()
	}
	return in
}

// forward1 runs one sample through ForwardBatch as a batch of one on ws.
func forward1(net *Network, ws *BatchWorkspace, in []float32) (policy []float32, value float64) {
	pol := [][]float32{make([]float32, net.Cfg.NumActions)}
	val := make([]float64, 1)
	net.ForwardBatch(ws, [][]float32{in}, pol, val)
	return pol[0], val[0]
}

func randPolicyTarget(r *rng.Rand, n int) []float32 {
	p := make([]float32, n)
	var sum float32
	for i := range p {
		p[i] = r.Float32()
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{InC: 1, H: 3, W: 3, NumActions: 9, Trunk: []int{4, 4}, PolicyC: 1, ValueC: 1, ValueHide: 4},
		{InC: 1, H: 3, W: 3, NumActions: 9, Trunk: []int{4, 4, 4}, PolicyC: 0, ValueC: 1, ValueHide: 4},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, rng.New(1)); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if _, err := New(TinyConfig(2, 5, 5, 25), rng.New(1)); err != nil {
		t.Errorf("TinyConfig rejected: %v", err)
	}
}

func TestForwardOutputs(t *testing.T) {
	net := tinyNet(t)
	ws := NewBatchWorkspace(net, 1)
	r := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		policy, value := forward1(net, ws, randInput(r, net.InputLen()))
		if len(policy) != 25 {
			t.Fatalf("policy length %d", len(policy))
		}
		var sum float64
		for _, p := range policy {
			if p < 0 || math.IsNaN(float64(p)) {
				t.Fatal("invalid policy entry")
			}
			sum += float64(p)
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Fatalf("policy sums to %v", sum)
		}
		if value < -1 || value > 1 || math.IsNaN(value) {
			t.Fatalf("value out of range: %v", value)
		}
	}
}

func TestForwardDeterministic(t *testing.T) {
	net := tinyNet(t)
	ws1, ws2 := NewBatchWorkspace(net, 1), NewBatchWorkspace(net, 1)
	in := randInput(rng.New(3), net.InputLen())
	p1, v1 := forward1(net, ws1, in)
	p2, v2 := forward1(net, ws2, in)
	if v1 != v2 {
		t.Fatal("values differ across workspaces")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("policies differ across workspaces")
		}
	}
}

func TestConcurrentForwardIsRaceFree(t *testing.T) {
	net := MustNew(TinyConfig(4, 7, 7, 49), rng.New(5))
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			ws := NewBatchWorkspace(net, 1)
			for i := 0; i < 50; i++ {
				forward1(net, ws, randInput(r, net.InputLen()))
			}
		}(uint64(w))
	}
	wg.Wait()
}

func TestBackwardGradientNumerically(t *testing.T) {
	// Full end-to-end gradient check of Equation 2's differentiable terms
	// against central differences, touching every parameter group.
	net := MustNew(TinyConfig(2, 4, 4, 16), rng.New(11))
	r := rng.New(12)
	sample := Sample{
		Input:  randInput(r, net.InputLen()),
		Policy: randPolicyTarget(r, 16),
		Value:  0.37,
	}
	ws := NewWorkspace(net)
	g := NewGradients(net)
	net.BackwardSample(ws, g, sample)

	fws := NewBatchWorkspace(net, 1)
	loss := func() float64 {
		p, v := forward1(net, fws, sample.Input)
		var pl float64
		for i := range p {
			if sample.Policy[i] > 0 {
				pl -= float64(sample.Policy[i]) * math.Log(math.Max(float64(p[i]), 1e-12))
			}
		}
		d := v - sample.Value
		return d*d + pl
	}

	type group struct {
		name  string
		param []float32
		grad  []float32
	}
	groups := []group{
		{"conv0W", net.ConvW[0].Data, g.ConvW[0].Data},
		{"conv1W", net.ConvW[1].Data, g.ConvW[1].Data},
		{"conv2W", net.ConvW[2].Data, g.ConvW[2].Data},
		{"polConvW", net.ConvW[3].Data, g.ConvW[3].Data},
		{"valConvW", net.ConvW[4].Data, g.ConvW[4].Data},
		{"conv0B", net.ConvB[0].Data, g.ConvB[0].Data},
		{"polW", net.PolW.Data, g.PolW.Data},
		{"polB", net.PolB.Data, g.PolB.Data},
		{"val1W", net.Val1W.Data, g.Val1W.Data},
		{"val1B", net.Val1B.Data, g.Val1B.Data},
		{"val2W", net.Val2W.Data, g.Val2W.Data},
		{"val2B", net.Val2B.Data, g.Val2B.Data},
	}
	const eps = 1e-2
	for _, grp := range groups {
		checks := 6
		if len(grp.param) < checks {
			checks = len(grp.param)
		}
		for c := 0; c < checks; c++ {
			i := r.Intn(len(grp.param))
			orig := grp.param[i]
			grp.param[i] = orig + eps
			lp := loss()
			grp.param[i] = orig - eps
			lm := loss()
			grp.param[i] = orig
			num := (lp - lm) / (2 * eps)
			got := float64(grp.grad[i])
			if math.Abs(num-got) > 5e-2*math.Max(1, math.Abs(num)) {
				t.Errorf("%s[%d]: numeric %v analytic %v", grp.name, i, num, got)
			}
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	// Overfit a fixed mini-dataset: total loss must drop substantially.
	net := MustNew(TinyConfig(2, 5, 5, 25), rng.New(20))
	r := rng.New(21)
	var batch []Sample
	for i := 0; i < 16; i++ {
		// One-hot policy targets have zero entropy, so the cross-entropy
		// term can in principle be driven to zero by overfitting.
		pol := make([]float32, 25)
		pol[r.Intn(25)] = 1
		batch = append(batch, Sample{
			Input:  randInput(r, net.InputLen()),
			Policy: pol,
			Value:  r.Float64()*2 - 1,
		})
	}
	opt := NewSGD(0.05, 0.9, 1e-4)
	first := TrainBatch(net, opt, batch, 4)
	var last BatchResult
	for i := 0; i < 60; i++ {
		last = TrainBatch(net, opt, batch, 4)
	}
	if !(last.TotalLoss() < 0.5*first.TotalLoss()) {
		t.Fatalf("loss did not drop: first %v last %v", first.TotalLoss(), last.TotalLoss())
	}
	if last.N != 16 {
		t.Errorf("batch size reported %d", last.N)
	}
}

func TestTrainBatchWorkerCountsAgree(t *testing.T) {
	// Gradient averaging must be independent of the parallel decomposition:
	// training with 1 worker and with 4 workers from identical initial
	// weights must produce identical (up to fp reassociation) parameters.
	mk := func() (*Network, []Sample) {
		net := MustNew(TinyConfig(2, 4, 4, 16), rng.New(30))
		r := rng.New(31)
		var batch []Sample
		for i := 0; i < 8; i++ {
			batch = append(batch, Sample{
				Input:  randInput(r, net.InputLen()),
				Policy: randPolicyTarget(r, 16),
				Value:  r.Float64()*2 - 1,
			})
		}
		return net, batch
	}
	n1, b1 := mk()
	n4, b4 := mk()
	TrainBatch(n1, NewSGD(0.01, 0, 0), b1, 1)
	TrainBatch(n4, NewSGD(0.01, 0, 0), b4, 4)
	var maxDiff float64
	for i := range n1.PolW.Data {
		d := math.Abs(float64(n1.PolW.Data[i] - n4.PolW.Data[i]))
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-4 {
		t.Fatalf("1-worker and 4-worker updates diverge: %v", maxDiff)
	}
}

func TestTrainBatchEmpty(t *testing.T) {
	net := tinyNet(t)
	res := TrainBatch(net, NewSGD(0.1, 0.9, 0), nil, 4)
	if res.N != 0 || res.TotalLoss() != 0 {
		t.Fatal("empty batch should be a no-op")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	net := tinyNet(t)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	in := randInput(rng.New(2), net.InputLen())
	p1, v1 := forward1(net, NewBatchWorkspace(net, 1), in)
	p2, v2 := forward1(loaded, NewBatchWorkspace(loaded, 1), in)
	if v1 != v2 {
		t.Fatalf("values differ after round trip: %v vs %v", v1, v2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("policies differ after round trip")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a network"))); err == nil {
		t.Fatal("garbage decoded successfully")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	net := tinyNet(t)
	c := net.Clone()
	c.PolW.Data[0] += 1
	if net.PolW.Data[0] == c.PolW.Data[0] {
		t.Fatal("clone shares parameters")
	}
	if net.NumParams() != c.NumParams() {
		t.Fatal("clone parameter count differs")
	}
}

func TestGomokuConfigParamCount(t *testing.T) {
	net := MustNew(GomokuConfig(4, 15, 15, 225), rng.New(1))
	// 5 convs + 3 FCs; sanity-check the magnitude (hundreds of thousands).
	n := net.NumParams()
	if n < 100_000 || n > 2_000_000 {
		t.Fatalf("unexpected parameter count %d", n)
	}
}

func TestGradientsAdd(t *testing.T) {
	net := tinyNet(t)
	a, b := NewGradients(net), NewGradients(net)
	a.PolB.Data[0] = 1
	b.PolB.Data[0] = 2
	a.Add(b)
	if a.PolB.Data[0] != 3 {
		t.Fatalf("Add wrong: %v", a.PolB.Data[0])
	}
}

func BenchmarkTrainBatch32Gomoku(b *testing.B) {
	net := MustNew(GomokuConfig(4, 15, 15, 225), rng.New(1))
	r := rng.New(2)
	var batch []Sample
	for i := 0; i < 32; i++ {
		batch = append(batch, Sample{
			Input:  randInput(r, net.InputLen()),
			Policy: randPolicyTarget(r, 225),
			Value:  r.Float64()*2 - 1,
		})
	}
	opt := NewSGD(0.01, 0.9, 1e-4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TrainBatch(net, opt, batch, 0)
	}
}

// TestLoadRejectsUnknownWireFormat: a serialized network from a different
// format version must be rejected, not decoded into garbage parameters —
// checkpoints are durable artifacts now.
func TestLoadRejectsUnknownWireFormat(t *testing.T) {
	net := MustNew(TinyConfig(2, 4, 4, 16), rng.New(1))
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("round-trip failed: %v", err)
	}
	// Re-encode the wire struct with a bumped format version.
	var wire netWire
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	wire.Format = wireFormat + 1
	var future bytes.Buffer
	if err := gob.NewEncoder(&future).Encode(&wire); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&future); err == nil {
		t.Fatal("future wire format accepted")
	}
}

func encodeWire(t testing.TB, wire netWire) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&wire); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// malformedWires are checkpoints no network can be built from: a trunk
// width of zero, a board whose plane size overflows an int, a blob that does
// not fit its parameter's shape, a blob missing.
func malformedWires(net *Network) map[string]netWire {
	var params [][]float32
	net.visitParams(func(p *tensor.Tensor) { params = append(params, p.Data) })
	zero, huge := net.Cfg, net.Cfg
	zero.Trunk = []int{0, 8, 8}
	huge.H, huge.W = 1<<32, 1<<32
	short := append([][]float32(nil), params...)
	short[3] = short[3][1:]
	return map[string]netWire{
		"zero trunk width":  {Format: wireFormat, Cfg: zero, Params: params},
		"overflowing board": {Format: wireFormat, Cfg: huge, Params: params},
		"short blob":        {Format: wireFormat, Cfg: net.Cfg, Params: short},
		"missing blob":      {Format: wireFormat, Cfg: net.Cfg, Params: params[1:]},
	}
}

// TestLoadRejectsMalformedConfig: a malformed checkpoint — which a worker may
// receive over the wire — is an error, never a panic or an allocation sized
// from the untrusted configuration.
func TestLoadRejectsMalformedConfig(t *testing.T) {
	for name, wire := range malformedWires(MustNew(TinyConfig(2, 4, 4, 16), rng.New(1))) {
		if _, err := Load(bytes.NewReader(encodeWire(t, wire))); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
}

// FuzzLoad: for any bytes, Load returns an error or a network whose Save
// loads back and saves to the same bytes; it never panics.
func FuzzLoad(f *testing.F) {
	// The smallest network there is, so that mutations land on the
	// configuration and the blob lengths rather than inside weights.
	net := MustNew(Config{InC: 1, H: 1, W: 2, Trunk: []int{1, 1, 1}, PolicyC: 1, ValueC: 1, ValueHide: 1, NumActions: 2}, rng.New(1))
	for _, wire := range malformedWires(net) {
		f.Add(encodeWire(f, wire))
	}
	var valid bytes.Buffer
	if err := net.Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := loaded.Save(&once); err != nil {
			t.Fatal(err)
		}
		again, err := Load(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved network: %v", err)
		}
		if err := again.Save(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("Save of a loaded network does not round-trip")
		}
	})
}
