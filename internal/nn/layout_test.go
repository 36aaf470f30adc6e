package nn

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"

	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/rng"
)

// relClose reports whether got is within tol of want, relative to |want|.
func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// TestWireLayoutUnchanged holds the checkpoint format to the one networks
// were written in before weights were held in the GEMM's in x out order:
// testdata/tiny.net is a TinyConfig(3, 4, 6, 24) network (random biases, a
// board that is not square) saved by that earlier nn.Save, and
// testdata/tiny_outputs.json its forward on four inputs drawn from
// rng.New(78). Loading and saving it must reproduce the file byte for byte,
// and the loaded network must reproduce the outputs within 1e-5 relative.
func TestWireLayoutUnchanged(t *testing.T) {
	raw, err := os.ReadFile("testdata/tiny.net")
	if err != nil {
		t.Fatal(err)
	}
	net, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := net.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Fatalf("Load then Save wrote %d bytes that differ from the %d recorded", again.Len(), len(raw))
	}
	js, err := os.ReadFile("testdata/tiny_outputs.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Policies [][]float32
		Values   []float64
	}
	if err := json.Unmarshal(js, &want); err != nil {
		t.Fatal(err)
	}
	r := rng.New(78)
	ws := NewForwardWorkspace(net)
	for i, wantPol := range want.Policies {
		pol, v := forward1(net, ws, randInput(r, net.InputLen()))
		if !relClose(v, want.Values[i], 1e-5) {
			t.Errorf("input %d: value %v, recorded %v", i, v, want.Values[i])
		}
		for a, p := range pol {
			if !relClose(float64(p), float64(wantPol[a]), 1e-5) {
				t.Errorf("input %d action %d: policy %v, recorded %v", i, a, p, wantPol[a])
			}
		}
	}
}

// forward64 is the network's forward in float64, written from the
// definition: direct convolutions over the channel-major input planes, each
// weight read where the memory layout puts it, no gather and no GEMM.
func forward64(net *Network, in []float32) (policy []float64, value float64) {
	cfg := net.Cfg
	h, w := cfg.H, cfg.W
	hw := h * w
	// act is channels-last: act[p*c+ch].
	act, c := make([]float64, hw*cfg.InC), cfg.InC
	for ch := 0; ch < c; ch++ {
		for p := 0; p < hw; p++ {
			act[p*c+ch] = float64(in[ch*hw+p])
		}
	}
	conv := func(layer, k int, relu bool) []float64 {
		wt, bias, outC := net.ConvW[layer].Data, net.ConvB[layer].Data, len(net.ConvB[layer].Data)
		out := make([]float64, hw*outC)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				for o := 0; o < outC; o++ {
					s := float64(bias[o])
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							iy, ix := y+ky-k/2, x+kx-k/2
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							for ch := 0; ch < c; ch++ {
								s += float64(wt[((ky*k+kx)*c+ch)*outC+o]) * act[(iy*w+ix)*c+ch]
							}
						}
					}
					if relu && s < 0 {
						s = 0
					}
					out[(y*w+x)*outC+o] = s
				}
			}
		}
		return out
	}
	dense := func(x []float64, wt, bias []float32, relu bool) []float64 {
		out := make([]float64, len(bias))
		for o := range out {
			s := float64(bias[o])
			for i, v := range x {
				s += v * float64(wt[i*len(bias)+o])
			}
			if relu && s < 0 {
				s = 0
			}
			out[o] = s
		}
		return out
	}
	for layer := 0; layer < 3; layer++ {
		act, c = conv(layer, 3, true), cfg.Trunk[layer]
	}
	logits := dense(conv(3, 1, true), net.PolW.Data, net.PolB.Data, false)
	hidden := dense(conv(4, 1, true), net.Val1W.Data, net.Val1B.Data, true)
	value = math.Tanh(dense(hidden, net.Val2W.Data, net.Val2B.Data, false)[0])
	policy = make([]float64, len(logits))
	maxL, sum := math.Inf(-1), 0.0
	for _, l := range logits {
		maxL = math.Max(maxL, l)
	}
	for a, l := range logits {
		policy[a] = math.Exp(l - maxL)
		sum += policy[a]
	}
	for a := range policy {
		policy[a] /= sum
	}
	return policy, value
}

// TestForwardMatchesFloat64 holds Forward within 1e-5 relative of forward64
// on the paper's network over goldenPositions of every registered game: all
// five games, gomoku at three sizes. (The kernel classes agree bit for bit,
// TestForwardGolden.)
func TestForwardMatchesFloat64(t *testing.T) {
	for _, name := range game.Names() {
		g, err := game.NewFromSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		c, h, w := g.EncodedShape()
		net := MustNew(GomokuConfig(c, h, w, g.NumActions()), rng.New(2027))
		ws := NewForwardWorkspace(net)
		for i, in := range goldenPositions(g) {
			pol, v := forward1(net, ws, in)
			wantPol, wantV := forward64(net, in)
			if !relClose(v, wantV, 1e-5) {
				t.Errorf("%s position %d: value %v, float64 %v", name, i, v, wantV)
			}
			for a, p := range pol {
				if !relClose(float64(p), wantPol[a], 1e-5) {
					t.Errorf("%s position %d action %d: policy %v, float64 %v", name, i, a, p, wantPol[a])
				}
			}
		}
	}
}
