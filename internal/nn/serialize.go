package nn

import (
	"encoding/gob"
	"fmt"
	"io"

	"github.com/parmcts/parmcts/internal/tensor"
)

// wireFormat is the serialization format version. Stamped into every saved
// network and checked on load: checkpoints are durable artifacts that
// outlive the process (internal/checkpoint), so an incompatible future
// change to the wire layout must be detected, not decoded into garbage
// parameters.
const wireFormat = 1

// netWire is the gob wire format: format version, configuration, and
// parameter payloads in visitParams order, each weight out x in with its
// input channel-major (layout's wire order).
type netWire struct {
	Format int
	Cfg    Config
	Params [][]float32
}

// Save writes the network to w in a self-describing binary format.
func (n *Network) Save(w io.Writer) error {
	wire := netWire{Format: wireFormat, Cfg: n.Cfg}
	ls := n.Cfg.layouts()
	for i, p := range n.params() {
		blob := make([]float32, ls[i].len())
		ls[i].convert(blob, (*p).Data, true)
		wire.Params = append(wire.Params, blob)
	}
	return gob.NewEncoder(w).Encode(&wire)
}

// Load reads a network previously written with Save. The stream is untrusted
// (a worker applies checkpoints received over the wire), so the configuration
// is validated and every blob's length checked against its parameter's shape
// before anything is allocated; the blobs are then converted to the
// parameters' memory layout.
func Load(r io.Reader) (*Network, error) {
	var wire netWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("nn: decode: %w", err)
	}
	// Format 0 is the legacy pre-stamp layout, whose Cfg/Params encoding is
	// identical to format 1 — networks saved before the stamp existed stay
	// loadable. Anything else comes from a future incompatible layout.
	if wire.Format != 0 && wire.Format != wireFormat {
		return nil, fmt.Errorf("nn: unsupported wire format %d (want %d)", wire.Format, wireFormat)
	}
	if err := wire.Cfg.validate(); err != nil {
		return nil, err
	}
	net := &Network{Cfg: wire.Cfg}
	slots, ls := net.params(), wire.Cfg.layouts()
	if len(wire.Params) != len(slots) {
		return nil, fmt.Errorf("nn: %d parameter blobs, want %d", len(wire.Params), len(slots))
	}
	for i, l := range ls {
		// validate bounds every product of the config's dimensions, so
		// l.len() cannot overflow.
		if len(wire.Params[i]) != l.len() {
			return nil, fmt.Errorf("nn: parameter %d has %d values, want %d", i, len(wire.Params[i]), l.len())
		}
	}
	for i, l := range ls {
		*slots[i] = tensor.New(l.shape()...)
		l.convert((*slots[i]).Data, wire.Params[i], false)
	}
	return net, nil
}
