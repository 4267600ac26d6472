package arch

import (
	"encoding/json"
	"fmt"
	"io"

	"qproc/internal/lattice"
)

// jsonArch is the on-disk representation of an Architecture, exchanged by
// the CLI tools (qdesign emits it, qyield and qmap consume it) and
// embedded in larger artefacts (search outcomes, server responses).
type jsonArch struct {
	Name string `json:"name"`
	// Family is the topology family; omitted for the paper's square
	// lattice, so pre-family files and square-family files are
	// byte-identical.
	Family string    `json:"family,omitempty"`
	Coords [][2]int  `json:"coords"`
	Freqs  []float64 `json:"freqs,omitempty"`
	Buses  []jsonBus `json:"buses"`
}

type jsonBus struct {
	Kind   string `json:"kind"` // "2q" or "multi"
	Qubits []int  `json:"qubits"`
	Square [2]int `json:"square,omitempty"`
}

// toJSON renders the architecture in its serialised shape.
func (a *Architecture) toJSON() jsonArch {
	out := jsonArch{Name: a.Name, Family: a.Family, Freqs: a.Freqs}
	for _, c := range a.Coords {
		out.Coords = append(out.Coords, [2]int{c.X, c.Y})
	}
	for _, b := range a.Buses {
		jb := jsonBus{Qubits: b.Qubits}
		if b.Kind == TwoQubitBus {
			jb.Kind = "2q"
		} else {
			jb.Kind = "multi"
			jb.Square = [2]int{b.Square.Origin.X, b.Square.Origin.Y}
		}
		out.Buses = append(out.Buses, jb)
	}
	return out
}

// fromJSON rebuilds and validates an architecture from its serialised
// shape.
func fromJSON(in jsonArch) (*Architecture, error) {
	coords := make([]lattice.Coord, len(in.Coords))
	for i, c := range in.Coords {
		coords[i] = lattice.Coord{X: c[0], Y: c[1]}
	}
	a, err := New(in.Name, coords)
	if err != nil {
		return nil, err
	}
	// Non-square families validate without the square family's lattice
	// checks: the file's bus list is the authoritative coupling graph.
	a.Family = in.Family
	// Replace the auto-generated buses with the serialised ones so the
	// file is authoritative.
	a.Buses = nil
	for i, jb := range in.Buses {
		b := Bus{Qubits: append([]int(nil), jb.Qubits...)}
		switch jb.Kind {
		case "2q":
			b.Kind = TwoQubitBus
		case "multi":
			b.Kind = MultiQubitBus
			b.Square = lattice.Square{Origin: lattice.Coord{X: jb.Square[0], Y: jb.Square[1]}}
		default:
			return nil, fmt.Errorf("arch: bus %d has unknown kind %q", i, jb.Kind)
		}
		a.Buses = append(a.Buses, b)
	}
	if in.Freqs != nil {
		if err := a.SetFrequencies(in.Freqs); err != nil {
			return nil, err
		}
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("arch: file invalid: %w", err)
	}
	return a, nil
}

// MarshalJSON implements json.Marshaler with the WriteJSON
// representation.
func (a *Architecture) MarshalJSON() ([]byte, error) {
	return json.Marshal(a.toJSON())
}

// UnmarshalJSON implements json.Unmarshaler, validating the decoded
// architecture like ReadJSON does.
func (a *Architecture) UnmarshalJSON(data []byte) error {
	var in jsonArch
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("arch: decoding: %w", err)
	}
	dec, err := fromJSON(in)
	if err != nil {
		return err
	}
	*a = *dec
	return nil
}

// WriteJSON serialises the architecture.
func (a *Architecture) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a.toJSON())
}

// ReadJSON deserialises an architecture and validates it.
func ReadJSON(r io.Reader) (*Architecture, error) {
	var in jsonArch
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("arch: decoding: %w", err)
	}
	return fromJSON(in)
}
