// Package rtd maps synthesized threshold networks onto the paper's target
// nanotechnology: monostable-bistable transition logic elements (MOBILEs)
// built from resonant tunneling diodes and HFETs (§II-A, Fig. 1). Each
// LTG becomes a MOBILE with one driver/load RTD pair and one RTD–HFET
// branch per input; a positive weight contributes to the rising branch
// set, a negative weight to the falling set, and the RTD peak currents
// are proportional to |w|. The package reports device counts and the
// Eq. 14 RTD area, and serializes a SPICE-like structural netlist.
package rtd

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"tels/internal/core"
)

// Branch is one input branch of a MOBILE: an RTD in series with an HFET
// gated by the input signal.
type Branch struct {
	Input   string
	Weight  int  // |w| relative RTD peak current (area)
	Falling bool // true when the weight is negative (output-pulling branch)
}

// Mobile is one monostable-bistable logic element implementing an LTG.
type Mobile struct {
	Name     string
	Branches []Branch
	// DriverPeak and LoadPeak are the relative peak currents of the
	// clocked driver/load RTD pair realizing the threshold T.
	DriverPeak int
	LoadPeak   int
	Output     string
}

// DeviceCount returns the RTD and HFET counts of the element: one RTD per
// branch plus the driver/load pair, one HFET per branch.
func (m *Mobile) DeviceCount() (rtds, hfets int) {
	return len(m.Branches) + 2, len(m.Branches)
}

// Area returns the element's RTD area in units of a weight-1 RTD,
// matching Eq. 14: Σ|wᵢ| + |T| (the HFET area is ignored, as in the
// paper).
func (m *Mobile) Area() int {
	a := m.DriverPeak
	for _, b := range m.Branches {
		a += b.Weight
	}
	return a
}

// Netlist is a threshold network mapped to MOBILE elements.
type Netlist struct {
	Name    string
	Inputs  []string
	Outputs []string
	Mobiles []*Mobile
}

// Map converts the threshold network into a MOBILE netlist, one element
// per gate in tn.Gates order, drivers first.
func Map(tn *core.Network) *Netlist {
	nl := &Netlist{
		Name:    tn.Name,
		Inputs:  append([]string(nil), tn.Inputs...),
		Outputs: append([]string(nil), tn.Outputs...),
	}
	for _, g := range tn.Gates {
		m := &Mobile{Name: g.Name, Output: g.Name}
		for i, in := range g.Inputs {
			w := g.Weights[i]
			if w == 0 {
				continue // a zero weight contributes no branch
			}
			b := Branch{Input: in, Weight: abs(w), Falling: w < 0}
			m.Branches = append(m.Branches, b)
		}
		// The driver RTD realizes |T| units of peak current; its sign
		// selects which side of the bistable pair it biases.
		m.DriverPeak = abs(g.T)
		m.LoadPeak = 1
		nl.Mobiles = append(nl.Mobiles, m)
	}
	return nl
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Stats summarizes the physical mapping.
type Stats struct {
	Mobiles int
	RTDs    int
	HFETs   int
	Area    int // Eq. 14 units
}

// Stats computes device counts and area for the netlist.
func (nl *Netlist) Stats() Stats {
	s := Stats{Mobiles: len(nl.Mobiles)}
	for _, m := range nl.Mobiles {
		r, h := m.DeviceCount()
		s.RTDs += r
		s.HFETs += h
		s.Area += m.Area()
	}
	return s
}

// Write serializes the netlist in a SPICE-like structural form: one
// X-element per MOBILE with RTD peak-current parameters.
func (nl *Netlist) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "* MOBILE netlist %s (RTD/HFET threshold logic)\n", nl.Name)
	fmt.Fprintf(bw, "* inputs: %s\n", strings.Join(nl.Inputs, " "))
	fmt.Fprintf(bw, "* outputs: %s\n", strings.Join(nl.Outputs, " "))
	for _, m := range nl.Mobiles {
		fmt.Fprintf(bw, ".subckt_use mobile_%s out=%s clk=clk", m.Name, m.Output)
		fmt.Fprintf(bw, " driver_peak=%d load_peak=%d\n", m.DriverPeak, m.LoadPeak)
		for i, b := range m.Branches {
			side := "rise"
			if b.Falling {
				side = "fall"
			}
			fmt.Fprintf(bw, "+  branch%d in=%s rtd_peak=%d side=%s\n", i, b.Input, b.Weight, side)
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// WriteString renders the netlist to a string.
func (nl *Netlist) WriteString() (string, error) {
	var sb strings.Builder
	if err := nl.Write(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}
