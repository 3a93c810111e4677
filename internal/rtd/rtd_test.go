package rtd

import (
	"strings"
	"testing"

	"tels/internal/core"
	"tels/internal/logic"
	"tels/internal/mcnc"
	"tels/internal/network"
	"tels/internal/opt"
)

func sampleNetwork(t *testing.T) *core.Network {
	t.Helper()
	tn := core.NewNetwork("demo")
	tn.AddInput("a")
	tn.AddInput("b")
	tn.AddInput("c")
	gates := []*core.Gate{
		{Name: "g1", Inputs: []string{"a", "b", "c"}, Weights: []int{2, -1, -1}, T: 1},
		{Name: "f", Inputs: []string{"g1", "c"}, Weights: []int{1, 1}, T: 1},
	}
	for _, g := range gates {
		if err := tn.AddGate(g); err != nil {
			t.Fatal(err)
		}
	}
	tn.MarkOutput("f")
	return tn
}

func TestMapStructure(t *testing.T) {
	nl := Map(sampleNetwork(t))
	if len(nl.Mobiles) != 2 {
		t.Fatalf("mobiles = %d, want 2", len(nl.Mobiles))
	}
	g1 := nl.Mobiles[0]
	if g1.Name != "g1" || len(g1.Branches) != 3 {
		t.Fatalf("g1 mobile wrong: %+v", g1)
	}
	// The two negative weights become falling branches of unit peak.
	falls := 0
	for _, b := range g1.Branches {
		if b.Falling {
			falls++
			if b.Weight != 1 {
				t.Fatalf("falling branch weight = %d, want 1", b.Weight)
			}
		}
	}
	if falls != 2 {
		t.Fatalf("falling branches = %d, want 2", falls)
	}
	if g1.DriverPeak != 1 {
		t.Fatalf("driver peak = %d, want |T| = 1", g1.DriverPeak)
	}
}

func TestAreaMatchesEq14(t *testing.T) {
	tn := sampleNetwork(t)
	nl := Map(tn)
	if got, want := nl.Stats().Area, tn.Area(); got != want {
		t.Fatalf("mapped area = %d, network Eq.14 area = %d", got, want)
	}
}

func TestDeviceCounts(t *testing.T) {
	nl := Map(sampleNetwork(t))
	s := nl.Stats()
	// g1: 3 branches + 2 = 5 RTDs, 3 HFETs; f: 2 branches + 2 = 4 RTDs, 2 HFETs.
	if s.RTDs != 9 || s.HFETs != 5 {
		t.Fatalf("devices = %d RTDs / %d HFETs, want 9/5", s.RTDs, s.HFETs)
	}
	if s.Mobiles != 2 {
		t.Fatalf("mobiles = %d", s.Mobiles)
	}
}

func TestZeroWeightSkipped(t *testing.T) {
	tn := core.NewNetwork("z")
	tn.AddInput("a")
	tn.AddInput("b")
	if err := tn.AddGate(&core.Gate{
		Name: "f", Inputs: []string{"a", "b"}, Weights: []int{1, 0}, T: 1,
	}); err != nil {
		t.Fatal(err)
	}
	tn.MarkOutput("f")
	nl := Map(tn)
	if len(nl.Mobiles[0].Branches) != 1 {
		t.Fatalf("zero-weight input not skipped: %+v", nl.Mobiles[0])
	}
}

func TestWriteNetlist(t *testing.T) {
	nl := Map(sampleNetwork(t))
	text, err := nl.WriteString()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"MOBILE netlist demo",
		"mobile_g1",
		"rtd_peak=2",
		"side=fall",
		"driver_peak=1",
		".end",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("netlist missing %q:\n%s", want, text)
		}
	}
}

func TestMapSynthesizedBenchmark(t *testing.T) {
	src := mcnc.Build("cm152a")
	tn, _, err := core.Synthesize(opt.Algebraic(src), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nl := Map(tn)
	s := nl.Stats()
	if s.Mobiles != tn.GateCount() {
		t.Fatalf("mobiles %d != gates %d", s.Mobiles, tn.GateCount())
	}
	if s.Area != tn.Area() {
		t.Fatalf("area %d != Eq.14 area %d", s.Area, tn.Area())
	}
	if s.RTDs <= s.Mobiles || s.HFETs == 0 {
		t.Fatalf("implausible device counts: %+v", s)
	}
}

// TestNegativeThresholdDriver: a gate with T < 0 (an LTG that fires even
// with no active inputs, e.g. NOR via negative weights) still maps to a
// physical |T| driver RTD and the Eq. 14 area stays consistent.
func TestNegativeThresholdDriver(t *testing.T) {
	tn := core.NewNetwork("nor")
	tn.AddInput("a")
	tn.AddInput("b")
	if err := tn.AddGate(&core.Gate{
		Name: "f", Inputs: []string{"a", "b"}, Weights: []int{-1, -1}, T: 0,
	}); err != nil {
		t.Fatal(err)
	}
	tn.MarkOutput("f")
	nl := Map(tn)
	m := nl.Mobiles[0]
	for _, b := range m.Branches {
		if !b.Falling || b.Weight != 1 {
			t.Fatalf("negative weight mapped wrong: %+v", b)
		}
	}
	if m.DriverPeak != 0 {
		t.Fatalf("driver peak = %d, want |T| = 0", m.DriverPeak)
	}
	if got, want := nl.Stats().Area, tn.Area(); got != want {
		t.Fatalf("mapped area = %d, Eq.14 area = %d", got, want)
	}

	neg := core.NewNetwork("negT")
	neg.AddInput("a")
	if err := neg.AddGate(&core.Gate{
		Name: "f", Inputs: []string{"a"}, Weights: []int{-2}, T: -1,
	}); err != nil {
		t.Fatal(err)
	}
	neg.MarkOutput("f")
	nl = Map(neg)
	if nl.Mobiles[0].DriverPeak != 1 {
		t.Fatalf("driver peak = %d, want |T| = 1", nl.Mobiles[0].DriverPeak)
	}
	if got, want := nl.Stats().Area, neg.Area(); got != want {
		t.Fatalf("mapped area = %d, Eq.14 area = %d", got, want)
	}
}

// TestMapInvertedInputsOneToOne: a source network using inverted literals
// synthesizes (one-to-one) into LTGs with negative input weights, and the
// MOBILE mapping keeps each such input on a falling RTD branch.
func TestMapInvertedInputsOneToOne(t *testing.T) {
	nw := network.New("inv")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	// f = a'·b + a·b' (XOR via inverted literals; decomposes to gates
	// whose covers carry Neg phases).
	f := nw.AddNode("f", []*network.Node{a, b}, logic.MustCover("01", "10"))
	nw.MarkOutput(f)
	o := core.DefaultOptions()
	tn, err := core.OneToOne(nw, o)
	if err != nil {
		t.Fatal(err)
	}
	nl := Map(tn)
	falling, total := 0, 0
	for gi, g := range tn.Gates {
		m := nl.Mobiles[gi]
		bi := 0
		for i, w := range g.Weights {
			if w == 0 {
				continue
			}
			br := m.Branches[bi]
			bi++
			total++
			if br.Input != g.Inputs[i] {
				t.Fatalf("gate %s branch %d input %q, want %q", g.Name, bi, br.Input, g.Inputs[i])
			}
			if br.Falling != (w < 0) || br.Weight != abs(w) {
				t.Fatalf("gate %s weight %d mapped to %+v", g.Name, w, br)
			}
			if br.Falling {
				falling++
			}
		}
	}
	if falling == 0 {
		t.Fatalf("XOR one-to-one mapping produced no inverted (falling) branches across %d branches", total)
	}
	if got, want := nl.Stats().Area, tn.Area(); got != want {
		t.Fatalf("mapped area = %d, Eq.14 area = %d", got, want)
	}
}

// TestMapKeepsDriversFirst: a .tln that lists readers before their
// drivers still maps to a netlist with every element after its drivers.
func TestMapKeepsDriversFirst(t *testing.T) {
	tn, err := core.ParseTLNString(".tnet o\n.inputs a b\n.outputs f\n" +
		".gate f = [T=1] +1*h +1*a\n.gate h = [T=0] -1*g\n.gate g = [T=2] +1*a +1*b\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	nl := Map(tn)
	driven := map[string]bool{"a": true, "b": true}
	var names []string
	for _, m := range nl.Mobiles {
		for _, b := range m.Branches {
			if !driven[b.Input] {
				t.Fatalf("element %s reads %s before it is driven", m.Name, b.Input)
			}
		}
		driven[m.Output] = true
		names = append(names, m.Name)
	}
	if got := strings.Join(names, " "); got != "g h f" {
		t.Fatalf("elements %s, want g h f", got)
	}
}
