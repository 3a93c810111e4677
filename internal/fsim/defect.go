package fsim

import (
	"fmt"
	"math/rand"
)

// Defect is one concrete fault instance for a compiled threshold network.
// All slices are aligned with the compiled network's Gates; nil fields
// mean "no fault of that kind".
type Defect struct {
	// WeightNoise adds a real offset to every weight: WeightNoise[gi][i]
	// is added to Gates[gi].Weights[i].
	WeightNoise [][]float64
	// ThresholdNoise drifts every gate threshold: gate gi fires when the
	// (possibly noisy) sum reaches T + ThresholdNoise[gi].
	ThresholdNoise []float64
	// Stuck forces gate outputs: per gate, -1 = free, 0 = stuck-at-0,
	// 1 = stuck-at-1.
	Stuck []int8
}

// DefectModel draws independent defect instances for a compiled network.
type DefectModel interface {
	// Name identifies the model in reports.
	Name() string
	// Draw produces one defect instance, consuming rng deterministically.
	Draw(s *ThreshSim, rng *rand.Rand) *Defect
}

// WeightVariation is the paper's §VI-C Monte-Carlo disturbance: every
// weight receives an independent V·U(−0.5, 0.5) offset. It consumes the
// RNG gate-major, weight-minor, one Float64 per weight, in Gates order,
// and backs every gate's offsets with one slab per draw.
type WeightVariation struct {
	V float64
}

// Name implements DefectModel.
func (m WeightVariation) Name() string { return fmt.Sprintf("weight-variation v=%g", m.V) }

// Draw implements DefectModel.
func (m WeightVariation) Draw(s *ThreshSim, rng *rand.Rand) *Defect {
	noise := make([][]float64, len(s.tn.Gates))
	slab := make([]float64, s.weights)
	for gi, g := range s.tn.Gates {
		k := len(g.Weights)
		n := slab[:k:k]
		slab = slab[k:]
		for i := range n {
			n[i] = m.V * (rng.Float64() - 0.5)
		}
		noise[gi] = n
	}
	return &Defect{WeightNoise: noise}
}

// ThresholdDrift perturbs every gate threshold by V·U(−0.5, 0.5),
// modelling bias drift of the MOBILE driver/load RTD pair rather than of
// the input branches.
type ThresholdDrift struct {
	V float64
}

// Name implements DefectModel.
func (m ThresholdDrift) Name() string { return fmt.Sprintf("threshold-drift v=%g", m.V) }

// Draw implements DefectModel.
func (m ThresholdDrift) Draw(s *ThreshSim, rng *rand.Rand) *Defect {
	drift := make([]float64, len(s.tn.Gates))
	for gi := range drift {
		drift[gi] = m.V * (rng.Float64() - 0.5)
	}
	return &Defect{ThresholdNoise: drift}
}

// StuckAt sticks each gate output independently with probability P, at a
// uniformly random polarity (the classic manufacturing-defect model).
type StuckAt struct {
	P float64
}

// Name implements DefectModel.
func (m StuckAt) Name() string { return fmt.Sprintf("stuck-at p=%g", m.P) }

// Draw implements DefectModel.
func (m StuckAt) Draw(s *ThreshSim, rng *rand.Rand) *Defect {
	stuck := make([]int8, len(s.tn.Gates))
	for gi := range stuck {
		stuck[gi] = -1
		if rng.Float64() < m.P {
			stuck[gi] = int8(rng.Intn(2))
		}
	}
	return &Defect{Stuck: stuck}
}
