package fsim

import (
	"fmt"
	"math/bits"
	"sort"

	"tels/internal/core"
)

// FaultSite is one single-stuck-at fault and its detectability under a
// vector batch.
type FaultSite struct {
	// Gate names the faulty threshold gate.
	Gate string `json:"gate"`
	// Stuck is the fault polarity (0 or 1).
	Stuck int8 `json:"stuck"`
	// Detected counts the vectors on which the fault is observable at a
	// primary output.
	Detected int `json:"detected"`
}

// FaultReport summarizes a deterministic single-stuck-at fault sweep.
type FaultReport struct {
	// Faults is the number of fault sites simulated (two per gate).
	Faults int `json:"faults"`
	// DetectedFaults counts sites observable on at least one vector.
	DetectedFaults int `json:"detected_faults"`
	// Coverage is DetectedFaults / Faults.
	Coverage float64 `json:"coverage"`
	// Vectors is the batch size the sweep used.
	Vectors int `json:"vectors"`
	// Sites lists every fault, hardest to detect first.
	Sites []FaultSite `json:"sites"`
}

// FaultSweep simulates every single stuck-at-0/1 gate fault of the
// threshold network against its own clean behaviour, one packed sweep per
// fault site. Redundant (undetectable) faults surface with Detected == 0
// — on a MOBILE array those are the defects manufacturing test cannot
// screen.
func FaultSweep(tn *core.Network, batch *Batch) (*FaultReport, error) {
	sim, err := CompileThresh(tn)
	if err != nil {
		return nil, err
	}
	clean, err := sim.Eval(batch)
	if err != nil {
		return nil, err
	}
	golden := make([][]uint64, len(clean))
	for o := range clean {
		golden[o] = append([]uint64(nil), clean[o]...)
	}
	gates := tn.Gates
	rep := &FaultReport{Vectors: batch.Len()}
	stuck := make([]int8, len(gates))
	for gi, g := range gates {
		for _, sv := range []int8{0, 1} {
			for i := range stuck {
				stuck[i] = -1
			}
			stuck[gi] = sv
			out, err := sim.EvalDefect(batch, &Defect{Stuck: stuck}, nil)
			if err != nil {
				return nil, err
			}
			detected := 0
			for wi := range batch.mask {
				var fail uint64
				for o := range out {
					fail |= out[o][wi] ^ golden[o][wi]
				}
				detected += bits.OnesCount64(fail & batch.mask[wi])
			}
			rep.Faults++
			if detected > 0 {
				rep.DetectedFaults++
			}
			rep.Sites = append(rep.Sites, FaultSite{Gate: g.Name, Stuck: sv, Detected: detected})
		}
	}
	rep.Coverage = float64(rep.DetectedFaults) / float64(rep.Faults)
	sort.Slice(rep.Sites, func(i, j int) bool {
		a, b := rep.Sites[i], rep.Sites[j]
		if a.Detected != b.Detected {
			return a.Detected < b.Detected
		}
		if a.Gate != b.Gate {
			return a.Gate < b.Gate
		}
		return a.Stuck < b.Stuck
	})
	return rep, nil
}

// String renders a one-line summary for CLI output.
func (r *FaultReport) String() string {
	return fmt.Sprintf("%d/%d stuck-at faults detectable (coverage %.1f%%, %d vectors)",
		r.DetectedFaults, r.Faults, 100*r.Coverage, r.Vectors)
}
