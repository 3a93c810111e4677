package expt

import (
	"encoding/csv"
	"io"
	"strconv"
)

// The CSV emitters below serialize each experiment as a plottable table,
// one row per data point, so the paper's figures can be regenerated with
// any plotting tool (telsbench -csv <dir> writes one file per experiment).

// WriteTableICSV emits the Table I rows.
func WriteTableICSV(w io.Writer, rows []TableIRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"benchmark", "one2one_gates", "one2one_levels", "one2one_area",
		"tels_gates", "tels_levels", "tels_area", "verified",
	}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Name,
			strconv.Itoa(r.OneToOne.Gates), strconv.Itoa(r.OneToOne.Levels), strconv.Itoa(r.OneToOne.Area),
			strconv.Itoa(r.TELS.Gates), strconv.Itoa(r.TELS.Levels), strconv.Itoa(r.TELS.Area),
			strconv.FormatBool(r.Verified),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig10CSV emits the fanin-restriction sweep.
func WriteFig10CSV(w io.Writer, points []Fig10Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"fanin", "one2one_gates", "tels_gates"}); err != nil {
		return err
	}
	for _, p := range points {
		rec := []string{strconv.Itoa(p.Fanin), strconv.Itoa(p.OneToOneGates), strconv.Itoa(p.TELSGates)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig11CSV emits the failure-rate curves, one row per (v, δon).
func WriteFig11CSV(w io.Writer, curves []Fig11Curve) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"v", "delta_on", "failure_rate"}); err != nil {
		return err
	}
	for _, c := range curves {
		for i := range c.V {
			rec := []string{
				strconv.FormatFloat(c.V[i], 'f', 2, 64),
				strconv.Itoa(c.DeltaOn),
				strconv.FormatFloat(c.Rate[i], 'f', 4, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig12CSV emits the failure-rate/area tradeoff.
func WriteFig12CSV(w io.Writer, v float64, points []Fig12Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"delta_on", "v", "failure_rate", "area", "relative_area"}); err != nil {
		return err
	}
	for _, p := range points {
		rec := []string{
			strconv.Itoa(p.DeltaOn),
			strconv.FormatFloat(v, 'f', 2, 64),
			strconv.FormatFloat(p.FailureRate, 'f', 4, 64),
			strconv.Itoa(p.TotalArea),
			strconv.FormatFloat(p.RelativeArea, 'f', 4, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
