package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteTLN writes the threshold network in the textual .tln format:
//
//	.tnet <name>
//	.inputs a b c
//	.outputs f
//	.gate f = [T=2] +1*a +1*b -1*c
//	.end
func WriteTLN(w io.Writer, tn *Network) error {
	_, err := io.WriteString(w, tn.String())
	return err
}

// ParseTLN reads a threshold network in the .tln format. Gate lines may
// come in any order; the returned Gates are topological (see Network).
// A repeated name, a cycle and an undefined gate input are errors.
func ParseTLN(r io.Reader) (*Network, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	tn := NewNetwork("top")
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.Index(text, "#"); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case ".tnet":
			if len(fields) > 1 {
				tn.Name = fields[1]
			}
		case ".inputs":
			for _, in := range fields[1:] {
				if g, dup := tn.signals[in]; dup {
					what := "repeats an input"
					if g != nil {
						what = "names a gate"
					}
					return nil, fmt.Errorf("tln: line %d: input %s %s", line, in, what)
				}
				tn.AddInput(in)
			}
		case ".outputs":
			for _, o := range fields[1:] {
				tn.MarkOutput(o)
			}
		case ".gate":
			g, err := parseGateLine(fields[1:])
			if err != nil {
				return nil, fmt.Errorf("tln: line %d: %v", line, err)
			}
			if err := tn.appendGate(g); err != nil {
				return nil, fmt.Errorf("tln: line %d: %v", line, err)
			}
		case ".end":
		default:
			return nil, fmt.Errorf("tln: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tln: line %d: %w", line+1, err)
	}
	if err := tn.sortGates(); err != nil {
		return nil, err
	}
	if err := tn.Validate(); err != nil {
		return nil, err
	}
	return tn, nil
}

// parseGateLine parses "f = [T=2] +1*a -1*b".
func parseGateLine(fields []string) (*Gate, error) {
	if len(fields) < 3 || fields[1] != "=" {
		return nil, fmt.Errorf("malformed gate line %v", fields)
	}
	g := &Gate{Name: fields[0]}
	tField := fields[2]
	if !strings.HasPrefix(tField, "[T=") || !strings.HasSuffix(tField, "]") {
		return nil, fmt.Errorf("malformed threshold %q", tField)
	}
	t, err := strconv.Atoi(tField[3 : len(tField)-1])
	if err != nil {
		return nil, fmt.Errorf("bad threshold %q: %v", tField, err)
	}
	g.T = t
	for _, term := range fields[3:] {
		star := strings.Index(term, "*")
		if star < 0 {
			return nil, fmt.Errorf("malformed term %q", term)
		}
		w, err := strconv.Atoi(term[:star])
		if err != nil {
			return nil, fmt.Errorf("bad weight in %q: %v", term, err)
		}
		name := term[star+1:]
		if name == "" {
			return nil, fmt.Errorf("missing input name in %q", term)
		}
		g.Weights = append(g.Weights, w)
		g.Inputs = append(g.Inputs, name)
	}
	return g, nil
}

// ParseTLNString parses a .tln document from a string.
func ParseTLNString(s string) (*Network, error) {
	return ParseTLN(strings.NewReader(s))
}
