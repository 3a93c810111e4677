// Package blif reads and writes the Berkeley Logic Interchange Format
// subset used for combinational networks: .model, .inputs, .outputs,
// .names (single-output cover) and .end. This is the interchange format of
// SIS and of the MCNC benchmark suite the paper evaluates on.
//
// A parsed network keeps the file's order: inputs as listed, then each
// .names in the order the file defines it. WriteCore emits internal nets in
// topological order, the order Clone gives, so writing a network and
// parsing the text back yields Clone's network net for net, and a flow
// that reads BLIF text synthesizes what the in-memory flow does.
package blif

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"tels/internal/logic"
	"tels/internal/netcore"
	"tels/internal/network"
)

// ParseCore reads one .model from r and builds the netcore network, each
// cover stored as written.
func ParseCore(r io.Reader) (*netcore.Network, error) {
	p := &parser{scanner: bufio.NewScanner(r)}
	p.scanner.Buffer(nil, 1<<20)
	return p.parse()
}

// ParseCoreString is ParseCore on a string.
func ParseCoreString(s string) (*netcore.Network, error) {
	return ParseCore(strings.NewReader(s))
}

type rawNames struct {
	signals []string // fanin names followed by the output name
	cubes   []string // cover rows "110 1" with the output column stripped
	line    int
}

type parser struct {
	scanner *bufio.Scanner
	line    int
	pending string
	eof     bool
}

// next returns the next logical line with continuations ("\" at end)
// joined, comments stripped, and blanks skipped.
func (p *parser) next() (string, bool) {
	for {
		var parts []string
		for {
			if p.pending != "" {
				parts = append(parts, strings.TrimSuffix(p.pending, "\\"))
				done := !strings.HasSuffix(p.pending, "\\")
				p.pending = ""
				if done {
					break
				}
			}
			if !p.scanner.Scan() {
				p.eof = true
				break
			}
			p.line++
			text := p.scanner.Text()
			if i := strings.Index(text, "#"); i >= 0 {
				text = text[:i]
			}
			text = strings.TrimSpace(text)
			if text == "" && len(parts) == 0 {
				continue
			}
			p.pending = text
			if text == "" {
				break
			}
		}
		joined := strings.TrimSpace(strings.Join(parts, " "))
		if joined != "" {
			return joined, true
		}
		if p.eof {
			return "", false
		}
	}
}

func (p *parser) parse() (*netcore.Network, error) {
	name := "top"
	var inputs, outputs []string
	var names []rawNames
	var current *rawNames

	flush := func() {
		if current != nil {
			names = append(names, *current)
			current = nil
		}
	}

	for {
		line, ok := p.next()
		if !ok {
			break
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case ".model":
			if len(fields) > 1 {
				name = fields[1]
			}
		case ".inputs":
			flush()
			inputs = append(inputs, fields[1:]...)
		case ".outputs":
			flush()
			outputs = append(outputs, fields[1:]...)
		case ".names":
			flush()
			if len(fields) < 2 {
				return nil, fmt.Errorf("blif: line %d: .names needs at least an output", p.line)
			}
			current = &rawNames{signals: fields[1:], line: p.line}
		case ".end":
			flush()
		case ".latch", ".gate", ".mlatch", ".subckt":
			return nil, fmt.Errorf("blif: line %d: unsupported construct %s (combinational subset only)", p.line, fields[0])
		default:
			if strings.HasPrefix(fields[0], ".") {
				// Ignore unknown dot-directives (.default_input_arrival etc.)
				continue
			}
			if current == nil {
				return nil, fmt.Errorf("blif: line %d: cover row outside .names", p.line)
			}
			current.cubes = append(current.cubes, line)
		}
	}
	if err := p.scanner.Err(); err != nil {
		return nil, fmt.Errorf("blif: line %d: %w", p.line+1, err)
	}
	flush()
	return build(name, inputs, outputs, names)
}

// build creates the inputs, then one net per .names in file order, then
// marks the outputs.
func build(name string, inputs, outputs []string, names []rawNames) (*netcore.Network, error) {
	nw := netcore.New(name)
	for _, in := range inputs {
		if nw.NetByName(in) != netcore.InvalidNet {
			return nil, fmt.Errorf("blif: duplicate input %s", in)
		}
		nw.AddInput(in)
	}

	byOutput := make(map[string]rawNames, len(names))
	for _, rn := range names {
		out := rn.signals[len(rn.signals)-1]
		if nw.NetByName(out) != netcore.InvalidNet {
			return nil, fmt.Errorf("blif: line %d: signal %s is a primary input and cannot be driven by .names", rn.line, out)
		}
		if _, dup := byOutput[out]; dup {
			return nil, fmt.Errorf("blif: line %d: signal %s defined twice", rn.line, out)
		}
		byOutput[out] = rn
	}

	// A fanin defined further down the file is created on its first use.
	building := make(map[string]bool)
	var define func(sig string) (netcore.Net, error)
	define = func(sig string) (netcore.Net, error) {
		if n := nw.NetByName(sig); n != netcore.InvalidNet {
			return n, nil
		}
		rn, ok := byOutput[sig]
		if !ok {
			return netcore.InvalidNet, fmt.Errorf("blif: signal %s is used but never defined", sig)
		}
		if building[sig] {
			return netcore.InvalidNet, fmt.Errorf("blif: combinational cycle through %s", sig)
		}
		building[sig] = true
		defer delete(building, sig)

		faninNames := rn.signals[:len(rn.signals)-1]
		fanins := make([]netcore.Net, len(faninNames))
		for i, fn := range faninNames {
			f, err := define(fn)
			if err != nil {
				return netcore.InvalidNet, err
			}
			fanins[i] = f
		}
		cover, err := parseCover(rn, len(faninNames))
		if err != nil {
			return netcore.InvalidNet, err
		}
		return nw.AddNode(sig, fanins, cover), nil
	}

	for _, rn := range names {
		if _, err := define(rn.signals[len(rn.signals)-1]); err != nil {
			return nil, err
		}
	}
	for _, out := range outputs {
		n, err := define(out)
		if err != nil {
			return nil, err
		}
		nw.MarkOutput(n)
	}
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	return nw, nil
}

func parseCover(rn rawNames, faninCount int) (logic.Cover, error) {
	cover := logic.NewCover(faninCount)
	for _, row := range rn.cubes {
		fields := strings.Fields(row)
		var inPart, outPart string
		switch {
		case faninCount == 0 && len(fields) == 1:
			inPart, outPart = "", fields[0]
		case len(fields) == 2:
			inPart, outPart = fields[0], fields[1]
		default:
			return logic.Cover{}, fmt.Errorf("blif: line %d: malformed cover row %q", rn.line, row)
		}
		if len(inPart) != faninCount {
			return logic.Cover{}, fmt.Errorf("blif: line %d: cover row %q has %d columns, want %d",
				rn.line, row, len(inPart), faninCount)
		}
		if outPart == "0" {
			// OFF-set rows (complemented covers) are not supported; SIS
			// writes ON-set covers for combinational networks.
			return logic.Cover{}, fmt.Errorf("blif: line %d: OFF-set cover rows are not supported", rn.line)
		}
		if outPart != "1" {
			return logic.Cover{}, fmt.Errorf("blif: line %d: invalid output column %q", rn.line, outPart)
		}
		cube, err := logic.ParseCube(inPart)
		if err != nil {
			return logic.Cover{}, fmt.Errorf("blif: line %d: %v", rn.line, err)
		}
		cover.AddCube(cube)
	}
	// A .names with no rows is the constant 0; with one empty row and
	// output 1 it is the constant 1 (cover with a universal cube when
	// faninCount == 0 handled naturally above).
	return cover, nil
}

// WriteCore emits the arena-backed network as BLIF, internal nets in
// topological order with roots visited in creation order.
func WriteCore(w io.Writer, nw *netcore.Network) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", nw.Name)
	fmt.Fprintf(bw, ".inputs")
	for _, in := range nw.Inputs() {
		fmt.Fprintf(bw, " %s", nw.NetName(in))
	}
	fmt.Fprintln(bw)
	fmt.Fprintf(bw, ".outputs")
	for _, o := range nw.Outputs() {
		fmt.Fprintf(bw, " %s", nw.NetName(o))
	}
	fmt.Fprintln(bw)
	order, err := nw.TopoNets()
	if err != nil {
		return err
	}
	for _, n := range order {
		if nw.NetKind(n) != netcore.NetFunc {
			continue
		}
		fmt.Fprintf(bw, ".names")
		for _, f := range nw.NetFanins(n) {
			fmt.Fprintf(bw, " %s", nw.NetName(f))
		}
		fmt.Fprintf(bw, " %s\n", nw.NetName(n))
		for _, c := range nw.NetCover(n).Cubes {
			if len(c) == 0 {
				fmt.Fprintln(bw, "1")
			} else {
				fmt.Fprintf(bw, "%s 1\n", c)
			}
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// WriteCoreString is WriteCore to a string.
func WriteCoreString(nw *netcore.Network) (string, error) {
	var sb strings.Builder
	if err := WriteCore(&sb, nw); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// ParseString and WriteString are pointer-network bridges over the
// arena parser and writer, kept for perfbench/adapter.go until the next
// benchmark change.

// ParseString is ParseCoreString converted to a pointer network.
func ParseString(s string) (*network.Network, error) {
	nc, err := ParseCoreString(s)
	if err != nil {
		return nil, err
	}
	return nc.ToNetwork(), nil
}

// WriteString is WriteCoreString on a pointer network.
func WriteString(nw *network.Network) (string, error) {
	return WriteCoreString(netcore.FromNetwork(nw))
}
