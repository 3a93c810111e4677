package algebra

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"tels/internal/logic"
)

// decodeDivision reads a dividend and a divisor from fuzz bytes. Byte 0
// is a flag: bit 0 moves every variable up by 2^16, so every literal lies
// past 65 536. Each later byte is a literal (bits 0–2 the variable, bit 3
// the phase, bit 4 adds 2^15 to the variable, so a literal and the one
// 65 536 above it both occur), 0xfe ends a cube and 0xff ends the
// dividend. Cubes are sorted and duplicate-free, expressions hold
// distinct cubes, at most 8 of them.
func decodeDivision(data []byte) (e, d Expr) {
	if len(data) == 0 {
		return nil, nil
	}
	shift := 0
	if data[0]&1 != 0 {
		shift = 1 << 16
	}
	exprs := [2]Expr{}
	seen := [2]map[string]bool{{}, {}}
	side := 0
	var cube Cube
	flush := func() {
		if cube == nil {
			return
		}
		sort.Slice(cube, func(i, j int) bool { return cube[i] < cube[j] })
		uniq := cube[:0]
		for i, l := range cube {
			if i == 0 || l != cube[i-1] {
				uniq = append(uniq, l)
			}
		}
		if k := fmt.Sprint(uniq); !seen[side][k] && len(exprs[side]) < 8 {
			seen[side][k] = true
			exprs[side] = append(exprs[side], uniq)
		}
		cube = nil
	}
	for _, b := range data[1:] {
		switch {
		case b == 0xfe:
			flush()
		case b == 0xff:
			flush()
			side = 1
		default:
			v := int(b&7) + int(b>>4&1)<<15 + shift
			ph := logic.Pos
			if b&8 != 0 {
				ph = logic.Neg
			}
			cube = append(cube, MakeLit(v, ph))
		}
	}
	flush()
	return exprs[0], exprs[1]
}

// cubeSet is an expression as a set of printed cubes, independent of
// Compare and of the cube order.
func cubeSet(e Expr) map[string]bool {
	s := make(map[string]bool, len(e))
	for _, c := range e {
		s[fmt.Sprint(c)] = true
	}
	return s
}

// FuzzWeakDiv checks that WeakDiv's quotient is the cube set common to
// e's quotients by each cube of d, that q·d and r split e exactly, and
// that q is empty whenever a literal of d occurs nowhere in e (the
// premise of the resub support filter). It also checks Kernels(e): every
// kernel is cube-free and is e divided by its co-kernel, made cube-free,
// no two kernels hold the same cubes, and they come in ascending Compare
// order.
func FuzzWeakDiv(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		e, d := decodeDivision(data)
		q, r := WeakDiv(e, d)
		var common map[string]bool
		for i, dc := range d {
			qi, _ := e.DivideByCube(dc)
			set := cubeSet(qi)
			if i == 0 {
				common = set
				continue
			}
			for c := range common {
				if !set[c] {
					delete(common, c)
				}
			}
		}
		if got := cubeSet(q); len(got) != len(q) || len(got) != len(common) {
			t.Fatalf("e=%v d=%v: q=%v, want the cubes %v", e, d, q, common)
		} else {
			for c := range got {
				if !common[c] {
					t.Fatalf("e=%v d=%v: q=%v, want the cubes %v", e, d, q, common)
				}
			}
		}

		product := make(map[string]bool)
		for _, qc := range q {
			for _, dc := range d {
				product[fmt.Sprint(cubeUnion(qc, dc))] = true
			}
		}
		for c := range cubeSet(r) {
			if product[c] {
				t.Fatalf("e=%v d=%v: remainder %v shares cube %s with q·d (q=%v)", e, d, r, c, q)
			}
		}
		rebuilt := cubeSet(r)
		for c := range product {
			rebuilt[c] = true
		}
		want := cubeSet(e)
		if len(rebuilt) != len(want) {
			t.Fatalf("e=%v d=%v: q·d ∪ r has %d cubes, e has %d (q=%v r=%v)", e, d, len(rebuilt), len(want), q, r)
		}
		for c := range rebuilt {
			if !want[c] {
				t.Fatalf("e=%v d=%v: q·d ∪ r has cube %s not in e (q=%v r=%v)", e, d, c, q, r)
			}
		}

		inE := make(map[Lit]bool)
		for _, c := range e {
			for _, l := range c {
				inE[l] = true
			}
		}
		for _, c := range d {
			for _, l := range c {
				if !inE[l] && len(q) != 0 {
					t.Fatalf("e=%v d=%v: literal %d of d is not in e, yet q=%v", e, d, l, q)
				}
			}
		}

		ks := Kernels(e)
		seen := make(map[string]bool, len(ks))
		for i, k := range ks {
			if !k.Expr.IsCubeFree() {
				t.Fatalf("e=%v: kernel %v is not cube-free", e, k.Expr)
			}
			if !slices.IsSortedFunc(k.Expr, slices.Compare[Cube]) {
				t.Fatalf("e=%v: kernel %v is not in ascending cube order", e, k.Expr)
			}
			kq, _ := e.DivideByCube(k.CoKernel)
			if want := sorted(kq.MakeCubeFree()); Compare(want, k.Expr) != 0 {
				t.Fatalf("e=%v: kernel %v with co-kernel %v is not the cube-free quotient %v", e, k.Expr, k.CoKernel, want)
			}
			if key := fmt.Sprint(k.Expr); seen[key] {
				t.Fatalf("e=%v: kernel %v listed twice", e, k.Expr)
			} else {
				seen[key] = true
			}
			if i > 0 && Compare(ks[i-1].Expr, k.Expr) >= 0 {
				t.Fatalf("e=%v: kernel %v does not sort after %v", e, k.Expr, ks[i-1].Expr)
			}
		}
	})
}
