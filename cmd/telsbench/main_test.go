package main

import (
	"strings"
	"testing"
	"unicode"
)

func TestQuickCommands(t *testing.T) {
	// Exercise every experiment path end to end in quick mode; the
	// full-grid runs are covered by the expt package tests and the
	// repository benchmarks.
	for _, cmd := range []string{
		"table1", "fig10", "fig11", "fig12", "timing",
		"ablation", "heuristics", "weights", "seeds", "unate", "thresh",
	} {
		if err := run(cmd, 3, true, 2, 1, t.TempDir(), false); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
	}
}

func TestJSONCommands(t *testing.T) {
	// The four table/figure experiments emit JSON; everything else
	// rejects the flag.
	for _, cmd := range []string{"table1", "fig10", "fig11", "fig12"} {
		if err := run(cmd, 3, true, 2, 1, "", true); err != nil {
			t.Fatalf("%s -json: %v", cmd, err)
		}
	}
	for _, cmd := range []string{"timing", "unate", "all"} {
		if err := run(cmd, 3, true, 2, 1, "", true); err == nil {
			t.Fatalf("%s -json: expected an unsupported-flag error", cmd)
		}
	}
}

func TestUnknownCommand(t *testing.T) {
	err := run("wat", 3, true, 1, 1, "", false)
	if err == nil {
		t.Fatal("unknown command accepted")
	}
	// The message names every command the dispatcher accepts.
	named := make(map[string]bool)
	for _, w := range strings.FieldsFunc(err.Error(), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	}) {
		named[w] = true
	}
	for _, cmd := range []string{
		"table1", "fig10", "fig11", "fig12", "timing", "ablation",
		"heuristics", "unate", "weights", "seeds", "sweep", "resyn",
		"store", "cluster", "tenants", "thresh", "all",
	} {
		if !named[cmd] {
			t.Errorf("unknown-command message does not name %q: %v", cmd, err)
		}
	}
}

func TestTableSetQuickExcludesI10(t *testing.T) {
	for _, name := range tableSet(true) {
		if name == "i10" {
			t.Fatal("quick set must exclude i10")
		}
	}
	found := false
	for _, name := range tableSet(false) {
		if name == "i10" {
			found = true
		}
	}
	if !found {
		t.Fatal("full set must include i10")
	}
}
