package main

import (
	"os"
	"path/filepath"
	"testing"
)

const testBlif = `
.model t
.inputs a b
.outputs f
.names a b f
11 1
.end
`

const testTLN = `
.tnet t
.inputs a b
.outputs f
.gate f = [T=2] +1*a +1*b
.end
`

const wrongTLN = `
.tnet t
.inputs a b
.outputs f
.gate f = [T=1] +1*a +1*b
.end
`

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// opts returns the flag defaults used by the subcommand tests.
func opts() options {
	return options{
		n: 4, seed: 1, v: 0.8, trials: 10,
		maxTrials: 200, eps: 0.02, model: "weight", p: 0.1,
	}
}

func TestInfoBoth(t *testing.T) {
	if err := run("info", []string{write(t, "t.blif", testBlif)}, opts()); err != nil {
		t.Fatal(err)
	}
	if err := run("info", []string{write(t, "t.tln", testTLN)}, opts()); err != nil {
		t.Fatal(err)
	}
}

func TestRunCommand(t *testing.T) {
	if err := run("run", []string{write(t, "t.tln", testTLN)}, opts()); err != nil {
		t.Fatal(err)
	}
	if err := run("run", []string{write(t, "t.blif", testBlif)}, opts()); err != nil {
		t.Fatal(err)
	}
}

func TestCompareCommand(t *testing.T) {
	golden := write(t, "t.blif", testBlif)
	good := write(t, "good.tln", testTLN)
	bad := write(t, "bad.tln", wrongTLN)
	if err := run("compare", []string{golden, good}, opts()); err != nil {
		t.Fatal(err)
	}
	if err := run("compare", []string{golden, bad}, opts()); err == nil {
		t.Fatal("OR gate accepted as AND implementation")
	}
}

func TestPerturbCommand(t *testing.T) {
	golden := write(t, "t.blif", testBlif)
	impl := write(t, "good.tln", testTLN)
	o := opts()
	o.trials = 5
	if err := run("perturb", []string{golden, impl}, o); err != nil {
		t.Fatal(err)
	}
}

func TestFaultsCommand(t *testing.T) {
	if err := run("faults", []string{write(t, "t.tln", testTLN)}, opts()); err != nil {
		t.Fatal(err)
	}
	if err := run("faults", []string{write(t, "t.blif", testBlif)}, opts()); err == nil {
		t.Fatal("faults on a BLIF network should be rejected")
	}
}

func TestYieldCommand(t *testing.T) {
	golden := write(t, "t.blif", testBlif)
	impl := write(t, "good.tln", testTLN)
	for _, model := range []string{"weight", "drift", "stuck"} {
		o := opts()
		o.model = model
		if err := run("yield", []string{golden, impl}, o); err != nil {
			t.Fatalf("%s: %v", model, err)
		}
	}
	o := opts()
	o.model = "cosmic-ray"
	if err := run("yield", []string{golden, impl}, o); err == nil {
		t.Fatal("unknown defect model accepted")
	}
	// The ranges telsd refuses at submit are refused here too.
	o = opts()
	o.v = -1
	if err := run("yield", []string{golden, impl}, o); err == nil {
		t.Fatal("negative -v accepted")
	}
	o = opts()
	o.model, o.p = "stuck", 2
	if err := run("yield", []string{golden, impl}, o); err == nil {
		t.Fatal("-p above 1 accepted")
	}
}

func TestDotCommand(t *testing.T) {
	if err := run("dot", []string{write(t, "t.tln", testTLN)}, opts()); err != nil {
		t.Fatal(err)
	}
	if err := run("dot", []string{write(t, "t.blif", testBlif)}, opts()); err == nil {
		t.Fatal("dot of a BLIF network should be rejected")
	}
}

func TestBadUsage(t *testing.T) {
	cases := [][2]string{
		{"info", ""},
		{"wat", ""},
		{"compare", "one-arg-only"},
		{"yield", "one-arg-only"},
		{"faults", ""},
	}
	for _, c := range cases {
		var args []string
		if c[1] != "" {
			args = []string{c[1]}
		}
		if err := run(c[0], args, opts()); err == nil {
			t.Errorf("command %q with args %v accepted", c[0], args)
		}
	}
	if err := run("info", []string{"/nonexistent.tln"}, opts()); err == nil {
		t.Error("missing file accepted")
	}
}
