// Command benchgen emits the recreated MCNC benchmark circuits as BLIF.
//
//	benchgen -list            list all benchmarks with descriptions
//	benchgen comp             write comp.blif content to stdout
//	benchgen -dir out all     write every benchmark to out/<name>.blif
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"tels/internal/blif"
	"tels/internal/cli"
	"tels/internal/mcnc"
	"tels/internal/netcore"
)

func main() {
	var (
		list  = flag.Bool("list", false, "list available benchmarks")
		dir   = flag.String("dir", "", "write <name>.blif files into this directory")
		quiet = flag.Bool("q", false, "suppress informational diagnostics")
	)
	flag.Parse()
	t := cli.New("benchgen")
	t.Quiet = *quiet
	t.Fail(run(t, *list, *dir, flag.Args()))
}

func run(t *cli.Tool, list bool, dir string, args []string) error {
	if list {
		for _, bm := range mcnc.All() {
			nw := bm.Build()
			fmt.Printf("%-10s %3d in / %3d out / %4d gates  %s\n",
				bm.Name, len(nw.Inputs), len(nw.Outputs), nw.GateCount(), bm.Description)
		}
		return nil
	}
	if len(args) == 0 {
		return fmt.Errorf("no benchmark named (use -list to see them, or 'all')")
	}
	names := args
	if len(args) == 1 && args[0] == "all" {
		names = mcnc.Names()
	}
	for _, name := range names {
		bm, ok := mcnc.Get(name)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", name)
		}
		nw := netcore.FromNetwork(bm.Build())
		if dir == "" {
			if err := blif.WriteCore(os.Stdout, nw); err != nil {
				return err
			}
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, name+".blif")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := blif.WriteCore(f, nw); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		t.Infof("wrote %s", path)
	}
	return nil
}
