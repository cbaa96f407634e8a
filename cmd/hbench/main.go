// Command hbench regenerates the HARNESS II experiment tables (DESIGN.md
// §3, fifteen IDs): the figure-scenarios and quantified design claims of
// the paper, plus the plane audits (telemetry E12, resilience E13/E13b,
// metacity macro-load E15, fleet E18, WAN data plane E19), printed as
// aligned text tables. E1, E3, E11, E14, E16 and E17 are retired: the
// benchmark/ workloads and the committed BENCH_*.json records measure
// what they did, and EXPERIMENTS.md points at each.
//
// Usage:
//
//	hbench                  # run every experiment with quick parameters
//	hbench -exp E2,E5       # selected experiments
//	hbench -full            # report-quality sweeps (slower)
//	hbench -short           # CI smoke sizes (seconds)
//	hbench -list            # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"harness2/internal/bench"
	"harness2/internal/profiling"
)

func main() {
	var (
		exps  = flag.String("exp", "all", "comma-separated experiment IDs (see -list) or 'all'")
		full  = flag.Bool("full", false, "run the full (report-quality) parameter sweeps")
		short = flag.Bool("short", false, "run CI smoke-sized sweeps (wins over -full)")
		list  = flag.Bool("list", false, "list experiment IDs and exit")

		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address while experiments run (empty = off)")
		pprofMutex = flag.Int("pprof-mutex", 5, "mutex profile fraction when -pprof is set (0 = off)")
		pprofBlock = flag.Int("pprof-block", 10000, "block profile rate in ns when -pprof is set (0 = off)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		addr, err := profiling.Serve(*pprofAddr, *pprofMutex, *pprofBlock)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hbench: -pprof: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("hbench: pprof at http://%s/debug/pprof/ (mutex 1/%d, block %dns)\n",
			addr, *pprofMutex, *pprofBlock)
	}

	if *list {
		for _, id := range bench.IDs() {
			fmt.Println(id)
		}
		return
	}
	ids := bench.IDs()
	if *exps != "all" {
		ids = strings.Split(*exps, ",")
	}
	p := bench.Params{Full: *full, Short: *short}
	failed := false
	for _, id := range ids {
		id = strings.TrimSpace(id)
		table, err := bench.Run(id, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hbench: %s: %v\n", id, err)
			failed = true
			continue
		}
		table.Fprint(os.Stdout)
	}
	if failed {
		os.Exit(1)
	}
}
