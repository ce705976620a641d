// Command perfbench is the repository's end-to-end benchmark: it drives
// the tracker from event source to snapshot store on the paper's ENG and
// LT4 presets, checks that the outputs are correct, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload eng-offline --seed 1 --seconds 10 --trace 0
//	perfbench steady --workload lt4-live --runs 10 --seconds 10
//
// With --trace 1 the same workload runs through timing wrappers around
// every layer and the metrics are the per-layer ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench steady:", err)
			os.Exit(1)
		}
		return
	}
	opts := defaultOptions()
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	fs.StringVar(&opts.workload, "workload", "", "workload: eng-offline, eng-ledger or lt4-live")
	fs.Uint64Var(&opts.seed, "seed", 1, "seed of the generated recordings")
	fs.Float64Var(&opts.seconds, "seconds", opts.seconds, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
	fs.StringVar(&opts.workDir, "workdir", opts.workDir, "directory for the run's stores")
	fs.StringVar(&opts.traceDir, "tracedir", opts.traceDir, "directory for the span dump of a traced run")
	fs.Parse(os.Args[1:])
	opts.trace = *trace == 1
	res, problems, err := run(opts, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printMetrics writes the metrics as an aligned table.
func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-32s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// workPath returns a fresh per-run path under dir.
func workPath(dir, name string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-s%d-p%d", name, seed, os.Getpid()))
}
