package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// steady runs one workload N times in child processes, one seed each, and
// prints every metric's median, quartiles and spread — the distance
// between the quartiles as a share of the median, the figure the bounds
// in BENCHMARK.json are set from and checked against.
func steady(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "number of runs, seeds seed0 .. seed0+runs-1")
	seed0 := fs.Uint64("seed0", 1, "first seed")
	seconds := fs.String("seconds", "10", "measured seconds per run")
	trace := fs.String("trace", "0", "trace mode passed to each run")
	spec := fs.String("benchmark", "BENCHMARK.json", "file with the metric bounds (optional)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 1 {
		return fmt.Errorf("need at least one run")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := readBounds(*spec)
	values := map[string][]float64{}
	units := map[string]string{}
	var shares []string
	for i := 0; i < *runs; i++ {
		seed := *seed0 + uint64(i)
		cmd := exec.Command(self, "--workload", *workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", *seconds, "--trace", *trace)
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		b, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w\n%s", seed, err, b)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: last line: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: checks failed\n%s", seed, b)
		}
		shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		var row []string
		for n, m := range res.Metrics {
			values[n] = append(values[n], m.Value)
			units[n] = m.Unit
			row = append(row, fmt.Sprintf("%s=%.6g", n, m.Value))
		}
		sort.Strings(row)
		fmt.Fprintf(out, "run %d seed %d (%.1f s): %s\n", i+1, seed, time.Since(t0).Seconds(), strings.Join(row, " "))
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "\n%s, %d runs, failed/attempted %s\n", *workload, *runs, strings.Join(shares, " "))
	fmt.Fprintf(out, "%-32s %-6s %14s %14s %14s %8s %7s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound")
	for _, n := range names {
		med, q1, q3 := summary(values[n])
		spread := (q3 - q1) / math.Abs(med)
		b := "-"
		if v, ok := bounds[n]; ok {
			b = fmt.Sprintf("%.3f", v)
			if spread > v/3 && n != "setup_s" {
				b += " !"
			}
		}
		fmt.Fprintf(out, "%-32s %-6s %14.6g %14.6g %14.6g %8.4f %7s\n", n, units[n], med, q1, q3, spread, b)
	}
	return nil
}

// summary returns the median and the quartiles as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method) gives them.
func summary(xs []float64) (med, q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return medianF(d), q(1), q(3)
}

// readBounds loads the end-to-end bounds from BENCHMARK.json, if present.
func readBounds(path string) map[string]float64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
