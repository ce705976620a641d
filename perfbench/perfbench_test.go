package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// tinyOptions runs a workload at a size that finishes in seconds.
func tinyOptions(t *testing.T, workload string) options {
	o := defaultOptions()
	o.workload = workload
	o.seed = 1
	o.seconds = 1.5
	o.baseWindows = 60
	o.coldStarts = 3
	o.multiple = 40
	o.workDir = t.TempDir()
	o.traceDir = ""
	return o
}

func TestWorkloadsPassTheirChecks(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				o := tinyOptions(t, w.name)
				o.trace = traced
				if traced {
					o.traceDir = t.TempDir()
				}
				res, problems, err := run(o, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || len(problems) > 0 {
					t.Fatalf("checks failed: %v", problems)
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("attempted %d failed %d", res.Attempted, res.Failed)
				}
				want := specNames(t, traced)
				if len(res.Metrics) != len(want) {
					t.Errorf("run reports %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, n := range want {
					m, ok := res.Metrics[n]
					if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s missing or not finite: %+v", n, m)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
					}
				}
			})
		}
	}
}

// The checks must catch a broken program: each fault below fails the run.
func TestChecksCatchFaults(t *testing.T) {
	cases := []struct {
		fault, workload, want string
	}{
		{"drop-window", "eng-offline", "where frame 3 was due"},
		{"drop-window", "lt4-live", "events sent"},
		{"blind-system", "eng-offline", "below the floor"},
		{"blind-system", "eng-ledger", "first loop's boxes differ"},
		{"flip-store-byte", "eng-offline", "not clean"},
		{"slow-system", "lt4-live", "backlog grew"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.fault+"/"+c.workload, func(t *testing.T) {
			o := tinyOptions(t, c.workload)
			o.fault = c.fault
			res, problems, err := run(o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct {
				t.Fatal("run with a fault passed its checks")
			}
			if !strings.Contains(strings.Join(problems, "\n"), c.want) {
				t.Fatalf("no problem mentions %q: %v", c.want, problems)
			}
		})
	}
}

func TestSummaryMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	med, q1, q3 := summary(xs)
	if med != 5.5 || q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("summary = %v %v %v", med, q1, q3)
	}
}

func TestClosingBatches(t *testing.T) {
	rec, err := generate(workloads[2].presets[0], 1, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	for K := 0; K < 3*rec.nW; K++ {
		b := rec.closingBatch(K)
		end := int64(K+1) * frameUS
		if start := int64(b) * batchUS; start < end {
			t.Fatalf("window %d closed by batch %d starting at %d, before its end %d", K, b, start, end)
		}
		for B := (K + 1) * batchesPerFrame; B < b; B++ {
			if rec.batchLen(B) != 0 {
				t.Fatalf("window %d: batch %d holds events but batch %d was chosen", K, B, b)
			}
		}
		if rec.batchLen(b) == 0 {
			t.Fatalf("window %d closed by an empty batch", K)
		}
	}
}

// specNames returns the metric names BENCHMARK.json lists for a run's
// mode: the end-to-end ones untraced, the per-layer ones traced.
func specNames(t *testing.T, traced bool) []string {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	var names []string
	for _, m := range list {
		names = append(names, m.Name)
	}
	return names
}
