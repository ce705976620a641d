package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ebbiot/internal/core"
	"ebbiot/internal/dataset"
	"ebbiot/internal/events"
	"ebbiot/internal/ingest"
	"ebbiot/internal/pipeline"
	"ebbiot/internal/store"
)

// workload describes one named benchmark workload.
type workload struct {
	name    string
	presets []dataset.Preset // one per stream
	socket  bool             // streams cross loopback TCP
	live    bool             // open loop at a fixed multiple of real time
	workers int
	// mainShare is the share of --seconds given to the timed source ->
	// store phase and readShare the share given to the audit's repeated,
	// timed replay and Verify; the rest is left for generating the inputs,
	// the cold starts and the checks.
	mainShare, readShare float64
	// The closed loops run a fixed amount of work, so that what the
	// program keeps per stored record (the store's sparse index) weighs
	// the same in every run: stream i gets share[i] of the main phase at
	// nominalUS[i] microseconds per window, the worker time one window
	// took on the reference box (2 vCPUs, see README.md). A faster or
	// slower program finishes sooner or later, but a run stops past
	// overrun times the main phase, so that its length stays bounded.
	share     []float64
	nominalUS []float64
}

var workloads = []workload{
	// eng-offline is the single-threaded baseline: one worker runs the
	// streams one after the other.
	{name: "eng-offline", presets: []dataset.Preset{dataset.ENG, dataset.LT4}, workers: 1,
		mainShare: 0.8, readShare: 0.05, share: []float64{0.75, 0.25}, nominalUS: []float64{60, 36}},
	{name: "eng-ledger", presets: []dataset.Preset{dataset.ENG, dataset.ENG}, socket: true, workers: 2,
		mainShare: 0.85, readShare: 0.05, share: []float64{1, 1}, nominalUS: []float64{250, 250}},
	{name: "lt4-live", presets: []dataset.Preset{dataset.LT4, dataset.LT4}, socket: true, live: true, workers: 2,
		mainShare: 0.9, readShare: 0.05},
}

// overrun is how far past its share of --seconds a closed loop's main
// phase may run before its sources end the streams.
const overrun = 1.25

// windows is how many windows stream i runs in a closed-loop main phase
// of dur (at least one base loop).
func (w workload) windows(i int, dur time.Duration, nW int) int {
	n := int(dur.Seconds() * w.share[i] * 1e6 / w.nominalUS[i])
	if n < nW {
		n = nW
	}
	return n
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// options are one run's settings; the tests shrink the sizes.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// baseWindows is the length of each base loop in frame windows.
	baseWindows int
	// coldStarts is how many times set-up is timed; the median is reported.
	coldStarts int
	// multiple is lt4-live's speed relative to real time.
	multiple float64
	// workDir holds the run's stores; traceDir receives the span dump
	// ("" skips it).
	workDir  string
	traceDir string
	// fault injects a defect the checks must catch: "drop-window",
	// "blind-system", "slow-system" or "flip-store-byte".
	fault string
}

func defaultOptions() options {
	return options{seconds: 10, baseWindows: 300, coldStarts: 101, multiple: 10,
		workDir: filepath.Join(".bench_build", "work"), traceDir: filepath.Join(".bench_build", "trace")}
}

// streamSeed derives stream i's sensor seed from the run seed. The
// traffic scene of stream i is fixed (scene seed i+1): over a 20 s loop
// the random traffic alone moves a preset's event count by +-13% and its
// tracked boxes threefold from seed to seed, which would swamp every
// bound; the seed instead draws the sensor's events — noise, object
// edges, refractory drops — over the same traffic.
func streamSeed(seed uint64, i int) uint64 { return seed*7919 + uint64(i)*104729 + 1 }

func sceneSeed(i int) uint64 { return uint64(i + 1) }

func streamNames(w workload) []string {
	names := make([]string, len(w.presets))
	for i, p := range w.presets {
		names[i] = fmt.Sprintf("%s-%d", p, i)
	}
	return names
}

// env is the program as set up for one run: systems, store writer,
// Runner and, on the socket workloads, the ingest server with one
// connected sender per stream.
type env struct {
	dir     string
	systems []*core.EBBIOT
	writer  *store.Writer
	runner  *pipeline.Runner
	server  *ingest.Server
	dials   []*ingest.DialSink
}

// coldStart builds the program from nothing until it is ready for events
// and returns how long that took, and how long the store Open took.
func coldStart(w workload, dir string) (*env, time.Duration, time.Duration, error) {
	t0 := time.Now()
	e := &env{dir: dir}
	for _, p := range w.presets {
		sys, err := newSystem(p)
		if err != nil {
			e.teardown()
			return nil, 0, 0, err
		}
		e.systems = append(e.systems, sys)
	}
	o0 := time.Now()
	wr, err := store.Open(dir, store.Options{})
	open := time.Since(o0)
	if err != nil {
		e.teardown()
		return nil, 0, 0, err
	}
	e.writer = wr
	if e.runner, err = pipeline.NewRunner(pipeline.Config{FrameUS: frameUS, Workers: w.workers}); err != nil {
		e.teardown()
		return nil, 0, 0, err
	}
	if w.socket {
		names := streamNames(w)
		if e.server, err = ingest.Listen("127.0.0.1:0", ingest.ServerConfig{Streams: names, Res: events.DAVIS240}); err != nil {
			e.teardown()
			return nil, 0, 0, err
		}
		for _, n := range names {
			d, err := ingest.Dial(e.server.Addr().String(), ingest.DialConfig{
				StreamID: n, Res: events.DAVIS240,
				// A failed run must not leave a sender retrying for long.
				ResumeRetries: 1, ResumeBackoff: 10 * time.Millisecond,
			})
			if err != nil {
				e.teardown()
				return nil, 0, 0, err
			}
			e.dials = append(e.dials, d)
		}
	}
	return e, time.Since(t0), open, nil
}

// teardown releases whatever the env still holds. Safe to call twice.
func (e *env) teardown() {
	for _, d := range e.dials {
		d.Close()
	}
	e.dials = nil
	if e.server != nil {
		e.server.Close()
		e.server = nil
	}
	if e.writer != nil {
		e.writer.Close()
		e.writer = nil
	}
	for _, s := range e.systems {
		s.Close()
	}
	e.systems = nil
}

// setupResult is the outcome of the timed cold starts.
type setupResult struct {
	env       *env
	setupS    float64 // median cold start
	storeOpen float64 // median store Open, seconds
}

// setUp times opts.coldStarts cold starts and keeps the last one running.
func setUp(w workload, opts options, dir string) (setupResult, error) {
	n := opts.coldStarts
	if n < 1 {
		n = 1
	}
	var starts, opens []float64
	var e *env
	for i := 0; i < n; i++ {
		d := dir
		if i < n-1 {
			d = fmt.Sprintf("%s-cold%d", dir, i)
		}
		env, took, open, err := coldStart(w, d)
		if err != nil {
			return setupResult{}, fmt.Errorf("set-up: %w", err)
		}
		starts = append(starts, took.Seconds())
		opens = append(opens, open.Seconds())
		if i < n-1 {
			env.teardown()
			os.RemoveAll(d)
		} else {
			e = env
		}
	}
	return setupResult{env: e, setupS: medianF(starts), storeOpen: medianF(opens)}, nil
}

// genStats is one sender's account of a socket run.
type genStats struct {
	batches, events int64
	sendNs, fillNs  int64
	late            []int64 // ns the timer woke past each due time (live)
	closeDur        time.Duration
	err             error
}

// send streams rec over d, batch by batch: the given number of batches
// back to back on the closed loop (ending early past stopAt, on a window
// boundary after the first loop), or on a fixed schedule of one batch every periodNs
// (starting phaseNs after t0) until the deadline on the open loop. Each window is stamped when the batch that closes it is due
// (or, when the timer woke late on its own, when it woke), so a Send held
// up by backpressure counts as latency; on the closed loop the stamp is
// the start of the Send.
func send(d *ingest.DialSink, rec *recording, stamps *stampRing, live bool, t0, periodNs, phaseNs, deadline, stopAt int64, batches int, traced bool, gs *genStats) {
	buf := make([]events.Event, 0, maxBatch(rec))
	nextK := 0
	for B := 0; live || B < batches; B++ {
		var start int64
		if live {
			due := t0 + phaseNs + int64(B+1)*periodNs
			if due > deadline {
				break
			}
			if now := nanotime(); now < due {
				time.Sleep(time.Duration(due - now))
				start = nanotime()
				if len(gs.late) < cap(gs.late) {
					gs.late = append(gs.late, start-due)
				}
			} else {
				start = due
			}
		} else {
			start = nanotime()
			if B >= rec.nBatches() && B%batchesPerFrame == 0 && start > stopAt {
				break
			}
		}
		f0 := start
		if traced {
			f0 = nanotime()
		}
		buf = rec.appendBatch(buf[:0], B)
		s0 := f0
		if traced {
			s0 = nanotime()
			gs.fillNs += s0 - f0
		}
		for rec.closingBatch(nextK) <= B {
			stamps.set(nextK, start)
			nextK++
		}
		if err := d.Send(buf); err != nil {
			gs.err = fmt.Errorf("send batch %d: %w", B, err)
			return
		}
		if err := d.Flush(); err != nil {
			gs.err = fmt.Errorf("flush batch %d: %w", B, err)
			return
		}
		if traced {
			gs.sendNs += nanotime() - s0
		}
		gs.batches++
		gs.events += int64(len(buf))
	}
	c0 := time.Now()
	if err := d.Close(); err != nil {
		gs.err = fmt.Errorf("close: %w", err)
	}
	gs.closeDur = time.Since(c0)
}

func maxBatch(rec *recording) int {
	m := 0
	for b := 0; b < rec.nBatches(); b++ {
		if n := rec.batchLen(b); n > m {
			m = n
		}
	}
	return m
}

// mainResult is the timed socket -> store phase of one run.
type mainResult struct {
	windows, events, batches int64
	elapsed                  time.Duration // Run start to store closed and durable
	runElapsed               time.Duration
	cpu                      time.Duration
	alloc                    uint64
	heap                     int64
	storeClose               time.Duration
	stages                   core.StageTimings
	gens                     []*genStats
	loops                    []*loopSource
	srcStats                 []pipeline.SourceStats
}

// runMain drives the set-up program through the workload for dur and
// closes the store. heapBase is the live heap the benchmark's own inputs
// hold, subtracted from the program's.
func runMain(w workload, opts options, recs []*recording, e *env, sink *benchSink, tr *tracer, dur time.Duration, heapBase int64) (mainResult, error) {
	var res mainResult
	names := streamNames(w)
	streams := make([]pipeline.Stream, len(recs))
	var inner pipeline.Sink = pipeline.NewStoreSink(e.writer)
	if opts.fault == "drop-window" {
		inner = &dropSink{Sink: inner, frame: 3}
	}
	sink.inner = inner
	sink.tr = tr
	for i, rec := range recs {
		var src pipeline.EventSource
		if w.socket {
			src = e.server.Source(names[i])
		} else {
			ls := &loopSource{rec: rec, stamps: &sink.ledgers[i].stamps, limit: w.windows(i, dur, rec.nW)}
			res.loops = append(res.loops, ls)
			src = ls
		}
		var sys core.System = e.systems[i]
		switch opts.fault {
		case "blind-system":
			sys = blindSystem{sys}
		case "slow-system":
			sys = slowSystem{sys}
		}
		if tr != nil {
			st := tr.streams[i]
			src = traceSource(src, st)
			sys = &tracedSystem{inner: sys, st: st}
		}
		streams[i] = pipeline.Stream{Name: names[i], Source: src, System: sys}
	}

	var expected int64
	for i, rec := range recs {
		if w.live {
			expected += int64(dur.Seconds() * opts.multiple / (frameUS / 1e6))
		} else {
			expected += int64(w.windows(i, dur, rec.nW))
		}
	}

	cpu0, alloc0 := cpuNow(), totalAlloc()
	t0 := nanotime()
	sink.heap.start(expected)
	deadline := t0 + int64(dur)
	stopAt := t0 + int64(float64(dur)*overrun)
	for _, ls := range res.loops {
		ls.stopAt = stopAt
	}
	done := make(chan struct{}, len(recs))
	if w.socket {
		for i, rec := range recs {
			gs := &genStats{}
			var period, phase int64
			var batches int
			if w.live {
				period = int64(float64(batchUS) * 1e3 / opts.multiple)
				phase = period * int64(i) / int64(len(recs))
				gs.late = make([]int64, 0, int(dur)/int(period)+2)
			} else {
				batches = w.windows(i, dur, rec.nW) * batchesPerFrame
			}
			res.gens = append(res.gens, gs)
			go func(d *ingest.DialSink, rec *recording, l *ledger) {
				defer func() { done <- struct{}{} }()
				send(d, rec, &l.stamps, w.live, t0, period, phase, deadline, stopAt, batches, tr != nil, gs)
			}(e.dials[i], rec, sink.ledgers[i])
		}
	}
	stats, runErr := e.runner.Run(context.Background(), streams, sink)
	if runErr != nil && w.socket {
		// Unblock senders still waiting on a pipeline that stopped.
		e.server.Close()
	}
	for range res.gens {
		<-done
	}
	t1 := nanotime()
	cpu1, alloc1 := cpuNow(), totalAlloc()
	if runErr != nil {
		return res, fmt.Errorf("run: %w", runErr)
	}
	for _, gs := range res.gens {
		if gs.err != nil {
			return res, gs.err
		}
		res.batches += gs.batches
	}
	if w.socket {
		for _, n := range names {
			res.srcStats = append(res.srcStats, e.server.Source(n).SourceStats())
		}
	}
	res.heap = sink.heap.median() - heapBase
	c0, cpuC0, allocC0 := time.Now(), cpuNow(), totalAlloc()
	err := e.writer.Close()
	res.storeClose = time.Since(c0)
	e.writer = nil
	if err != nil {
		return res, fmt.Errorf("store close: %w", err)
	}
	res.runElapsed = time.Duration(t1 - t0)
	res.elapsed = res.runElapsed + res.storeClose
	res.cpu = cpu1 - cpu0 + cpuNow() - cpuC0
	res.alloc = alloc1 - alloc0 + totalAlloc() - allocC0
	res.windows, res.events = stats.Windows, stats.Events
	for _, s := range e.systems {
		res.stages = res.stages.Add(s.StageTimings())
	}
	if opts.fault == "flip-store-byte" {
		if err := flipByte(e.dir); err != nil {
			return res, err
		}
	}
	return res, nil
}

// flipByte corrupts one byte in the middle of the store's first segment.
func flipByte(dir string) error {
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		return fmt.Errorf("flip: no segment in %s", dir)
	}
	sort.Strings(segs)
	b, err := os.ReadFile(segs[0])
	if err != nil {
		return err
	}
	b[len(b)/2] ^= 0x40
	return os.WriteFile(segs[0], b, 0o644)
}
