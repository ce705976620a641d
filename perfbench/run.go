package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// backlogWindows is how many frame periods (tF at the run's multiple of
// real time) the lt4-live lag may gain between the first and the last
// quarter of a run before the run fails: the program is then not keeping
// up with the feed, and its backlog — held in the NetSource queue, the
// socket and the sender's replay ring — grows for as long as the run lasts.
const backlogWindows = 2

// run executes one benchmark run and returns its result line, the output
// checks that failed, and any error that stopped the run.
func run(opts options, out io.Writer) (result, []string, error) {
	w, err := findWorkload(opts.workload)
	if err != nil {
		return result{}, nil, err
	}
	if opts.seconds <= 0 || opts.baseWindows < 1 {
		return result{}, nil, fmt.Errorf("bad sizes: %v s, %d windows", opts.seconds, opts.baseWindows)
	}
	if err := os.MkdirAll(opts.workDir, 0o755); err != nil {
		return result{}, nil, err
	}
	dir := workPath(opts.workDir, w.name, opts.seed)
	defer func() {
		paths, _ := filepath.Glob(dir + "*")
		for _, p := range paths {
			os.RemoveAll(p)
		}
	}()

	g0 := time.Now()
	recs := make([]*recording, len(w.presets))
	for i, p := range w.presets {
		if recs[i], err = generate(p, sceneSeed(i), streamSeed(opts.seed, i), opts.baseWindows); err != nil {
			return result{}, nil, err
		}
	}
	fmt.Fprintf(out, "perfbench %s seed %d: %d streams, base loop %d windows (%.2f s), generated in %v\n",
		w.name, opts.seed, len(recs), opts.baseWindows, float64(opts.baseWindows)*frameUS/1e6, time.Since(g0).Round(time.Millisecond))
	for _, r := range recs {
		fmt.Fprintf(out, "  %s seed %d: %d events per loop, %d ground-truth tracks\n", r.preset, r.seed, r.events, r.scene.TrackCount())
	}

	mainDur := time.Duration(opts.seconds * w.mainShare * float64(time.Second))
	auditDur := time.Duration(opts.seconds * w.readShare * float64(time.Second))
	names := streamNames(w)
	capW := 4096
	for i := range recs {
		if w.live {
			capW += int(mainDur.Seconds() * opts.multiple / (frameUS / 1e6))
		} else {
			capW += w.windows(i, mainDur, opts.baseWindows)
		}
	}

	// The traced mode first runs a third of the main phase untraced, so
	// the tracing overhead is measured against the same run length.
	var untracedCPU float64
	if opts.trace {
		calib := mainDur / 3
		mainDur -= calib
		sink := newBenchSink(nil, opts.baseWindows, names, capW)
		heapBase := liveHeap()
		c := opts
		c.coldStarts = 1
		su, err := setUp(w, c, dir+"-calib")
		if err != nil {
			return result{}, nil, err
		}
		m, err := runMain(w, c, recs, su.env, sink, nil, calib, heapBase)
		su.env.teardown()
		if err != nil {
			return result{}, nil, err
		}
		untracedCPU = m.cpu.Seconds() * 1e6 / float64(m.windows)
	}

	sink := newBenchSink(nil, opts.baseWindows, names, capW)
	var tr *tracer
	if opts.trace {
		tr = newTracer(len(recs))
	}
	heapBase := liveHeap()
	su, err := setUp(w, opts, dir)
	if err != nil {
		return result{}, nil, err
	}
	defer su.env.teardown()
	m, err := runMain(w, opts, recs, su.env, sink, tr, mainDur, heapBase)
	if err != nil {
		return result{}, nil, err
	}

	// Output checks on the write side.
	problems := append([]string(nil), sink.problems...)
	sent := make([]int64, len(recs))
	for i := range recs {
		if w.socket {
			sent[i] = m.gens[i].events
			ss := m.srcStats[i]
			if ss.Events != sent[i] || ss.Batches != m.gens[i].batches {
				problems = append(problems, fmt.Sprintf("%s: sent %d events in %d batches, source accepted %d in %d",
					names[i], sent[i], m.gens[i].batches, ss.Events, ss.Batches))
			}
			if ss.DroppedEvents != 0 || ss.DroppedBatches != 0 || ss.DupBatches != 0 || ss.SeqGaps != 0 || ss.Faults != 0 {
				problems = append(problems, fmt.Sprintf("%s: source dropped %d events (%d batches), %d duplicate batches, %d gaps, %d faults (%s)",
					names[i], ss.DroppedEvents, ss.DroppedBatches, ss.DupBatches, ss.SeqGaps, ss.Faults, ss.LastError))
			}
		} else {
			sent[i] = m.loops[i].events
		}
		l := sink.ledgers[i]
		if l.windows < int64(opts.baseWindows) {
			problems = append(problems, fmt.Sprintf("%s: only %d windows, less than one loop", names[i], l.windows))
			continue
		}
		ref, err := referenceFirstLoop(recs[i])
		if err != nil {
			return result{}, nil, err
		}
		if uint64(l.firstLoop) != ref {
			problems = append(problems, fmt.Sprintf("%s: first loop's boxes differ from an in-process pass over the same events", names[i]))
		}
	}
	if w.live {
		period := frameUS * 1e3 / opts.multiple
		if g := growth(sink.lat); g > backlogWindows*period {
			problems = append(problems, fmt.Sprintf("backlog grew: lag rose by %.1f ms over the run (limit %.1f ms)",
				g/1e6, backlogWindows*period/1e6))
		}
	}
	su.env.teardown()

	a0 := time.Now()
	a := audit(dir, recs, sink.ledgers, sent, opts.seed, auditDur)
	fmt.Fprintf(out, "  main phase %v, audit %v\n", m.elapsed.Round(time.Millisecond), time.Since(a0).Round(time.Millisecond))
	problems = append(problems, a.problems...)
	for i, n := range names {
		if i < len(a.quality) {
			fmt.Fprintf(out, "  %s: %d windows, %d events, precision %.3f recall %.3f at IoU > %.1f\n",
				n, sink.ledgers[i].windows, sent[i], a.quality[i].Precision(), a.quality[i].Recall(), scoreIoU)
		}
	}
	fmt.Fprintf(out, "  pooled: precision %.3f recall %.3f (floor %.2f/%.2f)\n",
		a.pooled.Precision(), a.pooled.Recall(), floorPrecision, floorRecall)

	lat := quantile(sink.lat, 0.5) / 1e3
	p99 := quantile(sink.lat, 0.99) / 1e3
	win := float64(m.windows)
	fmt.Fprintf(out, "  latency p50 %.1f us, p99 %.1f us over %d windows; %d batches; store %d records, %d bytes\n",
		lat, p99, len(sink.lat), m.batches, a.records, a.dataBytes)
	fmt.Fprintf(out, "  read side: replay %.0f records/s, verify %.1f MB/s (medians of the timed passes)\n",
		a.replayPerS, a.verifyMBPerS)

	res := result{Correct: len(problems) == 0, Attempted: m.windows + m.batches + a.records + a.replayRecords}
	if !opts.trace {
		res.Metrics = map[string]metric{
			"setup_s":                {su.setupS, "s"},
			"events_per_s":           {float64(m.events) / m.elapsed.Seconds(), "1/s"},
			"cpu_us_per_window":      {m.cpu.Seconds() * 1e6 / win, "us"},
			"alloc_bytes_per_window": {float64(m.alloc) / win, "B"},
			"heap_bytes":             {float64(m.heap), "B"},
		}
		printMetrics(out, res.Metrics)
		return res, problems, nil
	}
	res.Metrics = layerMetrics(w, m, su, a, sink, tr, untracedCPU, out)
	res.Metrics["latency_p50_us"] = metric{lat, "us"}
	res.Metrics["latency_p99_us"] = metric{p99, "us"}
	res.Metrics["latency_samples"] = metric{float64(len(sink.lat)), "count"}
	printMetrics(out, res.Metrics)
	if opts.traceDir != "" {
		if err := dumpSpans(opts.traceDir, w.name, opts.seed, tr); err != nil {
			return result{}, nil, err
		}
	}
	return res, problems, nil
}

// growth is how much the median of the last quarter of xs exceeds the
// median of the first.
func growth(xs []int64) float64 {
	q := len(xs) / 4
	if q == 0 {
		return 0
	}
	first := append([]int64(nil), xs[:q]...)
	last := append([]int64(nil), xs[len(xs)-q:]...)
	return quantile(last, 0.5) - quantile(first, 0.5)
}

// layerMetrics derives the per-layer metrics of a traced run and prints
// the worker-path reconciliation.
func layerMetrics(w workload, m mainResult, su setupResult, a auditResult, sink *benchSink, tr *tracer, untracedCPU float64, out io.Writer) map[string]metric {
	win := float64(m.windows)
	var srcNs, procNs, gapNs, backlogMax int64
	for _, st := range tr.streams {
		// Dispatch is the worker's time around the two calls: the
		// Windower's checks before ProcessWindow, and the snapshot, status
		// and fan-in send after it, up to the next source call.
		for i, sp := range st.spans {
			srcNs += sp.srcEnd - sp.srcStart
			procNs += sp.procEnd - sp.procStart
			gapNs += sp.procStart - sp.srcEnd
			if i+1 < len(st.spans) {
				gapNs += st.spans[i+1].srcStart - sp.procEnd
			}
		}
		if st.backlogMax > backlogMax {
			backlogMax = st.backlogMax
		}
	}
	var appendNs int64
	handoffs := make([]int64, 0, len(tr.sink))
	for _, sp := range tr.sink {
		appendNs += sp.end - sp.appendStart
		handoffs = append(handoffs, sp.handoff)
	}
	var sendNs, fillNs, batches int64
	var late []int64
	var closes []float64
	for _, g := range m.gens {
		sendNs += g.sendNs
		fillNs += g.fillNs
		batches += g.batches
		late = append(late, g.late...)
		closes = append(closes, g.closeDur.Seconds()*1e3)
	}
	perWin := func(ns int64) float64 { return float64(ns) / 1e3 / win }
	st := m.stages
	stageUS := func(d time.Duration) float64 { return d.Seconds() * 1e6 / float64(st.Windows) }
	cpuPerWin := m.cpu.Seconds() * 1e6 / win
	ms := map[string]metric{
		"ingest.send_us_per_batch":        {0, "us"},
		"ingest.close_ms":                 {0, "ms"},
		"ingest.wait_us_per_window":       {0, "us"},
		"ingest.backlog_batches_max":      {float64(backlogMax), "count"},
		"pipeline.handoff_us_p50":         {quantile(handoffs, 0.5) / 1e3, "us"},
		"pipeline.dispatch_us_per_window": {perWin(gapNs), "us"},
		"core.process_us_per_window":      {perWin(procNs), "us"},
		"core.skipped_windows":            {float64(st.Skipped), "count"},
		"ebbi.latch_us_per_window":        {stageUS(st.EBBI), "us"},
		"imgproc.median_us_per_window":    {stageUS(st.Filter), "us"},
		"rpn.propose_us_per_window":       {stageUS(st.RPN), "us"},
		"tracker.step_us_per_window":      {stageUS(st.Track), "us"},
		"store.open_ms":                   {su.storeOpen * 1e3, "ms"},
		"store.append_us_per_window":      {perWin(appendNs), "us"},
		"store.close_ms":                  {m.storeClose.Seconds() * 1e3, "ms"},
		"store.bytes_per_window":          {float64(a.dataBytes) / float64(a.records), "B"},
		"store.replay_us_per_record":      {a.replayUSPerRec, "us"},
		"store.verify_ms":                 {a.verifyMS, "ms"},
		"gen.late_us_p50":                 {0, "us"},
		"gen.source_us_per_window":        {perWin(fillNs), "us"},
		"trace.overhead_pct":              {100 * (cpuPerWin - untracedCPU) / untracedCPU, "%"},
	}
	if w.socket {
		ms["ingest.send_us_per_batch"] = metric{float64(sendNs) / 1e3 / float64(batches), "us"}
		ms["ingest.close_ms"] = metric{medianF(closes), "ms"}
		ms["ingest.wait_us_per_window"] = metric{perWin(srcNs), "us"}
	} else {
		ms["gen.source_us_per_window"] = metric{perWin(srcNs), "us"}
	}
	if len(late) > 0 {
		ms["gen.late_us_p50"] = metric{quantile(late, 0.5) / 1e3, "us"}
	}

	// Reconciliation: the worker-path self times (source, the frame-chain
	// stages, the rest of ProcessWindow, the Runner's dispatch between
	// windows) against the wall time the workers had, run start to store
	// closed.
	workers := float64(w.workers)
	wall := m.elapsed.Seconds() * 1e6 * workers / win
	src, proc := perWin(srcNs), perWin(procNs)
	stages := (st.EBBI + st.Filter + st.RPN + st.Track).Seconds() * 1e6 / win
	dispatch := perWin(gapNs)
	sum := src + proc + dispatch
	residual := 100 * (wall - sum) / wall
	ms["trace.residual_pct"] = metric{residual, "%"}
	fmt.Fprintf(out, "  worker path per window (%d worker(s)): wall %.2f us = source %.2f + core %.2f (stages %.2f, self %.2f) + dispatch %.2f + residual %.2f us (%.1f%%)\n",
		w.workers, wall, src, proc, stages, proc-stages, dispatch, wall-sum, residual)
	fmt.Fprintf(out, "  sink path per window: append %.2f us, hand-off p50 %.2f us; cpu %.2f us/window traced vs %.2f untraced\n",
		perWin(appendNs), quantile(handoffs, 0.5)/1e3, cpuPerWin, untracedCPU)
	return ms
}

// dumpSpans writes every recorded span as CSV, one row per window.
func dumpSpans(dir, name string, seed uint64, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	sinkAt := make([]map[int]sinkSpan, len(tr.streams))
	for i := range sinkAt {
		sinkAt[i] = make(map[int]sinkSpan)
	}
	for _, sp := range tr.sink {
		sinkAt[sp.stream][sp.frame] = sp
	}
	fmt.Fprintln(bw, "stream,frame,src_start_ns,src_end_ns,proc_start_ns,proc_end_ns,consume_start_ns,append_start_ns,append_end_ns")
	for i, st := range tr.streams {
		for _, sp := range st.spans {
			c := sinkAt[i][sp.frame]
			fmt.Fprintf(bw, "%d,%d,%d,%d,%d,%d,%d,%d,%d\n", i, sp.frame, sp.srcStart, sp.srcEnd,
				sp.procStart, sp.procEnd, c.start, c.appendStart, c.end)
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
