package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"ebbiot/internal/core"
	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
	"ebbiot/internal/pipeline"
)

// stampRing holds, per stream, the time each in-flight window's closing
// input became available (nanoseconds since the run's epoch), keyed by
// global window index. Producers write a slot before the window can close;
// the sink swaps it back to zero when the window's append returns. The
// transports bound how far producers run ahead of the sink far below the
// ring size.
type stampRing [1 << 14]atomic.Int64

func (s *stampRing) set(k int, ns int64) { s[k&(len(s)-1)].Store(ns) }

func (s *stampRing) take(k int) int64 { return s[k&(len(s)-1)].Swap(0) }

// epoch anchors nanotime, a monotonic nanosecond clock that starts at 1
// when the process starts, so a stamp of 0 can mean "unset".
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) + 1 }

// ledger is what the benchmark saw one stream put into the store,
// computed on the sink goroutine without allocating.
type ledger struct {
	name      string
	windows   int64
	events    int64
	nextFrame int
	digest    digest // every stored field, all windows
	firstLoop digest // boxes of the first base loop
	stamps    stampRing
}

// benchSink sits between the Runner and the store sink in every run. It
// checks that each stream's windows arrive contiguous and in order, keeps
// the digests the audit compares against, and records the latency from
// each window's stamp to the return of its store append. With tracing on
// it also times the append and the hand-off from ProcessWindow.
type benchSink struct {
	inner    pipeline.Sink
	nW       int
	ledgers  []*ledger
	lat      []int64 // ns in append order, preallocated
	problems []string
	tr       *tracer // nil when untraced
	heap     heapSampler
}

func newBenchSink(inner pipeline.Sink, nW int, names []string, capWindows int) *benchSink {
	s := &benchSink{inner: inner, nW: nW, lat: make([]int64, 0, capWindows), heap: newHeapSampler()}
	for _, n := range names {
		s.ledgers = append(s.ledgers, &ledger{name: n, firstLoop: newDigest(), digest: newDigest()})
	}
	return s
}

func (s *benchSink) fail(format string, args ...any) {
	if len(s.problems) < 16 {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
}

// Consume implements pipeline.Sink.
func (s *benchSink) Consume(snap pipeline.TrackSnapshot) error {
	start := nanotime()
	l := s.ledgers[snap.Sensor]
	if snap.Frame != l.nextFrame || snap.StartUS != int64(snap.Frame)*frameUS || snap.EndUS != int64(snap.Frame+1)*frameUS {
		s.fail("%s: got frame %d [%d,%d), want frame %d", l.name, snap.Frame, snap.StartUS, snap.EndUS, l.nextFrame)
	}
	l.nextFrame = snap.Frame + 1
	l.windows++
	l.events += int64(snap.Events)
	l.digest = snapDigest(l.digest, snap)
	if snap.Frame < s.nW {
		l.firstLoop = l.firstLoop.boxes(snap.Frame, snap.Boxes)
	}
	appendStart := nanotime()
	if err := s.inner.Consume(snap); err != nil {
		return err
	}
	end := nanotime()
	if t := l.stamps.take(snap.Frame); t != 0 && len(s.lat) < cap(s.lat) {
		s.lat = append(s.lat, end-t)
	}
	if s.tr != nil {
		s.tr.consumed(snap.Sensor, snap.Frame, start, appendStart, end)
	}
	s.heap.tick()
	return nil
}

// heapSampler takes the live heap after a forced collection at heapSamples
// evenly spaced points of the main phase's windows, as the sink sees
// them, and reports their median. One figure at the end would depend on
// what the last window happened to leave reachable (see README.md, Live
// heap); the median of GC-cycle live figures, forced or not, would count
// sync.Pool scratch and what the mutators allocated during marking. The
// collections run on the sink goroutine, the same number in every run.
type heapSampler struct {
	every, seen int64
	samples     []float64
	read        []rtmetrics.Sample
}

// heapSamples is how many forced-GC samples a main phase takes.
const heapSamples = 8

func newHeapSampler() heapSampler {
	return heapSampler{samples: make([]float64, 0, heapSamples), read: []rtmetrics.Sample{{Name: heapLiveMetric}}}
}

// start spreads the samples over a main phase of about windows windows.
func (h *heapSampler) start(windows int64) {
	h.every, h.seen, h.samples = windows/(heapSamples+1)+1, 0, h.samples[:0]
}

// tick counts a window and takes a sample if one is due.
func (h *heapSampler) tick() {
	h.seen++
	if h.every > 0 && h.seen%h.every == 0 && len(h.samples) < cap(h.samples) {
		h.samples = append(h.samples, float64(h.live()))
	}
}

// live returns the live heap after two forced collections: the second
// frees what sync.Pool kept through the first.
func (h *heapSampler) live() int64 {
	runtime.GC()
	runtime.GC()
	return gcLive(h.read)
}

// median is the median sample, or the live heap now if none was taken.
func (h *heapSampler) median() int64 {
	if len(h.samples) == 0 {
		return h.live()
	}
	return int64(medianF(h.samples))
}

// Flush implements pipeline.Flusher by flushing the wrapped sink.
func (s *benchSink) Flush() error {
	if f, ok := s.inner.(pipeline.Flusher); ok {
		return f.Flush()
	}
	return nil
}

// snapDigest folds every stored field of one snapshot into d.
func snapDigest(d digest, snap pipeline.TrackSnapshot) digest {
	d = d.int(int64(snap.Sensor)).int(snap.StartUS).int(snap.EndUS).int(int64(snap.Events)).int(snap.ProcUS)
	d = d.int(int64(len(snap.Name)))
	return d.boxes(snap.Frame, snap.Boxes)
}

// loopSource is the in-process event source: it serves window k of the
// base loop, shifted into loop k/nW, for limit windows or, after the
// first loop, until the nanotime stopAt, then ends the stream. It stamps
// each window when it hands the events over.
type loopSource struct {
	rec    *recording
	limit  int
	stopAt int64
	stamps *stampRing
	events int64
}

// NextWindow implements pipeline.EventSource.
func (s *loopSource) NextWindow(buf []events.Event, start, end int64) ([]events.Event, error) {
	K := int(start / frameUS)
	if K >= s.limit || (K >= s.rec.nW && nanotime() > s.stopAt) {
		return buf, io.EOF
	}
	k := K % s.rec.nW
	n := len(buf)
	buf = s.rec.appendShifted(buf, s.rec.winIdx[k], s.rec.winIdx[k+1], int64(K/s.rec.nW))
	s.events += int64(len(buf) - n)
	s.stamps.set(K, nanotime())
	return buf, nil
}

// tracer records spans at the benchmark's layer boundaries: each stream's
// source call and ProcessWindow (on its worker goroutine) and each store
// append (on the sink goroutine), keyed by stream and frame. Spans stay in
// memory and are written out when the run ends.
type tracer struct {
	streams []*streamTrace
	sink    []sinkSpan
}

type streamTrace struct {
	spans []workerSpan
	// procEnd carries ProcessWindow's return time to the sink goroutine
	// for the hand-off measurement; the Runner's fan-in queue keeps the
	// worker far less than a ring ahead of the sink.
	procEnd    [1024]int64
	backlogMax int64
}

type workerSpan struct {
	frame              int
	srcStart, srcEnd   int64
	procStart, procEnd int64
}

type sinkSpan struct {
	stream, frame           int
	start, appendStart, end int64
	handoff                 int64
}

func newTracer(streams int) *tracer {
	t := &tracer{sink: make([]sinkSpan, 0, 1<<16)}
	for i := 0; i < streams; i++ {
		t.streams = append(t.streams, &streamTrace{spans: make([]workerSpan, 0, 1<<15)})
	}
	return t
}

func (t *tracer) consumed(stream, frame int, start, appendStart, end int64) {
	st := t.streams[stream]
	t.sink = append(t.sink, sinkSpan{stream: stream, frame: frame, start: start, appendStart: appendStart,
		end: end, handoff: start - st.procEnd[frame&(len(st.procEnd)-1)]})
}

// tracedSource times the calls into a stream's event source. It forwards
// SourceStats so the Runner still publishes a NetSource's health, and
// samples the NetSource backlog after every window.
type tracedSource struct {
	inner pipeline.EventSource
	meter pipeline.SourceMeter
	st    *streamTrace
}

// NextWindow implements pipeline.EventSource.
func (s *tracedSource) NextWindow(buf []events.Event, start, end int64) ([]events.Event, error) {
	t0 := nanotime()
	out, err := s.inner.NextWindow(buf, start, end)
	t1 := nanotime()
	if err == nil || (errors.Is(err, io.EOF) && len(out) > len(buf)) {
		s.st.spans = append(s.st.spans, workerSpan{frame: int(start / frameUS), srcStart: t0, srcEnd: t1})
	}
	if s.meter != nil {
		if q := s.meter.SourceStats().QueuedBatches; q > s.st.backlogMax {
			s.st.backlogMax = q
		}
	}
	return out, err
}

// tracedMeterSource is a tracedSource over a SourceMeter.
type tracedMeterSource struct{ tracedSource }

// SourceStats implements pipeline.SourceMeter.
func (s *tracedMeterSource) SourceStats() pipeline.SourceStats { return s.meter.SourceStats() }

func traceSource(src pipeline.EventSource, st *streamTrace) pipeline.EventSource {
	if m, ok := src.(pipeline.SourceMeter); ok {
		return &tracedMeterSource{tracedSource{inner: src, meter: m, st: st}}
	}
	return &tracedSource{inner: src, st: st}
}

// tracedSystem times ProcessWindow and forwards the program's own stage
// timings, which split the frame chain into latch, median, proposal and
// tracker step.
type tracedSystem struct {
	inner core.System
	st    *streamTrace
}

// Name implements core.System.
func (s *tracedSystem) Name() string { return s.inner.Name() }

// ProcessWindow implements core.System.
func (s *tracedSystem) ProcessWindow(evs []events.Event) ([]geometry.Box, error) {
	t0 := nanotime()
	boxes, err := s.inner.ProcessWindow(evs)
	t1 := nanotime()
	if n := len(s.st.spans); n > 0 {
		sp := &s.st.spans[n-1]
		sp.procStart, sp.procEnd = t0, t1
		s.st.procEnd[sp.frame&(len(s.st.procEnd)-1)] = t1
	}
	return boxes, err
}

// StageTimings implements core.StageTimer.
func (s *tracedSystem) StageTimings() core.StageTimings {
	if t, ok := s.inner.(core.StageTimer); ok {
		return t.StageTimings()
	}
	return core.StageTimings{}
}

// blindSystem wraps a system and reports no boxes: a tracker that has
// stopped working. The benchmark's tests use it to show the checks catch it.
type blindSystem struct{ core.System }

// ProcessWindow implements core.System.
func (b blindSystem) ProcessWindow(evs []events.Event) ([]geometry.Box, error) {
	_, err := b.System.ProcessWindow(evs)
	return nil, err
}

// slowSystem wraps a system and stalls every window: a program that
// cannot keep up with a live feed.
type slowSystem struct{ core.System }

// ProcessWindow implements core.System.
func (s slowSystem) ProcessWindow(evs []events.Event) ([]geometry.Box, error) {
	time.Sleep(5 * time.Millisecond)
	return s.System.ProcessWindow(evs)
}

// dropSink loses one window of stream 0 on its way into the store.
type dropSink struct {
	pipeline.Sink
	frame int
}

// Consume implements pipeline.Sink.
func (d *dropSink) Consume(snap pipeline.TrackSnapshot) error {
	if snap.Sensor == 0 && snap.Frame == d.frame {
		return nil
	}
	return d.Sink.Consume(snap)
}

// Flush implements pipeline.Flusher.
func (d *dropSink) Flush() error {
	if f, ok := d.Sink.(pipeline.Flusher); ok {
		return f.Flush()
	}
	return nil
}

// cpuNow returns the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc returns cumulative heap bytes allocated.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// heapLiveMetric is the heap the last completed GC cycle marked live.
const heapLiveMetric = "/gc/heap/live:bytes"

// gcLive reads heapLiveMetric into the caller's sample, which does not
// allocate.
func gcLive(sample []rtmetrics.Sample) int64 {
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return int64(sample[0].Value.Uint64())
}

// liveHeap returns the live heap after a forced collection.
func liveHeap() int64 {
	h := newHeapSampler()
	return h.live()
}

// quantile returns the q-quantile of xs (sorted in place) by linear
// interpolation between closest ranks.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return float64(xs[len(xs)-1])
	}
	f := pos - float64(i)
	return float64(xs[i])*(1-f) + float64(xs[i+1])*f
}

// median of float samples (copied, not mutated).
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}
