package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"ebbiot/internal/metrics"
	"ebbiot/internal/pipeline"
	"ebbiot/internal/store"
)

// Tracking-quality floors on the whole run (all streams pooled), scored
// at IoU > scoreIoU against the scene's ground truth at every window end.
// Today's pooled figures are 0.62-0.96 precision and 0.46-0.65 recall
// (README.md); a tracker that reports no boxes has recall 0 and fails.
const (
	floorPrecision = 0.2
	floorRecall    = 0.1
)

// proofs is how many records the audit proves. store.Prove re-reads and
// re-hashes the record's whole segment (16 proofs took 2.2 s of CPU on
// the 12 MB store of a 10 s eng-offline run), so the sample is small.
const proofs = 4

// auditResult is the read side of one run: the checking replay plus the
// repeated, timed replays and verifies.
type auditResult struct {
	replayRecords  int64   // records delivered by the timed replays
	replayPerS     float64 // median over the timed replays
	replayUSPerRec float64
	verifyMBPerS   float64 // median over the timed verifies
	verifyMS       float64
	dataBytes      int64
	records        int64
	quality        []metrics.Counts // per stream
	pooled         metrics.Counts
	problems       []string
}

func (a *auditResult) fail(format string, args ...any) {
	if len(a.problems) < 32 {
		a.problems = append(a.problems, fmt.Sprintf(format, args...))
	}
}

// checkSink re-derives, from a replay, what the benchSink recorded on the
// way in, and scores every window against ground truth.
type checkSink struct {
	recs    []*recording
	ledgers []*ledger
	next    []int
	events  []int64
	digests []digest
	counts  []metrics.Counts
	a       *auditResult
}

// Consume implements pipeline.Sink.
func (c *checkSink) Consume(snap pipeline.TrackSnapshot) error {
	i := snap.Sensor
	if i < 0 || i >= len(c.recs) {
		c.a.fail("replay: unknown sensor %d", i)
		return nil
	}
	if snap.Frame != c.next[i] || snap.EndUS != int64(snap.Frame+1)*frameUS || snap.StartUS != int64(snap.Frame)*frameUS {
		c.a.fail("replay %s: frame %d [%d,%d) where frame %d was due", c.ledgers[i].name, snap.Frame, snap.StartUS, snap.EndUS, c.next[i])
	}
	c.next[i] = snap.Frame + 1
	c.events[i] += int64(snap.Events)
	c.digests[i] = snapDigest(c.digests[i], snap)
	if snap.Frame >= warmupFrames {
		c.counts[i].Add(metrics.MatchFrame(metrics.FrameSample{
			Tracker: snap.Boxes, GroundTruth: c.recs[i].groundTruth(snap.Frame)}, scoreIoU))
	}
	return nil
}

// countSink counts records; the timed replays use it.
type countSink struct{ n int64 }

// Consume implements pipeline.Sink.
func (c *countSink) Consume(pipeline.TrackSnapshot) error { c.n++; return nil }

// audit reads the closed store back: it checks a full replay against the
// ledgers, verifies every Merkle root, proves sampled records, runs
// time-bounded scans, and then repeats replay and Verify for budget to
// time them. sent[i] is the events the benchmark fed stream i.
func audit(dir string, recs []*recording, ledgers []*ledger, sent []int64, seed uint64, budget time.Duration) auditResult {
	var a auditResult
	r, err := store.OpenReader(dir)
	if err != nil {
		a.fail("open reader: %v", err)
		return a
	}
	st := r.Stats()
	a.records, a.dataBytes = st.Records, st.DataBytes
	if rep, err := store.Verify(dir); err != nil || !rep.Clean() {
		a.fail("verify: store not clean: %v %v %v", err, rep.Problems, runProblems(rep))
	}
	n := len(recs)
	cs := &checkSink{recs: recs, ledgers: ledgers, next: make([]int, n), events: make([]int64, n),
		digests: make([]digest, n), counts: make([]metrics.Counts, n), a: &a}
	for i := range cs.digests {
		cs.digests[i] = newDigest()
	}
	if _, err := pipeline.ReplayStore(context.Background(), r, nil, 0, math.MaxInt64, cs); err != nil {
		a.fail("replay: %v", err)
	}
	var stored int64
	for i, l := range ledgers {
		stored += l.windows
		if cs.next[i] != int(l.windows) {
			a.fail("%s: replay returned %d windows, %d were appended", l.name, cs.next[i], l.windows)
		}
		if cs.digests[i] != l.digest {
			a.fail("%s: replayed snapshots differ from the appended ones", l.name)
		}
		if cs.events[i] != sent[i] || l.events != sent[i] {
			a.fail("%s: %d events sent, %d appended, %d stored", l.name, sent[i], l.events, cs.events[i])
		}
		a.quality = append(a.quality, cs.counts[i])
		a.pooled.Add(cs.counts[i])
	}
	if p, rc := a.pooled.Precision(), a.pooled.Recall(); p < floorPrecision || rc < floorRecall {
		a.fail("precision %.3f recall %.3f below the floor %.2f/%.2f", p, rc, floorPrecision, floorRecall)
	}
	if st.Records != stored {
		a.fail("store holds %d records, %d were appended", st.Records, stored)
	}

	rng := rand.New(rand.NewSource(int64(seed)))
	if st.Records > 0 {
		for i := 0; i < proofs; i++ {
			proveAndScan(&a, dir, r, rng.Int63n(st.Records))
		}
	}
	for i, l := range ledgers {
		for j := 0; j < 8 && l.windows > 0; j++ {
			span := l.windows * frameUS
			t0 := rng.Int63n(span)
			t1 := t0 + 1 + rng.Int63n(span-t0)
			boundedScan(&a, r, i, l.windows, t0, t1)
		}
	}

	// Timed phase: repeat each read path until its half of the budget is
	// spent (at least three times), and report the median rate.
	var rates, usPer []float64
	for end := time.Now().Add(budget / 2); len(rates) < 3 || time.Now().Before(end); {
		c := &countSink{}
		t0 := time.Now()
		if _, err := pipeline.ReplayStore(context.Background(), r, nil, 0, math.MaxInt64, c); err != nil {
			a.fail("timed replay: %v", err)
			break
		}
		d := time.Since(t0)
		if c.n != st.Records {
			a.fail("timed replay returned %d of %d records", c.n, st.Records)
			break
		}
		a.replayRecords += c.n
		rates = append(rates, float64(c.n)/d.Seconds())
		usPer = append(usPer, d.Seconds()*1e6/float64(c.n))
	}
	a.replayPerS, a.replayUSPerRec = medianF(rates), medianF(usPer)

	var mbs, ms []float64
	for end := time.Now().Add(budget / 2); len(mbs) < 3 || time.Now().Before(end); {
		t0 := time.Now()
		rep, err := store.Verify(dir)
		d := time.Since(t0)
		if err != nil {
			a.fail("verify: %v", err)
			break
		}
		if !rep.Clean() {
			a.fail("verify: store not clean: %v %v", rep.Problems, runProblems(rep))
			break
		}
		mbs = append(mbs, float64(rep.DataBytes)/1e6/d.Seconds())
		ms = append(ms, d.Seconds()*1e3)
	}
	a.verifyMBPerS, a.verifyMS = medianF(mbs), medianF(ms)
	return a
}

func runProblems(rep store.VerifyReport) []string {
	var out []string
	for _, r := range rep.Runs {
		out = append(out, r.Problems...)
	}
	return out
}

// proveAndScan proves record seq of the sole run and checks that a scan
// of the proven record's window returns that record and nothing else.
func proveAndScan(a *auditResult, dir string, r *store.Reader, seq int64) {
	p, err := store.Prove(dir, 0, seq)
	if err != nil {
		a.fail("prove %d: %v", seq, err)
		return
	}
	if !p.Verify() {
		a.fail("prove %d: proof does not verify", seq)
		return
	}
	s := p.Snapshot
	c, err := r.Scan(0, s.Sensor, s.StartUS, s.EndUS)
	if err != nil {
		a.fail("scan for proof %d: %v", seq, err)
		return
	}
	defer c.Close()
	got, err := c.Next()
	if err != nil || got.Frame != s.Frame || got.Events != s.Events || got.ProcUS != s.ProcUS || !sameBoxes(got, s) {
		a.fail("proof %d: scan of its window returned %+v (err %v), proof holds %+v", seq, got, err, s)
		return
	}
	if extra, err := c.Next(); err == nil {
		a.fail("proof %d: scan of one window returned a second record, frame %d", seq, extra.Frame)
	}
}

func sameBoxes(a, b store.Snapshot) bool {
	if len(a.Boxes) != len(b.Boxes) {
		return false
	}
	for i := range a.Boxes {
		if a.Boxes[i] != b.Boxes[i] {
			return false
		}
	}
	return true
}

// boundedScan checks that Scan over [t0, t1) returns exactly the frames
// whose windows overlap it, in order.
func boundedScan(a *auditResult, r *store.Reader, sensor int, windows, t0, t1 int64) {
	lo := t0 / frameUS
	hi := (t1+frameUS-1)/frameUS - 1
	if hi >= windows {
		hi = windows - 1
	}
	c, err := r.Scan(0, sensor, t0, t1)
	if err != nil {
		a.fail("scan %d [%d,%d): %v", sensor, t0, t1, err)
		return
	}
	defer c.Close()
	want := lo
	for {
		s, err := c.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			a.fail("scan %d [%d,%d): %v", sensor, t0, t1, err)
			return
		}
		if int64(s.Frame) != want || s.Sensor != sensor {
			a.fail("scan %d [%d,%d): got sensor %d frame %d, want frame %d", sensor, t0, t1, s.Sensor, s.Frame, want)
			return
		}
		want++
	}
	if want != hi+1 {
		a.fail("scan %d [%d,%d): ended before frame %d, want frames %d..%d", sensor, t0, t1, want, lo, hi)
	}
}
