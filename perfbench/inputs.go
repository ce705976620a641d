package main

import (
	"fmt"

	"ebbiot/internal/core"
	"ebbiot/internal/dataset"
	"ebbiot/internal/events"
	"ebbiot/internal/geometry"
	"ebbiot/internal/roe"
	"ebbiot/internal/scene"
)

// Input make-up shared by every workload.
const (
	frameUS         = 66_000 // tF, the paper's frame period
	batchesPerFrame = 4      // wire batches per frame window
	batchUS         = frameUS / batchesPerFrame
	warmupFrames    = 5  // windows excluded from scoring while tracks form
	minVisiblePx    = 40 // ground-truth visibility cutoff (eval.DefaultOptions)
	scoreIoU        = 0.3
)

// recording is one base loop of a paper preset: nW frame windows of
// generated events that the benchmark replays over and over, shifted by
// the loop length, until the run is long enough.
type recording struct {
	preset dataset.Preset
	seed   uint64
	scene  *scene.Scene
	evs    []events.Event // sorted, T in [0, durUS)
	// winIdx[k]:winIdx[k+1] are window k's events (len nW+1); batchIdx is
	// the same for the batchesPerFrame-times finer wire batches.
	winIdx   []int
	batchIdx []int
	nW       int
	durUS    int64
	// closeOff[k] is the batch, counted from the start of window k's loop,
	// whose arrival closes window k: the first non-empty batch at or past
	// the window's end. It may lie in the next loop.
	closeOff []int
	events   int64
	// gt[k] is the annotated boxes at the end of base window k; every
	// loop repeats them.
	gt [][]geometry.Box
}

// generate synthesises the base loop of preset p: the traffic scene from
// sceneSeed, the sensor's events over it from seed.
func generate(p dataset.Preset, sceneSeed, seed uint64, nW int) (*recording, error) {
	durUS := int64(nW) * frameUS
	spec, err := dataset.For(p, 0.001, seed)
	if err != nil {
		return nil, err
	}
	spec.DurationUS = durUS
	spec.Traffic.DurationUS = durUS
	spec.Traffic.Seed = sceneSeed
	gen, err := dataset.Generate(spec)
	if err != nil {
		return nil, err
	}
	rec := &recording{preset: p, seed: seed, scene: gen.Scene, nW: nW, durUS: durUS}
	rec.winIdx = make([]int, 0, nW+1)
	rec.batchIdx = make([]int, 0, nW*batchesPerFrame+1)
	for b := 0; b < nW*batchesPerFrame; b++ {
		if b%batchesPerFrame == 0 {
			rec.winIdx = append(rec.winIdx, len(rec.evs))
		}
		rec.batchIdx = append(rec.batchIdx, len(rec.evs))
		t0 := int64(b) * batchUS
		rec.evs, err = gen.Sim.EventsInto(rec.evs, t0, t0+batchUS)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", p, err)
		}
	}
	rec.winIdx = append(rec.winIdx, len(rec.evs))
	rec.batchIdx = append(rec.batchIdx, len(rec.evs))
	rec.events = int64(len(rec.evs))
	if rec.events == 0 {
		return nil, fmt.Errorf("generate %s: no events", p)
	}
	rec.closeOff = make([]int, nW)
	for k := range rec.closeOff {
		b := (k + 1) * batchesPerFrame
		for rec.batchLen(b) == 0 {
			b++
		}
		rec.closeOff[k] = b
	}
	rec.gt = make([][]geometry.Box, nW)
	for k := range rec.gt {
		for _, g := range rec.scene.GroundTruth(int64(k+1)*frameUS, minVisiblePx) {
			rec.gt[k] = append(rec.gt[k], g.Box)
		}
	}
	return rec, nil
}

// batchLen is the event count of batch b, counted across loops.
func (r *recording) batchLen(b int) int {
	b %= len(r.batchIdx) - 1
	return r.batchIdx[b+1] - r.batchIdx[b]
}

// nBatches is the batch count of one loop.
func (r *recording) nBatches() int { return len(r.batchIdx) - 1 }

// appendShifted appends base events [i, j) shifted into loop l.
func (r *recording) appendShifted(buf []events.Event, i, j int, l int64) []events.Event {
	off := l * r.durUS
	for _, e := range r.evs[i:j] {
		e.T += off
		buf = append(buf, e)
	}
	return buf
}

// appendBatch appends global batch B (loop B/nB) to buf.
func (r *recording) appendBatch(buf []events.Event, B int) []events.Event {
	nB := r.nBatches()
	b := B % nB
	return r.appendShifted(buf, r.batchIdx[b], r.batchIdx[b+1], int64(B/nB))
}

// closingBatch is the global batch whose arrival closes global window K.
func (r *recording) closingBatch(K int) int {
	return K/r.nW*r.nBatches() + r.closeOff[K%r.nW]
}

// groundTruth returns the annotated boxes at the end of global window k.
// A window ending on a loop seam belongs to the loop it ends.
func (r *recording) groundTruth(k int) []geometry.Box { return r.gt[k%r.nW] }

// newSystem builds the paper's tracker for the preset: ENG runs with the
// tree region of exclusion the tracking experiments use.
func newSystem(p dataset.Preset) (*core.EBBIOT, error) {
	cfg := core.DefaultConfig()
	if p == dataset.ENG {
		cfg = cfg.WithROE(roe.New(dataset.TreeROEENG()))
	}
	return core.NewEBBIOT(cfg)
}

// referenceFirstLoop runs a fresh in-process system over one base loop,
// window by window, and returns the digest of the boxes it reports — what
// every transport must reproduce for the first loop of a stream.
func referenceFirstLoop(r *recording) (uint64, error) {
	sys, err := newSystem(r.preset)
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	h := newDigest()
	for k := 0; k < r.nW; k++ {
		boxes, err := sys.ProcessWindow(r.evs[r.winIdx[k]:r.winIdx[k+1]])
		if err != nil {
			return 0, err
		}
		h = h.boxes(k, boxes)
	}
	return uint64(h), nil
}

// digest is FNV-1a over the integers of a snapshot sequence; it lets the
// benchmark compare what was appended with what is read back without
// holding the snapshots in memory.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d digest) int(v int64) digest {
	for i := 0; i < 8; i++ {
		d ^= digest(byte(v >> (8 * i)))
		d *= 1099511628211
	}
	return d
}

func (d digest) boxes(frame int, bs []geometry.Box) digest {
	d = d.int(int64(frame)).int(int64(len(bs)))
	for _, b := range bs {
		d = d.int(int64(b.X)).int(int64(b.Y)).int(int64(b.W)).int(int64(b.H))
	}
	return d
}
