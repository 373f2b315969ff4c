package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"espsim/internal/branch"
	"espsim/internal/checkpoint"
	"espsim/internal/core"
	"espsim/internal/cpu"
	"espsim/internal/eventq"
	"espsim/internal/fault"
	"espsim/internal/mem"
	"espsim/internal/prefetch"
	"espsim/internal/runahead"
	"espsim/internal/serve"
	"espsim/internal/sim"
	"espsim/internal/tenantq"
	"espsim/internal/trace"
	"espsim/internal/workload"

	esp "espsim"
)

// buildKey is one workload materialization the decomposition times.
type buildKey struct {
	prof      workload.Profile
	maxEvents int
	sched     eventq.SchedPolicy
}

// decompInputs are a workload's own inputs, captured once, that the
// decomposition pass drives through each layer's public functions.
type decompInputs struct {
	builds      []buildKey
	runBodies   [][]byte
	sweepBodies [][]byte
	traces      [][]byte
	schedEvents [][]trace.Event
	journalDir  string
}

// minMeasure is the least wall time one timed repetition covers, so
// per-call figures are not dominated by clock granularity.
const minMeasure = 30 * time.Millisecond

// perCall repeats op (which performs calls operations) until minMeasure
// has passed, three times over, and returns the median ns per call.
func perCall(calls int, op func()) float64 {
	if calls == 0 {
		return 0
	}
	var reps []float64
	for r := 0; r < 3; r++ {
		n := 0
		start := time.Now()
		for time.Since(start) < minMeasure || n == 0 {
			op()
			n += calls
		}
		reps = append(reps, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(reps)
}

// decompose runs the decomposition pass over in and records its
// per-layer metrics in rep.
func decompose(rep *report, in decompInputs) error {
	var ws []*sim.Workload
	var genNs, insts float64
	var buildMs []float64
	for _, b := range in.builds {
		t := time.Now()
		w, err := sim.NewWorkloadSched(b.prof, b.maxEvents, b.sched)
		if err != nil {
			return err
		}
		d := time.Since(t)
		buildMs = append(buildMs, float64(d)/1e6)
		genNs += float64(d)
		insts += float64(w.Insts())
		ws = append(ws, w)
	}
	rep.layer("sim.build_ms_mean", mean(buildMs))
	rep.layer("workload.gen_ns_per_inst", genNs/insts)

	if err := decodeLayers(rep, in); err != nil {
		return err
	}
	if err := replayLayers(rep, ws); err != nil {
		return err
	}
	return nil
}

// decodeLayers times request decoding, trace decoding, schedule
// building, admission, the recovery executor and journal appends.
func decodeLayers(rep *report, in decompInputs) error {
	bodies := len(in.runBodies) + len(in.sweepBodies)
	var perr error
	decodeNs := perCall(bodies, func() {
		for _, b := range in.runBodies {
			if _, err := serve.ParseRunRequest(b); err != nil {
				perr = err
			}
		}
		for _, b := range in.sweepBodies {
			if _, err := serve.ParseSweepRequest(b); err != nil {
				perr = err
			}
		}
	})
	if perr != nil {
		return fmt.Errorf("decoding the workload's request bodies: %w", perr)
	}
	rep.layer("serve.decode_us", decodeNs/1e3)

	var traceInsts int
	for _, t := range in.traces {
		evs, err := trace.ReadFileLimits(bytes.NewReader(t), trace.DefaultLimits())
		if err != nil {
			return err
		}
		for _, e := range evs {
			traceInsts += len(e.Insts)
		}
	}
	rep.layer("trace.decode_ns_per_inst", perCall(traceInsts, func() {
		for _, t := range in.traces {
			_, _ = trace.ReadFileLimits(bytes.NewReader(t), trace.DefaultLimits()) // decoded once above
		}
	}))

	var nev int
	for _, evs := range in.schedEvents {
		nev += len(evs)
	}
	rep.layer("eventq.schedule_ns_per_event", perCall(nev, func() {
		for _, evs := range in.schedEvents {
			_, _ = eventq.BuildSchedule(evs, eventq.SchedEDF) // EDF is a valid policy
		}
	}))

	ctx := context.Background()
	q := tenantq.New(tenantq.Options{Slots: 1})
	rep.layer("tenantq.acquire_ns", perCall(1000, func() {
		for i := 0; i < 1000; i++ {
			release, err := q.Acquire(ctx, tenantq.DefaultTenant, 1)
			if err == nil {
				release()
			}
		}
	}))

	ex := fault.NewExecutor(fault.RetryPolicy{}, fault.NewBreakerSet(5, 30*time.Second), nil, 1)
	ok := func(int) error { return nil }
	rep.layer("fault.exec_ns", perCall(1000, func() {
		for i := 0; i < 1000; i++ {
			ex.Run(ctx, "bench/cell", ok)
		}
	}))

	return journalLayer(rep, in.journalDir)
}

// journalLayer times Journal.Append, one fsync'd record at a time, in
// the workload's journal directory.
func journalLayer(rep *report, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "decomp.espj")
	defer os.Remove(path)
	j, _, _, err := checkpoint.Open(path, checkpoint.Meta{Digest: "bench"}.Encode())
	if err != nil {
		return err
	}
	rec := mustJSON(sim.Result{App: "bench", Config: "ESP+NL"})
	n := minSamples(99)
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := j.Append(rec); err != nil {
			j.Close()
			return err
		}
		us = append(us, float64(time.Since(t))/1e3)
	}
	if err := j.Close(); err != nil {
		return err
	}
	p50, _ := percentile(us, 50)
	p99, _ := percentile(us, 99)
	rep.layer("checkpoint.append_us_p50", p50)
	rep.layer("checkpoint.append_us_p99", p99)
	return nil
}

// specSource hands ESP the speculative stream variant of a workload, the
// way sim.Machine wires it.
type specSource struct{ src eventq.Source }

func (s specSource) SpecInsts(ev trace.Event) []trace.Inst { return s.src.Insts(ev.ID, true) }

// timedAssist decorates an assist and times its EventStart and OnStall
// calls; every call passes through unchanged.
type timedAssist struct {
	inner          cpu.Assist
	startNs, stall time.Duration
	starts, stalls int
}

func (a *timedAssist) EventStart(ev trace.Event, insts []trace.Inst, pending []trace.Event) {
	t := time.Now()
	a.inner.EventStart(ev, insts, pending)
	a.startNs += time.Since(t)
	a.starts++
}
func (a *timedAssist) EventEnd(ev trace.Event) { a.inner.EventEnd(ev) }
func (a *timedAssist) OnInst(idx int) int      { return a.inner.OnInst(idx) }
func (a *timedAssist) CorrectBranch(idx int, in trace.Inst) bool {
	return a.inner.CorrectBranch(idx, in)
}
func (a *timedAssist) OnStall(kind cpu.StallKind, idx int, budget int) bool {
	t := time.Now()
	used := a.inner.OnStall(kind, idx, budget)
	a.stall += time.Since(t)
	a.stalls++
	return used
}

// rig is a hand-assembled core: hierarchy, predictor, the NL prefetchers
// when nl is set, and an optional assist, reset between replays.
type rig struct {
	hier *mem.Hierarchy
	bp   *branch.Predictor
	c    *cpu.Core
	nli  *prefetch.NextLineI
	dcu  *prefetch.DCU
	esp  *core.ESP
	ra   *runahead.Engine
}

// assistKind selects the rig's stall-window consumer.
type assistKind int

const (
	plainRig assistKind = iota
	espRig
	runaheadRig
)

func newRig(kind assistKind) (*rig, error) {
	g := &rig{hier: mem.DefaultHierarchy(), bp: branch.New()}
	g.c = cpu.New(cpu.DefaultConfig(), g.hier, g.bp)
	if kind == plainRig {
		return g, nil
	}
	g.nli, g.dcu = prefetch.NewNextLineI(g.hier), prefetch.NewDCU(g.hier)
	g.c.NLI, g.c.DCU = g.nli, g.dcu
	switch kind {
	case espRig:
		e, err := core.New(core.DefaultOptions(), g.hier, g.bp, nil)
		if err != nil {
			return nil, err
		}
		g.esp, g.c.Assist = e, e
	case runaheadRig:
		g.ra = runahead.New(runahead.DefaultConfig(), g.hier, g.bp)
		g.c.Assist = g.ra
	}
	return g, nil
}

// replay resets the rig and drives w's session through it with
// eventq.Looper, returning the elapsed time.
func (g *rig) replay(w *sim.Workload) time.Duration {
	g.hier.Reset()
	g.bp.Reset()
	g.c.Reset()
	if g.nli != nil {
		g.nli.Reset()
		g.dcu.Reset()
	}
	src := w.Source(0)
	if g.esp != nil {
		g.esp.Reset()
		g.esp.Src = specSource{src}
	}
	if g.ra != nil {
		g.ra.Reset()
	}
	l := eventq.Looper{Src: src, Core: g.c}
	t := time.Now()
	l.Run()
	return time.Since(t)
}

// nsPerInst replays every workload through the rig three times and
// returns the median ns per committed instruction.
func (g *rig) nsPerInst(ws []*sim.Workload) float64 {
	var reps []float64
	for r := 0; r < 3; r++ {
		var d time.Duration
		var n int64
		for _, w := range ws {
			d += g.replay(w)
			n += w.Insts()
		}
		reps = append(reps, float64(d)/float64(n))
	}
	return median(reps)
}

// streams are the calls a replay makes into the memory hierarchy and
// the branch predictor, captured from the workloads' committed streams.
type streams struct {
	fetch    []uint64
	data     []trace.Inst
	branches []trace.Inst
}

func captureStreams(ws []*sim.Workload) streams {
	var s streams
	for _, w := range ws {
		src := w.Source(0)
		for i := 0; i < src.Len(); i++ {
			var line uint64
			valid := false
			for _, in := range src.Insts(i, false) {
				if l := trace.Line(in.PC); !valid || l != line {
					valid, line = true, l
					s.fetch = append(s.fetch, in.PC)
				}
				switch in.Kind {
				case trace.Load, trace.Store:
					s.data = append(s.data, in)
				case trace.Branch:
					s.branches = append(s.branches, in)
				}
			}
		}
	}
	return s
}

// replayLayers times the replay layers on the captured streams and
// derives replay.layer_sum_frac: the per-layer ns per call times the
// calls a real cell makes, over the ns that cell measures.
func replayLayers(rep *report, ws []*sim.Workload) error {
	st := captureStreams(ws)
	h := mem.DefaultHierarchy()
	fetchNs := perCall(len(st.fetch), func() {
		h.Reset()
		for _, a := range st.fetch {
			h.FetchI(a)
		}
	})
	dataNs := perCall(len(st.data), func() {
		h.Reset()
		for i := range st.data {
			h.AccessD(st.data[i].Addr, st.data[i].Kind == trace.Store)
		}
	})
	bp := branch.New()
	puNs := perCall(len(st.branches), func() {
		bp.Reset()
		for i := range st.branches {
			bp.PredictUpdate(&st.branches[i])
		}
	})
	rep.layer("mem.fetchi_ns", fetchNs)
	rep.layer("mem.accessd_ns", dataNs)
	rep.layer("branch.predict_update_ns", puNs)

	plain, err := newRig(plainRig)
	if err != nil {
		return err
	}
	assisted, err := newRig(espRig)
	if err != nil {
		return err
	}
	rep.layer("cpu.plain_ns_per_inst", plain.nsPerInst(ws))
	rep.layer("cpu.assisted_ns_per_inst", assisted.nsPerInst(ws))

	// The same assisted rigs with their assist behind a timing decorator.
	tESP := &timedAssist{inner: assisted.esp}
	assisted.c.Assist = tESP
	ra, err := newRig(runaheadRig)
	if err != nil {
		return err
	}
	tRA := &timedAssist{inner: ra.ra}
	ra.c.Assist = tRA
	for _, w := range ws {
		assisted.replay(w)
		ra.replay(w)
	}
	startNs := float64(tESP.startNs) / float64(max(tESP.starts, 1))
	espStallNs := float64(tESP.stall) / float64(max(tESP.stalls, 1))
	rep.layer("core.event_start_us", startNs/1e3)
	rep.layer("core.on_stall_ns", espStallNs)
	rep.layer("runahead.on_stall_ns", float64(tRA.stall)/float64(max(tRA.stalls, 1)))

	// Measured cells and machine resets on the real machine plane.
	var resetUs []float64
	cover := func(cfg sim.Config, assist bool) (float64, error) {
		// Sum of per-layer cost × calls over the measured ns, per cell.
		m, err := sim.NewMachine(cfg)
		if err != nil {
			return 0, err
		}
		var sum, measured float64
		for _, w := range ws {
			var cell, reset []float64
			var res sim.Result
			for r := 0; r < 3; r++ {
				t := time.Now()
				res = m.Run(w)
				cell = append(cell, float64(time.Since(t)))
				t = time.Now()
				m.Reset()
				reset = append(reset, float64(time.Since(t)))
			}
			resetUs = append(resetUs, median(reset)/1e3)
			measured += median(cell)
			sum += median(reset) + fetchNs*float64(res.L1I.Accesses) + dataNs*float64(res.L1D.Accesses) +
				puNs*float64(res.CPU.Branches)
			if assist {
				sum += startNs*float64(w.Events()) + espStallNs*float64(res.CPU.StallsOffered)
			}
		}
		return sum / measured, nil
	}
	plainFrac, err := cover(esp.BaselineConfig(), false)
	if err != nil {
		return err
	}
	assistFrac, err := cover(esp.ESPNLConfig(), true)
	if err != nil {
		return err
	}
	reset := median(resetUs)
	rep.layer("sim.reset_us", reset)
	rep.layer("replay.layer_sum_frac_plain", plainFrac)
	rep.layer("replay.layer_sum_frac_assisted", assistFrac)
	return nil
}
