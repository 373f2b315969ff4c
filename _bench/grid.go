package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	esp "espsim"
	"espsim/internal/sim"
	"espsim/internal/workload"
)

// fig9Configs is the Figure 9 grid: the baseline and its six comparison
// machines.
func fig9Configs() []sim.Config {
	return []sim.Config{
		esp.BaselineConfig(), esp.NLConfig(), esp.NLSConfig(),
		esp.RunaheadConfig(), esp.RunaheadNLConfig(),
		esp.ESPConfig(), esp.ESPNLConfig(),
	}
}

// suiteProfiles returns the paper suite at scale 1. Seed 0 keeps the
// preset profile seeds the model was tuned on; any other seed is folded
// into every Profile.Seed, which makes held-out sessions of the same
// shape.
func suiteProfiles(seed int64) []workload.Profile {
	profs := workload.Suite()
	if seed != 0 {
		for i := range profs {
			profs[i].Seed = workload.Hash2(profs[i].Seed, uint64(seed))
		}
	}
	return profs
}

// Grid-warm replays gridSessions held-out sessions of every application,
// each gridScale of a full session: as many simulated instructions as
// the suite at scale 1, over 196 cells instead of 49, so a p90 over the
// cells leaves ten beyond it and one seed's draw weighs less.
const (
	gridSessions = 4
	gridScale    = 0.25
)

// session is one application session of the grid; id names it in cell
// keys.
type session struct {
	id   string
	prof workload.Profile
}

// namedSessions keys each profile by its application name.
func namedSessions(profs []workload.Profile) []session {
	out := make([]session, len(profs))
	for i, p := range profs {
		out[i] = session{p.Name, p}
	}
	return out
}

// gridSessionsOf returns grid-warm's sessions for seed: session j of an
// application folds seed and then j into its preset Profile.Seed.
func gridSessionsOf(seed int64) []session {
	var out []session
	for _, p := range workload.Suite() {
		p = p.Scale(gridScale)
		base := workload.Hash2(p.Seed, uint64(seed))
		for j := 0; j < gridSessions; j++ {
			p.Seed = workload.Hash2(base, uint64(j))
			out = append(out, session{fmt.Sprintf("%s.%d", p.Name, j), p})
		}
	}
	return out
}

// gridCell points into the grid, so a run's long cell order stays small.
type gridCell struct {
	sess *session
	cfg  *sim.Config
}

func (c gridCell) key() string { return c.sess.id + "/" + c.cfg.Name }

// gridOrder returns passes whole passes over the grid: each pass is a
// fresh seeded permutation, so every cell is visited once per pass and
// the order carries no per-run bias.
func gridOrder(seed int64, ss []session, passes int) []gridCell {
	cfgs := fig9Configs()
	var grid []gridCell
	for i := range ss {
		for j := range cfgs {
			grid = append(grid, gridCell{&ss[i], &cfgs[j]})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]gridCell, 0, passes*len(grid))
	for i := 0; i < passes; i++ {
		for _, k := range rng.Perm(len(grid)) {
			out = append(out, grid[k])
		}
	}
	return out
}

// gridRefs computes the reference results of every session under every
// config, one session at a time.
func gridRefs(ss []session, cfgs []sim.Config) (map[string]sim.Result, error) {
	var groups []refGroup
	for _, s := range ss {
		id := s.id
		groups = append(groups, presetGroup(s.prof, cfgs, func(c sim.Config) string { return id + "/" + c.Name }))
	}
	return reference(groups)
}

// defaultFidelity is fidelity_gap_pts on the preset profiles (seed 0),
// computed outside any timed region.
func defaultFidelity() (float64, error) {
	profs := suiteProfiles(0)
	refs, err := gridRefs(namedSessions(profs), []sim.Config{esp.NLSConfig(), esp.ESPNLConfig()})
	if err != nil {
		return 0, err
	}
	return fidelityOf(profs, refs), nil
}

// setupGrid is one set-up of grid-warm: a runner whose workload cache
// holds the grid's sessions and whose pools hold one machine per config.
func setupGrid(ss []session) (*sim.Runner, error) {
	r := sim.NewRunner()
	for _, s := range ss {
		if _, err := r.Workload(s.prof, 0); err != nil {
			return nil, err
		}
	}
	// One short replay per config assembles and pools its machine.
	tiny, err := sim.NewWorkload(ss[0].prof, 1)
	if err != nil {
		return nil, err
	}
	for _, c := range fig9Configs() {
		if _, err := r.RunWorkload("setup/"+c.Name, tiny, c, 0); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// gridPhase is one timed sequence of RunCell calls.
type gridPhase struct {
	keys    []string
	cellMs  []float64
	gapMs   []float64 // caller time between one cell's return and the next call
	insts   int64
	wall    time.Duration
	results map[string]sim.Result
	perf0   sim.Perf
	perf1   sim.Perf
	failed  int
}

// minGridPasses is the fewest passes a timed phase makes, so every
// cell's fastest call is the fastest of at least this many.
const minGridPasses = 3

// runGridPhase calls RunCell over cells in order until the time budget
// and minGridPasses are both met at a whole pass over the grid (or cells
// run out), recording a span per call when tr is non-nil. Whole passes
// give every run the same multiset of cells.
func runGridPhase(r *sim.Runner, cells []gridCell, pass int, budget time.Duration, tr *Tracer, chk *checker, refs map[string]sim.Result) gridPhase {
	ph := gridPhase{results: make(map[string]sim.Result), perf0: r.Perf()}
	start := time.Now()
	last := start
	for i, c := range cells {
		if i%pass == 0 && i >= minGridPasses*pass && time.Since(start) >= budget {
			break
		}
		t := time.Now()
		ph.gapMs = append(ph.gapMs, float64(t.Sub(last))/1e6)
		sp := tr.Begin()
		res, err := r.RunCell(c.key(), c.sess.prof, *c.cfg, 0)
		tr.End(sp, "sim.Runner.RunCell", int64(i+1), 0)
		last = time.Now()
		ph.keys = append(ph.keys, c.key())
		ph.cellMs = append(ph.cellMs, float64(last.Sub(t))/1e6)
		if err != nil {
			ph.failed++
			chk.failf("%s: %v", c.key(), err)
			continue
		}
		ph.insts += res.Insts
		chk.expect("grid-warm "+c.key(), res, refs[c.key()])
		ph.results[c.key()] = res
	}
	ph.wall = time.Since(start)
	ph.perf1 = r.Perf()
	return ph
}

// fastestMs is each cell's fastest call in the phase, in ms. On a shared
// host a call only ever runs slower than the program allows, never
// faster, so the fastest of several calls spread over the whole run is
// the steadiest estimate of what the cell costs.
func (ph gridPhase) fastestMs() map[string]float64 {
	best := make(map[string]float64)
	for i, k := range ph.keys {
		if v, ok := best[k]; !ok || ph.cellMs[i] < v {
			best[k] = ph.cellMs[i]
		}
	}
	return best
}

// gridFigures are a phase's end-to-end figures over its cells' fastest
// calls: the p50 and p90 cell, and the throughput of one pass over the
// grid at those times.
type gridFigures struct {
	p50, p90, perSec, mips float64
	cells                  int
}

func (ph gridPhase) figures() (gridFigures, bool) {
	var f gridFigures
	var ms []float64
	var sumMs float64
	var insts int64
	for k, v := range ph.fastestMs() {
		ms = append(ms, v)
		sumMs += v
		insts += ph.results[k].Insts
	}
	var ok bool
	f.cells = len(ms)
	f.p50, _ = percentile(ms, 50)
	f.p90, ok = percentile(ms, 90)
	if sumMs > 0 {
		f.perSec = float64(len(ms)) / (sumMs / 1e3)
		f.mips = float64(insts) / (sumMs / 1e3) / 1e6
	}
	return f, ok
}

func runGridWarm(o opts) (*report, error) {
	rep := newReport("grid-warm")
	ss := gridSessionsOf(o.seed)

	refs, err := gridRefs(ss, fig9Configs())
	if err != nil {
		return nil, err
	}
	fid, err := defaultFidelity()
	if err != nil {
		return nil, err
	}

	var st *sim.Runner
	for i := 0; i < setupRounds; i++ {
		st = nil
		runtime.GC()
		debug.FreeOSMemory()
		t := time.Now()
		if st, err = setupGrid(ss); err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, time.Since(t).Seconds())
	}

	pass := len(ss) * len(fig9Configs())
	// Far more passes than the budget allows: a pass takes seconds.
	cells := gridOrder(o.seed, ss, int(o.seconds)+minGridPasses+1)
	chk := &rep.chk
	budget := o.budget()

	resetPeakRSS()
	ph := runGridPhase(st, cells, pass, budget, nil, chk, refs)
	rep.rssMB = peakRSSMB()
	rep.attempted += len(ph.cellMs)
	rep.failed += ph.failed

	f, ok := ph.figures()
	if !ok {
		return nil, fmt.Errorf("grid-warm: %d cells leave fewer than %d beyond p90", f.cells, minBeyond)
	}
	rep.e2e("op_ms_p50", f.p50)
	rep.e2e("op_ms_tail", f.p90)
	rep.e2e("ops_per_s", f.perSec)
	rep.e2e("cell_ms_p50", f.p50)
	rep.e2e("sim_minst_per_s", f.mips)
	rep.e2e("fidelity_gap_pts", fid)
	passes := len(ph.cellMs) / pass
	rep.sayN("cell_ms_p50 (fastest call per cell)", f.p50, "ms", f.cells)
	rep.sayN("cell_ms_p90 (fastest call per cell)", f.p90, "ms", f.cells)
	rep.say("ops_per_s (fastest calls)", f.perSec, "1/s")
	rep.say("sim_minst_per_s (fastest calls)", f.mips, "Minst/s")
	all50, _ := percentile(ph.cellMs, 50)
	all90, _ := percentile(ph.cellMs, 90)
	rep.sayN("cell_ms_p50 (every call)", all50, "ms", len(ph.cellMs))
	rep.sayN("cell_ms_p90 (every call)", all90, "ms", len(ph.cellMs))
	rep.say("ops_per_s (every call, timed wall)", float64(len(ph.cellMs))/ph.wall.Seconds(), "1/s")
	rep.say("sim_minst_per_s (every call, timed wall)", float64(ph.insts)/ph.wall.Seconds()/1e6, "Minst/s")
	rep.say(fmt.Sprintf("passes over the %d-cell grid", pass), float64(passes), "")
	rep.say("fidelity_gap_pts", fid, "pts")

	if err := checkRepeat(rep.name, o.seed, digest(refs)); err != nil {
		chk.failf("%v", err)
	}
	if !o.trace {
		return rep, nil
	}

	// The traced phase replays the same cells in the same order on a
	// fresh set-up, so its results and timings compare one for one.
	st = nil
	runtime.GC()
	st2, err := setupGrid(ss)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tph := runGridPhase(st2, cells[:len(ph.cellMs)], pass, time.Duration(1<<62), tr, chk, refs)
	rep.attempted += len(tph.cellMs)
	rep.failed += tph.failed
	compareRuns(chk, ph.results, tph.results)
	tf, _ := tph.figures()
	rep.layer("bench.trace_overhead_frac", tf.p50/f.p50-1)
	lag, at := tailPercentile(tph.gapMs)
	rep.layer("bench.gen_lag_ms_p99", lag)
	rep.sayN(fmt.Sprintf("bench.gen_lag_ms_p99 (caller gap p%.0f)", at), lag, "ms", len(tph.gapMs))
	rep.layer("bench.backlog_grew", 0)
	rep.layer("bench.invalid_rates", 0)
	srvCounters{}.record(rep, 0) // grid-warm has no server, queue or retry layer
	simLayers(rep, subPerf(tph.perf1, tph.perf0), tph.insts)
	simulatedLayers(rep, tph.results)
	rep.tracer = tr
	st2 = nil
	runtime.GC()

	if err := heldoutLayer(rep, o.seed); err != nil {
		return nil, err
	}
	if err := serveProbe(rep, tr, gridProbeBodies()); err != nil {
		return nil, err
	}
	if err := clusterProbe(rep, tr, o); err != nil {
		return nil, err
	}
	inputs, err := gridDecompInputs(firstSessions(ss), o)
	if err != nil {
		return nil, err
	}
	return rep, decompose(rep, inputs)
}

// firstSessions is session 0 of every application in ss.
func firstSessions(ss []session) []workload.Profile {
	var out []workload.Profile
	for i := 0; i < len(ss); i += gridSessions {
		out = append(out, ss[i].prof)
	}
	return out
}

// compareRuns fails the gate when a cell that ran in both the untraced
// and the traced phase produced different simulated statistics.
func compareRuns(chk *checker, untraced, traced map[string]sim.Result) {
	for k, a := range untraced {
		if b, ok := traced[k]; ok && !sameResult(a, b) {
			chk.failf("%s: traced and untraced runs differ", k)
		}
	}
}
