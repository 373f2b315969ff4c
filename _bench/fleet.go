package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	esp "espsim"
	"espsim/internal/cluster"
	"espsim/internal/serve"
	"espsim/internal/sim"
	"espsim/internal/workload"
)

// Fleet-cold runs in cycles. A cycle is a fresh fleet serving
// fleetCycle sweeps whose truncations are the values of the band
// fleetLo + fleetStep*i in a seeded order: within one fleet's lifetime
// no truncation repeats, so every (application, max_events) workload
// misses the cache, and every cycle costs the same work whatever its
// order. Sweep 0 of a run runs at the golden truncation instead, so its
// preset cells are checked against the committed corpus.
//
// A fleet lives for one cycle because espd pools one machine per
// distinct configuration, MaxEvents included, and a pooled machine
// keeps the last workload it replayed reachable: a long-lived worker
// fed ever-new truncations grows by tens of MiB per sweep (measured:
// about 0.4 MiB per sweep per unit of max_events). peak_rss_mb shows
// that growth within a cycle; restarting between cycles keeps the
// benchmark's own footprint bounded.
const (
	fleetCycle = 6
	fleetLo    = 8
	fleetStep  = 6
	// fleetWarmEvents is the set-up sweep's truncation, outside the band.
	fleetWarmEvents = 7
	// fleetCacheCap is each worker's workload cache bound: one sweep's
	// applications. Every sweep misses the cache by design, so espd's
	// default of 32 would only pin more stale arenas.
	fleetCacheCap = 9
)

// fleetMaxEvents is the truncation of sweep k.
func fleetMaxEvents(seed int64, k int) int {
	if k == 0 {
		return goldenMaxEvents
	}
	c, pos := (k-1)/fleetCycle, (k-1)%fleetCycle
	order := rand.New(rand.NewSource(seed*7919 + int64(c))).Perm(fleetCycle)
	return fleetLo + fleetStep*order[pos]
}

// newCycle reports whether sweep k starts a fresh fleet.
func newCycle(k int) bool { return k > 1 && (k-1)%fleetCycle == 0 }

// fleetRequests are the two grids of one sweep: the suite under the
// paper's baseline and ESP, and the timed mobile profiles under EDF.
func fleetRequests(id string, m int) [2]serve.SweepRequest {
	var apps []string
	for _, p := range workload.Suite() {
		apps = append(apps, p.Name)
	}
	return [2]serve.SweepRequest{
		{SweepID: id + "s", Apps: apps, Configs: []string{"NL+S", "ESP+NL"}, MaxEvents: m},
		{SweepID: id + "m", Apps: []string{"mobileweb", "mobileheavy"}, Configs: []string{"base", "ESP+NL"}, MaxEvents: m, Sched: "edf"},
	}
}

// fleetCells is the cell count of one sweep.
const fleetCells = 7*2 + 2*2

// fleetGroups are the reference groups of one sweep's cells.
func fleetGroups(m int) []refGroup {
	var groups []refGroup
	for _, req := range fleetRequests("", m) {
		for _, app := range req.Apps {
			prof, err := workload.ByName(app)
			if err != nil {
				panic(err) // the grid names only preset applications
			}
			var cfgs []sim.Config
			for _, n := range req.Configs {
				cfg, err := esp.ConfigByName(n)
				if err != nil {
					panic(err) // and only preset configurations
				}
				if req.Sched == "edf" {
					cfg = esp.SchedConfig(cfg, esp.SchedEDF)
				}
				cfg.MaxEvents = m
				cfgs = append(cfgs, cfg)
			}
			app := app
			groups = append(groups, presetGroup(prof, cfgs, func(c sim.Config) string { return fleetKey(app, c.Name, m) }))
		}
	}
	return groups
}

func fleetKey(app, cfg string, m int) string { return fmt.Sprintf("%s/%s/m%d", app, cfg, m) }

// fleetState is one fleet: nproc single-slot espd workers journaling
// into one checkpoint directory, a coordinator over them, and its HTTP
// handler on loopback.
type fleetState struct {
	servers []*serve.Server
	workers []*tracedWorker
	coord   *cluster.Coordinator
	ts      *httptest.Server
	client  *http.Client
	tr      *Tracer
}

func setupFleet(dir string, nodes int, tr *Tracer) (*fleetState, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fs := &fleetState{tr: tr}
	var ws []cluster.Worker
	for i := 0; i < nodes; i++ {
		name := "w" + strconv.Itoa(i)
		srv := serve.New(serve.Options{Name: name, Workers: 1, CheckpointDir: dir, Logger: quietLogger(),
			WorkloadCap: fleetCacheCap})
		tw := &tracedWorker{Worker: cluster.NewLocalWorker(name, srv), tr: tr}
		fs.servers = append(fs.servers, srv)
		fs.workers = append(fs.workers, tw)
		ws = append(ws, tw)
	}
	coord, err := cluster.New(cluster.Options{Workers: ws, CheckpointDir: dir, Logger: quietLogger()})
	if err != nil {
		return nil, err
	}
	fs.coord = coord
	var h http.Handler = cluster.NewServer(coord)
	if tr != nil {
		h = &tracedHandler{name: "cluster.Server.ServeHTTP", next: h, tr: tr}
	}
	fs.ts = httptest.NewServer(h)
	fs.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	return fs, nil
}

func (fs *fleetState) close() {
	fs.ts.Close()
	fs.client.CloseIdleConnections()
	for _, s := range fs.servers {
		s.Close()
	}
}

// post sends one sweep through the coordinator's handler.
func (fs *fleetState) post(req serve.SweepRequest, id int64) (serve.SweepResponse, error) {
	var resp serve.SweepResponse
	hr, err := http.NewRequest(http.MethodPost, fs.ts.URL+"/sweep", bytes.NewReader(mustJSON(req)))
	if err != nil {
		return resp, err
	}
	hr.Header.Set("Content-Type", "application/json")
	sp := fs.tr.Begin()
	if fs.tr != nil {
		hr.Header.Set(reqHeader, strconv.FormatInt(id, 10))
		hr.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10))
	}
	defer fs.tr.End(sp, "client.POST /sweep", id, 0)
	r, err := fs.client.Do(hr)
	if err != nil {
		return resp, err
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return resp, err
	}
	if r.StatusCode != http.StatusOK {
		return resp, fmt.Errorf("sweep %s: status %d: %s", req.SweepID, r.StatusCode, data)
	}
	return resp, json.Unmarshal(data, &resp)
}

// fleetSweep is one client sweep (both grids) as the client saw it.
type fleetSweep struct {
	m     int
	ms    float64
	gapMs float64 // client time between the previous sweep's end and this one's start
	cells []serve.SweepCell
	err   error
}

// fleetPhase is one timed sequence of sweeps over one or more fleets,
// with the layer counters summed across them.
type fleetPhase struct {
	sweeps []fleetSweep
	wall   time.Duration // client time in sweeps; fleet restarts excluded
	cellMs []float64     // worker-reported shard wall per cell
	perf   sim.Perf
	coord  cluster.Snapshot
	ctr    srvCounters
	queued int64
	// rssMB is each fleet's resident high-water mark; its median is the
	// phase's peak_rss_mb, so one cycle's garbage-collection timing does
	// not decide it.
	rssMB []float64
}

// runFleetPhase runs sweeps one at a time, a fresh fleet per cycle,
// until the budget and the sample floor are both met, or exactly count
// sweeps when count > 0.
func runFleetPhase(dir string, nodes int, tr *Tracer, seed int64, budget time.Duration, minSweeps, count int) (*fleetPhase, error) {
	ph := &fleetPhase{}
	var fs *fleetState
	var qp *queuePoller
	var perf0 []sim.Perf
	retire := func() error {
		ph.rssMB = append(ph.rssMB, peakRSSMB())
		ph.queued = max(ph.queued, qp.Stop())
		if err := ph.ctr.add(fs.servers...); err != nil {
			return err
		}
		for i, s := range fs.servers {
			p := s.Runner().Perf()
			ph.perf = addPerf(ph.perf, subPerf(p, perf0[i]))
		}
		m := fs.coord.Metrics()
		ph.coord.Shards.Steals += m.Shards.Steals
		ph.coord.Shards.Hedges += m.Shards.Hedges
		ph.coord.Shards.Reschedules += m.Shards.Reschedules
		for _, w := range fs.workers {
			for _, s := range w.takeShards() {
				ph.cellMs = append(ph.cellMs, s.wallMs/float64(s.cells))
			}
		}
		fs.close()
		fs = nil
		// Collect the retired fleet before the next starts, so each
		// cycle's memory high-water starts from the same floor.
		runtime.GC()
		return nil
	}
	start := func() error {
		var err error
		if fs, err = setupFleet(dir, nodes, tr); err != nil {
			return err
		}
		resetPeakRSS()
		perf0 = perf0[:0]
		var hs []http.Handler
		for _, s := range fs.servers {
			perf0 = append(perf0, s.Runner().Perf())
			hs = append(hs, s)
		}
		qp = pollQueues(hs...)
		return nil
	}
	if err := start(); err != nil {
		return nil, err
	}
	var last time.Time
	for k := 0; ; k++ {
		if count > 0 && k == count || count == 0 && k >= minSweeps && ph.wall >= budget {
			break
		}
		if newCycle(k) {
			if err := retire(); err != nil {
				return nil, err
			}
			if err := start(); err != nil {
				return nil, err
			}
			last = time.Time{}
		}
		m := fleetMaxEvents(seed, k)
		t := time.Now()
		sw := fleetSweep{m: m}
		if !last.IsZero() {
			sw.gapMs = float64(t.Sub(last)) / 1e6
		}
		for i, req := range fleetRequests(fmt.Sprintf("b%d-%d", seed, k), m) {
			resp, err := fs.post(req, int64(2*k+i+1))
			if err != nil {
				sw.err = err
				break
			}
			sw.cells = append(sw.cells, resp.Cells...)
		}
		last = time.Now()
		d := last.Sub(t)
		sw.ms = float64(d) / 1e6
		ph.wall += d
		ph.sweeps = append(ph.sweeps, sw)
	}
	return ph, retire()
}

// verifyFleet checks every returned cell against its reference (and the
// golden corpus at the golden truncation), counting attempted and
// failed cells.
func verifyFleet(rep *report, sweeps []fleetSweep, refs, golden map[string]sim.Result, results map[string]sim.Result) (insts int64) {
	for _, sw := range sweeps {
		rep.attempted += fleetCells
		if sw.err != nil {
			rep.failed += fleetCells
			rep.chk.failf("fleet-cold m=%d: %v", sw.m, sw.err)
			continue
		}
		rep.failed += fleetCells - len(sw.cells)
		for _, c := range sw.cells {
			if c.Result == nil {
				rep.failed++
				rep.chk.failf("fleet-cold %s/%s m=%d: %s %s", c.App, c.Config, sw.m, c.ErrorKind, c.Error)
				continue
			}
			key := fleetKey(c.App, c.Result.Config, sw.m)
			rep.chk.expect("fleet-cold "+key, *c.Result, refs[key])
			if sw.m == goldenMaxEvents {
				rep.chk.expectGolden(c.App+"/"+c.Result.Config, *c.Result, golden)
			}
			if results != nil {
				results[key] = *c.Result
			}
			insts += c.Result.Insts
		}
	}
	return insts
}

// cycleFigures is one cycle's work at each truncation's median sweep:
// the summed sweep ms, the instructions those sweeps simulate, and how
// many truncations there are. Sweep 0, at the golden truncation, runs
// once and is left out. A stall or a collection that lands on a few
// sweeps does not move the medians, as it would the timed wall.
func cycleFigures(sweeps []fleetSweep) (ms float64, insts int64, n int) {
	byM := make(map[int][]float64)
	instsOf := make(map[int]int64)
	for _, sw := range sweeps[1:] {
		if sw.err != nil {
			continue
		}
		byM[sw.m] = append(byM[sw.m], sw.ms)
		var in int64
		for _, c := range sw.cells {
			if c.Result != nil {
				in += c.Result.Insts
			}
		}
		instsOf[sw.m] = in
	}
	for m, v := range byM {
		ms += median(v)
		insts += instsOf[m]
	}
	return ms, insts, len(byM)
}

// fleetRefs computes the reference of every distinct truncation the
// sweeps ran.
func fleetRefs(sweeps []fleetSweep) (map[string]sim.Result, error) {
	seen := make(map[int]bool)
	var groups []refGroup
	for _, sw := range sweeps {
		if !seen[sw.m] {
			seen[sw.m] = true
			groups = append(groups, fleetGroups(sw.m)...)
		}
	}
	return reference(groups)
}

func journalDir(name string) string { return filepath.Join(buildDir, "journal", name) }

func runFleetCold(o opts) (*report, error) {
	rep := newReport("fleet-cold")
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	nodes := runtime.NumCPU()
	dir := journalDir("fleet-cold")
	defer os.RemoveAll(dir)

	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		t := time.Now()
		fs, err := setupFleet(dir, nodes, nil)
		if err != nil {
			return nil, err
		}
		// One warm-up sweep at a truncation the timed sweeps never use.
		for _, req := range fleetRequests(fmt.Sprintf("warm%d-", i), fleetWarmEvents) {
			if _, err := fs.post(req, 0); err != nil {
				fs.close()
				return nil, err
			}
		}
		rep.setup = append(rep.setup, time.Since(t).Seconds())
		fs.close()
	}

	ph, err := runFleetPhase(dir, nodes, nil, o.seed, o.budget(), minSamples(75), 0)
	if err != nil {
		return nil, err
	}
	rep.rssMB = median(ph.rssMB)
	fid, err := defaultFidelity()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	refs, err := fleetRefs(ph.sweeps)
	if err != nil {
		return nil, err
	}
	first := make(map[string]sim.Result)
	for _, g := range fleetGroups(goldenMaxEvents) {
		for _, c := range g.cells {
			first[c.key] = refs[c.key]
		}
	}
	if err := checkRepeat(rep.name, o.seed, digest(first)); err != nil {
		rep.chk.failf("%v", err)
	}
	untracedRes := make(map[string]sim.Result)
	insts := verifyFleet(rep, ph.sweeps, refs, golden, untracedRes)

	var sweepMs []float64
	for _, sw := range ph.sweeps {
		sweepMs = append(sweepMs, sw.ms)
	}
	p50, _ := percentile(sweepMs, 50)
	p75, ok := percentile(sweepMs, 75)
	if !ok {
		return nil, fmt.Errorf("fleet-cold: %d sweeps leave fewer than %d beyond p75", len(sweepMs), minBeyond)
	}
	c50, _ := percentile(ph.cellMs, 50)
	cycMs, cycInsts, cycSweeps := cycleFigures(ph.sweeps)
	perSec := float64(cycSweeps) / (cycMs / 1e3)
	mips := float64(cycInsts) / (cycMs / 1e3) / 1e6
	rep.e2e("op_ms_p50", p50)
	rep.e2e("op_ms_tail", p75)
	rep.e2e("ops_per_s", perSec)
	rep.e2e("cell_ms_p50", c50)
	rep.e2e("sim_minst_per_s", mips)
	rep.e2e("fidelity_gap_pts", fid)
	rep.sayN("sweep_s_p50", p50/1e3, "s", len(sweepMs))
	rep.sayN("sweep_s_p75", p75/1e3, "s", len(sweepMs))
	rep.say("ops_per_s (median sweep per truncation)", perSec, "1/s")
	rep.say("sim_minst_per_s (median sweep per truncation)", mips, "Minst/s")
	rep.say("ops_per_s (every sweep, timed wall)", float64(len(sweepMs))/ph.wall.Seconds(), "1/s")
	rep.say("sim_minst_per_s (every sweep, timed wall)", float64(insts)/ph.wall.Seconds()/1e6, "Minst/s")
	if !o.trace {
		return rep, nil
	}

	// Traced phase: the same sweeps on fresh fleets (so every workload
	// misses the cache again) whose handler and workers record spans.
	tr := newTracer()
	tph, err := runFleetPhase(dir+"-traced", nodes, tr, o.seed, 0, 0, len(ph.sweeps))
	defer os.RemoveAll(dir + "-traced")
	if err != nil {
		return nil, err
	}
	tracedRes := make(map[string]sim.Result)
	tinsts := verifyFleet(rep, tph.sweeps, refs, golden, tracedRes)
	compareRuns(&rep.chk, untracedRes, tracedRes)
	var tms, gaps []float64
	for _, sw := range tph.sweeps {
		tms = append(tms, sw.ms)
		if sw.gapMs > 0 {
			gaps = append(gaps, sw.gapMs)
		}
	}
	rep.layer("bench.trace_overhead_frac", median(tms)/p50-1)
	lag, at := tailPercentile(gaps)
	rep.layer("bench.gen_lag_ms_p99", lag)
	rep.sayN(fmt.Sprintf("bench.gen_lag_ms_p99 (caller gap p%.0f)", at), lag, "ms", len(gaps))
	rep.layer("bench.backlog_grew", 0)
	rep.layer("bench.invalid_rates", 0)
	simLayers(rep, tph.perf, tinsts)
	simulatedLayers(rep, tracedRes)
	tph.ctr.record(rep, tph.queued)
	clusterLayers(rep, tr.Spans(), tph.coord, nodes, tph.wall)
	rep.tracer = tr
	if err := serveProbe(rep, tr, fleetProbeBodies()); err != nil {
		return nil, err
	}
	if err := heldoutLayer(rep, o.seed); err != nil {
		return nil, err
	}
	in := decompInputs{schedEvents: mobileEvents(goldenMaxEvents), journalDir: journalDir("fleet-decomp")}
	for _, req := range fleetRequests("", goldenMaxEvents) {
		for _, app := range req.Apps {
			prof, err := workload.ByName(app)
			if err != nil {
				return nil, err
			}
			sched := esp.SchedFIFO
			if req.Sched == "edf" {
				sched = esp.SchedEDF
			}
			in.builds = append(in.builds, buildKey{prof: prof, maxEvents: goldenMaxEvents, sched: sched})
		}
	}
	for _, sw := range ph.sweeps {
		for _, req := range fleetRequests("x", sw.m) {
			in.sweepBodies = append(in.sweepBodies, mustJSON(req))
		}
	}
	for _, p := range workload.Suite() {
		raw, err := encodeTrace(p, 2, math.MaxInt32)
		if err != nil {
			return nil, err
		}
		in.traces = append(in.traces, raw)
	}
	return rep, decompose(rep, in)
}
