package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"time"

	esp "espsim"
	"espsim/internal/cluster"
	"espsim/internal/serve"
	"espsim/internal/sim"
	"espsim/internal/trace"
	"espsim/internal/workload"
)

// serveProbe times the serve layer for a workload whose traffic does
// not cross it: enough tiny /run requests for a p99, straight into a
// traced handler with no socket. Its figures are labelled as a probe.
func serveProbe(rep *report, tr *Tracer, bodies [][]byte) error {
	srv := serve.New(serve.Options{Workers: 1, WorkloadCap: 256, Logger: quietLogger()})
	defer srv.Close()
	h := &tracedHandler{name: "serve.Server.ServeHTTP", next: srv, tr: tr}
	walls := make(map[int64]float64)
	n := minSamples(99) + 100
	base := int64(1 << 40) // probe request ids never meet the workload's
	for i := 0; i < n; i++ {
		req := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(bodies[i%len(bodies)]))
		req.Header.Set(reqHeader, strconv.FormatInt(base+int64(i), 10))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var rr serve.RunResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &rr) != nil {
			return fmt.Errorf("serve probe: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		walls[base+int64(i)] = rr.WallMs
	}
	var probe []Span
	for _, s := range tr.Spans() {
		if s.Req >= base {
			probe = append(probe, s)
		}
	}
	serveLayers(rep, probe, walls)
	rep.lines = append(rep.lines, fmt.Sprintf("%-12s serve.* figures come from a %d-request probe", rep.name, n))
	return nil
}

// fleetProbeBodies are tiny /run bodies over the fleet's applications.
func fleetProbeBodies() [][]byte {
	var out [][]byte
	for _, req := range fleetRequests("", 1) {
		for _, app := range req.Apps {
			for _, c := range req.Configs {
				out = append(out, runBody(serve.RunRequest{App: app, Config: c, MaxEvents: 1, Sched: req.Sched}))
			}
		}
	}
	return out
}

// clusterProbe times the cluster layer for a workload whose traffic
// does not cross it: small sweeps through a traced two-node fleet.
func clusterProbe(rep *report, tr *Tracer, o opts) error {
	dir := journalDir(rep.name + "-probe")
	defer os.RemoveAll(dir)
	fs, err := setupFleet(dir, 2, tr)
	if err != nil {
		return err
	}
	defer fs.close()
	base := int64(1 << 41)
	n := minSamples(50)
	start := time.Now()
	for k := 0; k < n; k++ {
		req := serve.SweepRequest{SweepID: fmt.Sprintf("probe%d", k), Apps: []string{"amazon", "bing"},
			Configs: []string{"base", "ESP+NL"}, MaxEvents: 1 + k}
		if _, err := fs.post(req, base+int64(k)); err != nil {
			return fmt.Errorf("cluster probe: %w", err)
		}
	}
	wall := time.Since(start)
	var probe []Span
	for _, s := range tr.Spans() {
		if s.Req >= base {
			probe = append(probe, s)
		}
	}
	clusterLayers(rep, probe, fs.coord.Metrics(), 2, wall)
	rep.lines = append(rep.lines, fmt.Sprintf("%-12s cluster.* figures come from a %d-sweep probe", rep.name, n))
	return nil
}

// clusterLayers derives the cluster layer's metrics from coordinator
// handler spans and the worker-decorator spans under them.
func clusterLayers(rep *report, spans []Span, m cluster.Snapshot, nodes int, wall time.Duration) {
	named := byName(spans)
	shards := named["cluster.Worker.Sweep"]
	kids := childrenOf(spans)
	var fanout, self []float64
	for _, h := range named["cluster.Server.ServeHTTP"] {
		ch := kids[h.ID]
		var slowest time.Duration
		for _, c := range ch {
			slowest = max(slowest, c.dur())
		}
		fanout = append(fanout, float64(h.dur()-slowest)/1e6)
		self = append(self, float64(selfTime(h, ch))/1e6)
	}
	var busy time.Duration
	for _, s := range shards {
		busy += s.dur()
	}
	p50, _ := percentile(durationsMs(shards), 50)
	rep.layer("cluster.shard_ms_p50", p50)
	rep.layer("cluster.fanout_ms_mean", mean(fanout))
	rep.layer("cluster.coord_self_ms_mean", mean(self))
	rep.layer("cluster.worker_busy_frac", float64(busy)/float64(time.Duration(nodes)*wall))
	rep.layer("cluster.steals", float64(m.Shards.Steals))
	rep.layer("cluster.hedges", float64(m.Shards.Hedges))
	rep.layer("cluster.reschedules", float64(m.Shards.Reschedules))
}

// heldoutLayer records fidelity_gap_pts on held-out sessions at scale
// 1: the run's seed, or seed 1 for a seed-0 run.
func heldoutLayer(rep *report, seed int64) error {
	if seed == 0 {
		seed = 1
	}
	profs := suiteProfiles(seed)
	refs, err := gridRefs(namedSessions(profs), []sim.Config{esp.NLSConfig(), esp.ESPNLConfig()})
	if err != nil {
		return err
	}
	gap := fidelityOf(profs, refs)
	rep.layer("fidelity.heldout_gap_pts", gap)
	rep.say(fmt.Sprintf("fidelity_gap_pts (held-out seed %d)", seed), gap, "pts")
	return nil
}

// mobileEvents are the timed mobile sessions' events, truncated to m
// when positive: the inputs BuildSchedule is timed on.
func mobileEvents(m int) [][]trace.Event {
	var out [][]trace.Event
	for _, p := range workload.MobileSuite() {
		sess, err := workload.NewSession(p)
		if err != nil {
			continue // preset profiles always validate
		}
		evs := sess.Events
		if m > 0 && m < len(evs) {
			evs = evs[:m]
		}
		out = append(out, evs)
	}
	return out
}

// gridDecompInputs are grid-warm's inputs for the decomposition pass,
// from profs, one session per application: two seeded applications'
// sessions, every grid cell as a /run body, two-event traces of each
// session, and the full mobile sessions.
func gridDecompInputs(profs []workload.Profile, o opts) (decompInputs, error) {
	in := decompInputs{schedEvents: mobileEvents(0), journalDir: journalDir("grid-decomp")}
	i := int(uint64(o.seed) % uint64(len(profs)))
	for _, p := range []workload.Profile{profs[i], profs[(i+3)%len(profs)]} {
		in.builds = append(in.builds, buildKey{prof: p})
	}
	for _, p := range profs {
		for _, c := range fig9Configs() {
			in.runBodies = append(in.runBodies, runBody(serve.RunRequest{App: p.Name, Config: c.Name}))
		}
		raw, err := encodeTrace(p, 2, math.MaxInt32)
		if err != nil {
			return in, err
		}
		in.traces = append(in.traces, raw)
	}
	return in, nil
}

// gridProbeBodies are tiny /run bodies over grid-warm's cells.
func gridProbeBodies() [][]byte {
	var out [][]byte
	for _, p := range workload.Suite() {
		for _, c := range fig9Configs() {
			out = append(out, runBody(serve.RunRequest{App: p.Name, Config: c.Name, MaxEvents: 1}))
		}
	}
	return out
}
