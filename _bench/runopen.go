package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	esp "espsim"
	"espsim/internal/eventq"
	"espsim/internal/serve"
	"espsim/internal/serve/metrics"
	"espsim/internal/sim"
	"espsim/internal/tenantq"
	"espsim/internal/trace"
	"espsim/internal/workload"
)

const (
	// fixedRate is run-open's fixed offered load in requests per second:
	// well under one worker slot's capacity, so latency there is service
	// time plus ordinary queueing.
	fixedRate = 200.0
	// p99LimitMs is the latency limit the capacity ladder judges against:
	// the ~100 ms budget PES gives an input event. It sits well above the
	// 20-30 ms scheduling stalls a small shared host shows even when idle,
	// so a rate fails on queueing, where latency climbs steeply, and not
	// on a stall.
	p99LimitMs = 100.0
	// maxGenLagMs is how late the generator may run at p99 before a rate
	// is reported invalid rather than as a latency.
	maxGenLagMs = p99LimitMs / 10
	// traceShare is the fraction of requests carrying an inline trace.
	traceShare = 0.10
	// numTraces is how many distinct inline traces a run draws from;
	// each is one event of at most traceInsts instructions, so an inline
	// request costs about what a cached preset cell does.
	numTraces  = 16
	traceInsts = 4000
)

// tenants are run-open's three tenants; traffic is split evenly, the
// fair-queue weights are not.
var tenants = []string{"gold", "silver", "bronze"}

func tenantWeights() map[string]tenantq.TenantConfig {
	return map[string]tenantq.TenantConfig{
		"gold": {Weight: 4}, "silver": {Weight: 2}, "bronze": {Weight: 1},
	}
}

func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// openConfigs are the machines run-open requests preset cells on.
var openConfigs = []string{"base", "NL+S", "Runahead+NL", "ESP+NL"}

// openCell is one distinct /run request body.
type openCell struct {
	key  string
	body []byte
}

// openPlan is run-open's seeded input set: every distinct cell, the
// reference groups that check them, and the inputs the decomposition
// pass replays.
type openPlan struct {
	cells   []openCell
	presets []int
	inline  []int
	groups  []refGroup
	traces  [][]byte
	builds  []buildKey
}

func runBody(req serve.RunRequest) []byte { return mustJSON(req) }

func makeOpenPlan(seed int64) (*openPlan, error) {
	p := &openPlan{}
	add := func(key string, body []byte, inline bool) {
		if inline {
			p.inline = append(p.inline, len(p.cells))
		} else {
			p.presets = append(p.presets, len(p.cells))
		}
		p.cells = append(p.cells, openCell{key: key, body: body})
	}
	apps := append(workload.Suite(), workload.MobileWeb())
	for _, prof := range apps {
		for m := 1; m <= 4; m++ {
			sets := [][]string{openConfigs}
			if prof.Name == "mobileweb" {
				sets = append(sets, []string{"base@edf", "ESP+NL@edf"})
			}
			for _, names := range sets {
				var cfgs []sim.Config
				for _, n := range names {
					cfg, err := esp.ConfigByName(n)
					if err != nil {
						return nil, err
					}
					cfg.MaxEvents = m
					cfgs = append(cfgs, cfg)
					key := fmt.Sprintf("%s/%s/m%d", prof.Name, n, m)
					add(key, runBody(serve.RunRequest{App: prof.Name, Config: n, MaxEvents: m}), false)
				}
				m := m
				p.groups = append(p.groups, presetGroup(prof, cfgs, func(c sim.Config) string {
					return fmt.Sprintf("%s/%s/m%d", prof.Name, c.Name, m)
				}))
				p.builds = append(p.builds, buildKey{prof: prof, maxEvents: m, sched: cfgs[0].Sched})
			}
		}
	}
	// Inline traces: the first event of held-out sessions.
	for i := 0; i < numTraces; i++ {
		prof := apps[i%len(apps)]
		prof.Seed = workload.Hash2(prof.Seed, uint64(seed)*numTraces+uint64(i)+1)
		raw, err := encodeTrace(prof, 1, traceInsts)
		if err != nil {
			return nil, err
		}
		p.traces = append(p.traces, raw)
		b64 := base64.StdEncoding.EncodeToString(raw)
		var cfgs []sim.Config
		for _, n := range openConfigs {
			cfg, err := esp.ConfigByName(n)
			if err != nil {
				return nil, err
			}
			cfgs = append(cfgs, cfg)
			add(fmt.Sprintf("trace%d/%s", i, n), runBody(serve.RunRequest{TraceB64: b64, Config: n}), true)
		}
		i, raw := i, raw
		g := refGroup{build: func() (*sim.Workload, error) {
			evs, err := trace.ReadFile(bytes.NewReader(raw))
			if err != nil {
				return nil, err
			}
			return sim.MaterializeSourceSched("trace", &eventq.TraceSource{Events: evs}, 0, eventq.SchedFIFO)
		}}
		for _, c := range cfgs {
			g.cells = append(g.cells, refCell{key: fmt.Sprintf("trace%d/%s", i, c.Name), cfg: c})
		}
		p.groups = append(p.groups, g)
	}
	return p, nil
}

// encodeTrace records the first n events of prof's session, each cut
// to at most maxInsts instructions, as an ESPT file.
func encodeTrace(prof workload.Profile, n, maxInsts int) ([]byte, error) {
	sess, err := workload.NewSession(prof)
	if err != nil {
		return nil, err
	}
	evs := make([]trace.EventTrace, 0, n)
	for _, ev := range sess.Events[:n] {
		evs = append(evs, trace.EventTrace{Event: ev, Insts: trace.Record(sess.Gen.Stream(ev, false), min(ev.Len, maxInsts))})
	}
	var buf bytes.Buffer
	if err := trace.WriteFile(&buf, evs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// arrivals returns n Poisson arrival offsets at rate per second; the
// same seed always gives the same schedule.
func arrivals(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// openSequence draws n requests: which cell each asks for and which
// tenant sends it.
func openSequence(seed int64, p *openPlan, n int) (cells, tenantIdx []int) {
	rng := rand.New(rand.NewSource(seed))
	cells, tenantIdx = make([]int, n), make([]int, n)
	for i := range cells {
		if rng.Float64() < traceShare {
			cells[i] = p.inline[rng.Intn(len(p.inline))]
		} else {
			cells[i] = p.presets[rng.Intn(len(p.presets))]
		}
		tenantIdx[i] = rng.Intn(len(tenants))
	}
	return cells, tenantIdx
}

// openState is one set-up of run-open: espd behind a loopback listener
// and a client with at most nproc keep-alive connections.
type openState struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	conns  int
	tr     *Tracer
}

func setupOpen(p *openPlan, tr *Tracer) (*openState, error) {
	conns := runtime.NumCPU()
	srv := serve.New(serve.Options{
		Workers:     max(1, conns-1), // fewer worker slots than connections
		WorkloadCap: 256,
		Logger:      quietLogger(),
		Tenants:     tenantWeights(),
	})
	var h http.Handler = srv
	if tr != nil {
		h = &tracedHandler{name: "serve.Server.ServeHTTP", next: srv, tr: tr}
	}
	st := &openState{
		srv: srv,
		ts:  httptest.NewServer(h),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
		conns: conns,
		tr:    tr,
	}
	// Every distinct cell once: preset workloads enter the cache and
	// every machine pool gets its machine.
	for i, c := range p.cells {
		code, body := st.post(c.body, tenants[i%len(tenants)], 0)
		if code != http.StatusOK {
			st.close()
			return nil, fmt.Errorf("run-open set-up: %s: status %d: %s", c.key, code, body)
		}
	}
	return st, nil
}

func (st *openState) close() {
	st.ts.Close()
	st.client.CloseIdleConnections()
	st.srv.Close()
}

// post sends one /run request and returns its status and body (status
// 0 for a transport error).
func (st *openState) post(body []byte, tenant string, req int64) (int, []byte) {
	hr, err := http.NewRequest(http.MethodPost, st.ts.URL+"/run", bytes.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-ESP-Tenant", tenant)
	sp := st.tr.Begin()
	if st.tr != nil {
		hr.Header.Set(reqHeader, strconv.FormatInt(req, 10))
		hr.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10))
	}
	defer st.tr.End(sp, "client.POST /run", req, 0)
	resp, err := st.client.Do(hr)
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, []byte(err.Error())
	}
	return resp.StatusCode, data
}

// openOutcome is one open-loop phase at one rate.
type openOutcome struct {
	rate    float64
	latMs   []float64 // due → response; +Inf for a failed request
	lagMs   []float64 // how late the generator handed each request out
	status  []int
	bodies  [][]byte
	cells   []int
	elapsed time.Duration
	grew    bool
}

func (o *openOutcome) failures() int {
	n := 0
	for _, s := range o.status {
		if s != http.StatusOK {
			n++
		}
	}
	return n
}

// valid reports whether the generator kept to the schedule.
func (o *openOutcome) valid() bool {
	lag, _ := percentile(o.lagMs, 99)
	return lag <= maxGenLagMs
}

// passes reports whether the rate met the latency limit with no failed
// request, a valid generator and no growing backlog.
func (o *openOutcome) passes() bool {
	p99, ok := percentile(o.latMs, 99)
	return ok && p99 <= p99LimitMs && o.failures() == 0 && o.valid() && !o.grew
}

// phase offers the requests at their scheduled times from one generator
// goroutine to nproc senders, each holding one keep-alive connection.
// Requests due while every sender is busy wait in the client, which is
// what an open loop's backlog is; latency runs from the due time.
func (st *openState) phase(p *openPlan, seed int64, rate float64, n int, reqBase int64) *openOutcome {
	arr := arrivals(seed, rate, n)
	cells, ten := openSequence(seed^0x5eed, p, n)
	o := &openOutcome{rate: rate, cells: cells, latMs: make([]float64, n), lagMs: make([]float64, n),
		status: make([]int, n), bodies: make([][]byte, n)}
	backlog := make([]float64, n)
	jobs := make(chan int, n) // sized to the number of sends: the generator never blocks
	var done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < st.conns; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				code, body := st.post(p.cells[cells[i]].body, tenants[ten[i]], reqBase+int64(i))
				o.latMs[i] = float64(time.Since(start)-arr[i]) / 1e6
				o.status[i], o.bodies[i] = code, body
				if code != http.StatusOK {
					o.latMs[i] = math.Inf(1)
				}
				done.Add(1)
			}
		}()
	}
	for i, due := range arr {
		if d := time.Until(start.Add(due)); d > 0 {
			time.Sleep(d)
		}
		o.lagMs[i] = float64(time.Since(start)-due) / 1e6
		backlog[i] = float64(int64(i) - done.Load())
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	o.elapsed = time.Since(start)
	// The backlog grew when, as the last request fell due, more were
	// outstanding than the limit's worth of arrivals: a queue that long
	// cannot drain within the limit.
	o.grew = backlog[n-1] > rate*p99LimitMs/1e3
	return o
}

// verify decodes every response of a phase, checks its result against
// the reference, and returns the server-reported cell walls and the
// simulated instructions.
func verifyOpen(o *openOutcome, p *openPlan, refs map[string]sim.Result, chk *checker, results map[string]sim.Result) (wallMs []float64, insts int64) {
	for i, code := range o.status {
		key := p.cells[o.cells[i]].key
		if code != http.StatusOK {
			chk.failf("run-open %s: status %d: %s", key, code, o.bodies[i])
			continue
		}
		var rr serve.RunResponse
		if err := json.Unmarshal(o.bodies[i], &rr); err != nil {
			chk.failf("run-open %s: decoding response: %v", key, err)
			continue
		}
		chk.expect("run-open "+key, rr.Result, refs[key])
		if results != nil {
			results[key] = rr.Result
		}
		wallMs = append(wallMs, rr.WallMs)
		insts += rr.Result.Insts
	}
	return wallMs, insts
}

// rungSamples is the request count of one ladder rate: enough for a p99
// with ten samples beyond it, and at least a second of load.
func rungSamples(rate float64) int {
	return max(minSamples(99)+100, int(rate))
}

// ladder finds the highest rate that meets the p99 limit, starting from
// the fixed-rate outcome: up by 1.5x while rates pass (down while they
// fail), then three geometric bisections between the last pass and the
// first failure. It returns the achieved throughput at the best passing
// rate and every rate it tried.
func (st *openState) ladder(p *openPlan, seed int64, fixed *openOutcome, reqBase *int64) (float64, []*openOutcome) {
	try := func(rate float64) *openOutcome {
		n := rungSamples(rate)
		o := st.phase(p, seed+int64(rate*1000), rate, n, *reqBase)
		*reqBase += int64(n)
		return o
	}
	var rungs []*openOutcome
	var pass, fail *openOutcome
	if fixed.passes() {
		pass = fixed
	} else {
		fail = fixed
	}
	for k := 0; k < 8 && (pass == nil || fail == nil); k++ {
		rate := fixed.rate
		if pass != nil {
			rate = pass.rate * 1.5
		} else {
			rate = fail.rate / 1.5
		}
		o := try(rate)
		rungs = append(rungs, o)
		if o.passes() {
			pass = o
		} else {
			fail = o
		}
	}
	for k := 0; k < 3 && pass != nil && fail != nil; k++ {
		o := try(math.Sqrt(pass.rate * fail.rate))
		rungs = append(rungs, o)
		if o.passes() {
			pass = o
		} else {
			fail = o
		}
	}
	if pass == nil {
		return 0, rungs
	}
	return float64(len(pass.status)) / pass.elapsed.Seconds(), rungs
}

// metricsOf reads a server's /metrics document straight off its handler.
func metricsOf(h http.Handler) (metrics.Snapshot, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var s metrics.Snapshot
	if rec.Code != http.StatusOK {
		return s, fmt.Errorf("/metrics: status %d", rec.Code)
	}
	return s, json.Unmarshal(rec.Body.Bytes(), &s)
}

// queuePoller samples the fair queues' total waiting acquisitions off
// /metrics while a phase runs.
type queuePoller struct {
	stop chan struct{}
	done chan struct{}
	max  int64
}

func pollQueues(hs ...http.Handler) *queuePoller {
	qp := &queuePoller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(qp.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-qp.stop:
				return
			case <-tick.C:
			}
			var q int64
			for _, h := range hs {
				s, err := metricsOf(h)
				if err != nil {
					continue
				}
				for _, t := range s.Tenants {
					q += t.QueueDepth
				}
			}
			qp.max = max(qp.max, q)
		}
	}()
	return qp
}

// Stop ends the poller and returns the highest total it saw.
func (qp *queuePoller) Stop() int64 {
	close(qp.stop)
	<-qp.done
	return qp.max
}

// serveLayers derives the serve layer's span metrics: handler time, and
// handler self time net of the build and replay the server reports per
// request.
func serveLayers(rep *report, spans []Span, wallByReq map[int64]float64) {
	handler := byName(spans)["serve.Server.ServeHTTP"]
	ms := durationsMs(handler)
	p50, _ := percentile(ms, 50)
	p99, ok := percentile(ms, 99)
	if !ok {
		p99 = 0
	}
	rep.layer("serve.handler_ms_p50", p50)
	rep.layer("serve.handler_ms_p99", p99)
	var self []float64
	for _, s := range handler {
		if w, ok := wallByReq[s.Req]; ok {
			self = append(self, float64(s.dur())/1e6-w)
		}
	}
	rep.layer("serve.self_ms_mean", mean(self))
	rep.sayN("serve.handler_ms_p99", p99, "ms", len(ms))
}

// wallsByReq maps each successful response's request id to the
// server-reported cell wall.
func wallsByReq(o *openOutcome, reqBase int64) map[int64]float64 {
	out := make(map[int64]float64)
	for i, code := range o.status {
		var rr serve.RunResponse
		if code == http.StatusOK && json.Unmarshal(o.bodies[i], &rr) == nil {
			out[reqBase+int64(i)] = rr.WallMs
		}
	}
	return out
}

func runOpen(o opts) (*report, error) {
	rep := newReport("run-open")
	plan, err := makeOpenPlan(o.seed)
	if err != nil {
		return nil, err
	}
	refs, err := reference(plan.groups)
	if err != nil {
		return nil, err
	}
	if err := checkRepeat(rep.name, o.seed, digest(refs)); err != nil {
		rep.chk.failf("%v", err)
	}
	var st *openState
	for i := 0; i < setupRounds; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		runtime.GC()
		t := time.Now()
		if st, err = setupOpen(plan, nil); err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, time.Since(t).Seconds())
	}
	defer func() { st.close() }()

	n := max(rungSamples(fixedRate), int(fixedRate*o.budget().Seconds()/2))
	if o.trace {
		n = max(rungSamples(fixedRate), int(fixedRate*o.budget().Seconds()))
	}
	var reqBase int64 = 1
	resetPeakRSS()
	fixed := st.phase(plan, o.seed, fixedRate, n, reqBase)
	reqBase += int64(n)
	rep.rssMB = peakRSSMB()
	fid, err := defaultFidelity()
	if err != nil {
		return nil, err
	}
	untracedRes := make(map[string]sim.Result)
	walls, insts := verifyOpen(fixed, plan, refs, &rep.chk, untracedRes)
	rep.attempted += len(fixed.status)
	rep.failed += fixed.failures()

	p50, _ := percentile(fixed.latMs, 50)
	p90, _ := percentile(fixed.latMs, 90)
	p99, ok := percentile(fixed.latMs, 99)
	if !ok {
		return nil, fmt.Errorf("run-open: %d requests leave fewer than %d beyond p99", n, minBeyond)
	}
	cell50, _ := percentile(walls, 50)
	rep.e2e("op_ms_p50", p50)
	rep.e2e("op_ms_tail", p90)
	rep.e2e("cell_ms_p50", cell50)
	rep.e2e("sim_minst_per_s", float64(insts)/(sum(walls)/1e3)/1e6)
	rep.e2e("fidelity_gap_pts", fid)
	lag, _ := percentile(fixed.lagMs, 99)
	rep.sayN(fmt.Sprintf("run_ms_p50 @ %.0f req/s", fixedRate), p50, "ms", n)
	rep.sayN(fmt.Sprintf("run_ms_p90 @ %.0f req/s", fixedRate), p90, "ms", n)
	rep.sayN(fmt.Sprintf("run_ms_p99 @ %.0f req/s", fixedRate), p99, "ms", n)
	rep.say("bench.gen_lag_ms_p99", lag, "ms")
	rep.say("backlog grew", b2f(fixed.grew), "")
	invalid := 0
	if !fixed.valid() {
		invalid++
		rep.lines = append(rep.lines, "run-open     fixed rate INVALID: the generator fell behind its schedule")
	}
	if !o.trace {
		capacity, rungs := st.ladder(plan, o.seed, fixed, &reqBase)
		for _, r := range rungs {
			verifyOpen(r, plan, refs, &rep.chk, nil)
			rep.attempted += len(r.status)
			rep.failed += r.failures()
			rp99, _ := percentile(r.latMs, 99)
			rlag, _ := percentile(r.lagMs, 99)
			verdict := "pass"
			switch {
			case !r.valid():
				verdict, invalid = "INVALID (generator behind)", invalid+1
			case !r.passes():
				verdict = "miss"
			}
			rep.lines = append(rep.lines, fmt.Sprintf("run-open     ladder %7.1f req/s: p99 %8.3f ms, gen lag p99 %.3f ms, backlog grew %v, n=%d: %s",
				r.rate, rp99, rlag, r.grew, len(r.status), verdict))
		}
		if capacity == 0 {
			return nil, fmt.Errorf("run-open: no rate met the %.0f ms p99 limit", p99LimitMs)
		}
		rep.e2e("ops_per_s", capacity)
		rep.say(fmt.Sprintf("run_capacity_rps (p99 <= %.0f ms)", p99LimitMs), capacity, "req/s")
		return rep, nil
	}

	// Traced phase: the same requests on the same schedule, against a
	// fresh set-up whose handler records spans.
	st.close()
	tr := newTracer()
	tst, err := setupOpen(plan, tr)
	if err != nil {
		return nil, err
	}
	st = tst
	perf0 := st.srv.Runner().Perf()
	qp := pollQueues(st.srv)
	traced := st.phase(plan, o.seed, fixedRate, n, reqBase)
	queued := qp.Stop()
	perf1 := st.srv.Runner().Perf()
	tracedRes := make(map[string]sim.Result)
	_, tinsts := verifyOpen(traced, plan, refs, &rep.chk, tracedRes)
	compareRuns(&rep.chk, untracedRes, tracedRes)
	rep.attempted += len(traced.status)
	rep.failed += traced.failures()
	if !traced.valid() {
		invalid++
	}
	tp50, _ := percentile(traced.latMs, 50)
	rep.layer("bench.trace_overhead_frac", tp50/p50-1)
	tlag, _ := percentile(traced.lagMs, 99)
	rep.layer("bench.gen_lag_ms_p99", max(lag, tlag))
	rep.layer("bench.backlog_grew", b2f(fixed.grew || traced.grew))
	rep.layer("bench.invalid_rates", float64(invalid))
	serveLayers(rep, tr.Spans(), wallsByReq(traced, reqBase))
	var ctr srvCounters
	if err := ctr.add(st.srv); err != nil {
		return nil, err
	}
	ctr.record(rep, queued)
	simLayers(rep, subPerf(perf1, perf0), tinsts)
	simulatedLayers(rep, tracedRes)
	rep.tracer = tr
	if err := clusterProbe(rep, tr, o); err != nil {
		return nil, err
	}
	var bodies [][]byte
	for _, c := range plan.cells {
		bodies = append(bodies, c.body)
	}
	if err := heldoutLayer(rep, o.seed); err != nil {
		return nil, err
	}
	return rep, decompose(rep, decompInputs{
		builds:      plan.builds,
		runBodies:   bodies,
		traces:      plan.traces,
		schedEvents: mobileEvents(4),
		journalDir:  journalDir("run-open"),
	})
}

// srvCounters are the refusal and retry counters off espd's /metrics.
type srvCounters struct{ r429, r503, r504, retries int64 }

func (c *srvCounters) add(srvs ...*serve.Server) error {
	for _, s := range srvs {
		m, err := metricsOf(s)
		if err != nil {
			return err
		}
		c.r429 += m.Requests.Rejected + m.Overload.QuotaRejected
		c.r503 += m.Requests.Draining + m.Overload.BrownoutRejected
		c.r504 += m.Cells.Timeouts + m.Overload.DeadlineShed
		c.retries += m.Resilience.Retries
	}
	return nil
}

// record writes the counters and the fair queues' high-water mark.
func (c srvCounters) record(rep *report, queued int64) {
	rep.layer("serve.refused_429", float64(c.r429))
	rep.layer("serve.refused_503", float64(c.r503))
	rep.layer("serve.refused_504", float64(c.r504))
	rep.layer("tenantq.queued_max", float64(queued))
	rep.layer("fault.retries", float64(c.retries))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
