package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	esp "espsim"
	"espsim/internal/checkpoint"
	"espsim/internal/fault"
	"espsim/internal/serve/metrics"
	"espsim/internal/sim"
	"espsim/internal/tenantq"
	"espsim/internal/trace"
)

// Options configures a Server. The zero value gets sensible defaults
// from withDefaults.
type Options struct {
	// Name identifies this daemon in logs and /metrics (espd -name); a
	// coordinator uses it to label fleet members (default "espd").
	Name string
	// Workers bounds how many simulation cells (or sweep batches) run
	// concurrently (default: NumCPU).
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a
	// worker beyond the ones running; a request arriving past
	// Workers+QueueDepth is rejected with 429 (default: 64).
	QueueDepth int
	// WorkloadCap bounds the runner's LRU workload cache (default: 32
	// materialized arenas; < 0 means unbounded).
	WorkloadCap int
	// DefaultTimeout bounds one cell's simulation when the request does
	// not set timeout_ms (default: 2 minutes).
	DefaultTimeout time.Duration
	// MaxRequestBytes bounds a request body (default: 8 MiB).
	MaxRequestBytes int64
	// TraceLimits bounds inline ESPT traces (default: 4 MiB encoded,
	// 64Ki events, 4Mi instructions).
	TraceLimits trace.Limits
	// Logger receives structured request logs (default: slog.Default).
	Logger *slog.Logger

	// Retry bounds per-cell re-attempts inside a sweep (zero value:
	// 3 attempts, 25ms..1s exponential backoff, 20% jitter; MaxAttempts
	// 1 disables retrying).
	Retry fault.RetryPolicy
	// BreakerThreshold is how many consecutive failures quarantine one
	// (app, config) cell (default 5; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long a quarantined cell stays open before a
	// half-open probe is admitted (default 30s).
	BreakerCooldown time.Duration
	// CheckpointDir enables crash-safe sweep journaling: sweeps carrying
	// a sweep_id append completed cells to <dir>/<sweep_id>.espj and
	// resume from it. Empty disables journaling.
	CheckpointDir string
	// FaultHook installs a chaos injector on the runner (see
	// sim.FaultHook). Testing only; nil in production.
	FaultHook sim.FaultHook

	// TenantDefault applies to tenants with no entry in Tenants (zero
	// value: weight 1, no quotas); Tenants overrides per tenant name.
	// TenantQuantum is the fair queue's DRR round in cells per unit
	// weight (0: 8). MaxTenants bounds distinct tenant names tracked
	// (0: 256).
	TenantDefault tenantq.TenantConfig
	Tenants       map[string]tenantq.TenantConfig
	TenantQuantum float64
	MaxTenants    int

	// MemBudget bounds the workload cache in accounted bytes and arms
	// the brownout controller: past its watermarks the daemon stops
	// caching new workloads, halves concurrency, then admits only small
	// bounded grids — degrading instead of dying. 0 disables both.
	MemBudget int64
	// Brownout tunes the controller's watermarks and hysteresis; its
	// Budget field is overridden by MemBudget.
	Brownout tenantq.BrownoutConfig
	// BrownoutInterval is the background observation cadence — how
	// quickly the controller notices recovery while the daemon idles
	// (default 200ms; admissions also observe synchronously).
	BrownoutInterval time.Duration
	// SmallGridMax is the largest cells×max_events product the deepest
	// brownout level still admits; requests without an explicit
	// max_events bound are never "small" (default 4096).
	SmallGridMax int
}

func (o Options) withDefaults() Options {
	if o.Name == "" {
		o.Name = "espd"
	}
	if o.Workers < 1 {
		o.Workers = runtime.NumCPU()
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.QueueDepth < 0 {
		o.QueueDepth = 0
	}
	if o.WorkloadCap == 0 {
		o.WorkloadCap = 32
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 2 * time.Minute
	}
	if o.MaxRequestBytes <= 0 {
		o.MaxRequestBytes = 8 << 20
	}
	if o.TraceLimits == (trace.Limits{}) {
		o.TraceLimits = trace.Limits{MaxTraceBytes: 4 << 20, MaxEvents: 64 << 10, MaxInsts: 4 << 20}
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	o.Retry = o.Retry.WithDefaults()
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 30 * time.Second
	}
	if o.BrownoutInterval <= 0 {
		o.BrownoutInterval = 200 * time.Millisecond
	}
	if o.SmallGridMax <= 0 {
		o.SmallGridMax = 4096
	}
	return o
}

// Server is the espd simulation service. One Server owns one sim.Runner
// — so every request shares the LRU workload cache and the per-config
// machine pools — plus the admission machinery (worker slots, queue
// tickets) and the metrics the runner's observer feeds.
//
// Create with New, mount anywhere via http.Handler, stop with Drain.
type Server struct {
	opt    Options
	log    *slog.Logger
	runner *sim.Runner
	met    *metrics.Metrics

	// tickets is admission control: capacity Workers+QueueDepth. A
	// request that cannot take a ticket without blocking is rejected
	// with 429. tq is the execution bound — Workers slots handed out by
	// weighted fair queueing across tenants, with per-tenant quotas.
	tickets chan struct{}
	tq      *tenantq.Queue

	// est predicts cell wall times for deadline-aware admission; brown
	// is the memory-pressure controller (nil when MemBudget is 0).
	est   *estimator
	brown *tenantq.Brownout

	stop     chan struct{}
	stopOnce sync.Once

	// exec wraps every sweep cell in the recovery stack: breaker
	// admission, bounded retries with jittered backoff.
	exec *fault.Executor

	// sweeps guards the checkpoint journals: at most one in-flight sweep
	// per sweep_id, so two concurrent resubmissions cannot interleave
	// appends into one file. It maps each claimed id to its journal
	// once open, so Close can fsync-release any a handler has not yet.
	sweepMu sync.Mutex
	sweeps  map[string]*sweepJournal

	draining atomic.Bool
	inflight sync.WaitGroup

	mux *http.ServeMux
}

// New assembles a Server.
func New(opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{
		opt:     opt,
		log:     opt.Logger,
		runner:  sim.NewRunner(),
		met:     metrics.New(),
		tickets: make(chan struct{}, opt.Workers+opt.QueueDepth),
		est:     newEstimator(),
		stop:    make(chan struct{}),
		sweeps:  make(map[string]*sweepJournal),
		mux:     http.NewServeMux(),
	}
	s.tq = tenantq.New(tenantq.Options{
		Slots:      opt.Workers,
		Quantum:    opt.TenantQuantum,
		Default:    opt.TenantDefault,
		Tenants:    opt.Tenants,
		MaxTenants: opt.MaxTenants,
	})
	breakers := fault.NewBreakerSet(opt.BreakerThreshold, opt.BreakerCooldown)
	s.exec = fault.NewExecutor(opt.Retry, breakers, fault.Retryable, 1)
	if opt.WorkloadCap > 0 {
		s.runner.SetWorkloadCap(opt.WorkloadCap)
	}
	if opt.FaultHook != nil {
		s.runner.SetFaultHook(opt.FaultHook)
	}
	// Thread the observability layer through the engine: every replayed
	// cell — including cells inside sweep batches and abandoned
	// (timed-out) cells finishing late — lands in the histogram.
	s.runner.SetObserver(func(ev sim.CellEvent) {
		s.met.CellLatency.Observe(ev.Wall)
		if ev.Err != nil {
			s.met.CellErrors.Add(1)
		} else {
			s.met.CellsOK.Add(1)
			s.est.observe(ev.App, ev.Config, ev.Wall)
		}
	})
	if opt.MemBudget > 0 {
		bcfg := opt.Brownout
		bcfg.Budget = opt.MemBudget
		s.brown = tenantq.NewBrownout(bcfg)
		s.runner.SetWorkloadBudget(opt.MemBudget)
		go s.brownoutLoop(opt.BrownoutInterval)
	}
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/sweep", s.handleSweep)
	s.mux.HandleFunc("/journalz", s.handleJournalz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s
}

// Close fsyncs and releases every sweep journal still open — the last
// step of a clean shutdown, after Drain has returned (or given up).
// Handlers normally close their own journals on the way out; Close
// covers the drain-deadline case where a handler was abandoned mid
// sweep, so the journal on disk ends bit-complete with no torn tail
// for the resuming daemon (or a coordinator handoff) to truncate.
// Journal closes are idempotent, making the handler/Close race safe.
// It also stops the brownout observation loop.
func (s *Server) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.sweepMu.Lock()
	open := maps.Clone(s.sweeps)
	s.sweepMu.Unlock()
	var first error
	for id, jr := range open {
		if err := jr.close(); err != nil {
			s.met.JournalErrors.Add(1)
			s.log.Error("closing sweep journal", "sweep_id", id, "err", err.Error())
			if first == nil {
				first = err
			}
		}
	}
	return first
}

// Runner exposes the engine, so an embedding process can pre-warm the
// cache or read Perf directly.
func (s *Server) Runner() *sim.Runner { return s.runner }

// ServeHTTP implements http.Handler with panic isolation: a panic that
// escapes a handler (the runner already contains simulation panics) is
// answered with 500 instead of killing the daemon's connection.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			s.log.Error("handler panic", "path", r.URL.Path, "panic", fmt.Sprint(p))
			writeStatus(w, http.StatusInternalServerError, errors.New("internal error"))
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// BeginDrain flips the server not-ready without waiting: new work gets
// 503, /readyz fails so load balancers stop routing, in-flight requests
// keep running. Call it before http.Server.Shutdown so readiness turns
// false while connections are still being served, then Drain to wait.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
}

// Drain stops admitting work (every endpoint but /healthz and /metrics
// answers 503, /readyz reports not ready) and waits for in-flight
// requests, bounded by ctx. Call after http.Server.Shutdown has stopped
// accepting connections.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// observeBrownout feeds the controller the cache's accounted footprint
// and applies whatever level it lands on. Called synchronously on every
// admission (so pressure reacts within one request) and from the
// background loop (so recovery happens while idle).
func (s *Server) observeBrownout() tenantq.BrownoutLevel {
	if s.brown == nil {
		return tenantq.BrownNormal
	}
	level := s.brown.Observe(s.runner.CacheBytes())
	s.applyBrownout(level)
	return level
}

// applyBrownout translates a level into engine knobs. Every transition
// is applied idempotently: the knobs are cheap sets, so re-applying the
// current level on every observation costs nothing and needs no state.
func (s *Server) applyBrownout(level tenantq.BrownoutLevel) {
	s.runner.SetCacheAdmit(level < tenantq.BrownNoCache)
	if level >= tenantq.BrownNoCache {
		s.runner.TrimWorkloadCache(s.brown.TrimTarget())
	}
	s.tq.SetDegraded(level >= tenantq.BrownHalfConcurrency)
}

// brownoutLoop re-observes every interval so the controller walks back
// down through its hysteresis while no requests arrive. Stopped by
// Close.
func (s *Server) brownoutLoop(every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.observeBrownout()
		case <-s.stop:
			return
		}
	}
}

// errQueueFull refuses a request arriving past Workers+QueueDepth
// queue tickets: backpressure, counted as Rejected.
var errQueueFull = fault.Sentinel("queue full", fault.KindQuota)

// shape is what admission weighs a request by: its grid and max_events
// (brownout's small-grid test) and its deadline (shedding). run marks a
// /run, whose one cell admit also gives a fair-queue slot; a sweep's
// batches take theirs one by one.
type shape struct {
	apps, configs []string
	maxEvents     int
	arrival       time.Time
	deadlineMs    int64
	run           bool
}

func (sh shape) cells() int { return len(sh.apps) * len(sh.configs) }

func (sh shape) deadline() time.Time { return deadlineOf(sh.deadlineMs, sh.arrival) }

// admit is espd's one admission step, cheapest refusal first: brownout
// (only small bounded grids pass the deepest level), deadline shed
// (every cell provably too slow: zero simulation), a queue ticket, and
// for a /run the tenant's fair-queue slot. It returns the release for
// everything it took, or a kind-carrying refusal for refuse.
func (s *Server) admit(ctx context.Context, tenant string, sh shape) (release func(), err error) {
	if level := s.observeBrownout(); level >= tenantq.BrownSmallOnly &&
		!(sh.maxEvents > 0 && sh.cells()*sh.maxEvents <= s.opt.SmallGridMax) {
		return nil, fmt.Errorf("%w (%s): only grids with cells*max_events <= %d are admitted", tenantq.ErrBrownout, level, s.opt.SmallGridMax)
	}
	if err := s.shed(sh.apps, sh.configs, sh.deadline(), sh.deadlineMs); err != nil {
		return nil, err
	}
	select {
	case s.tickets <- struct{}{}:
	default:
		return nil, fmt.Errorf("%w (%d in flight)", errQueueFull, cap(s.tickets))
	}
	s.met.QueueDepth.Add(1)
	releaseTicket := func() {
		<-s.tickets
		s.met.QueueDepth.Add(-1)
	}
	if !sh.run {
		return releaseTicket, nil
	}
	releaseSlot, err := s.slot(ctx, tenant, 1)
	if err != nil {
		releaseTicket()
		return nil, err
	}
	return func() {
		releaseSlot()
		releaseTicket()
	}, nil
}

// slot waits for the tenant's fair-queue grant of cost cells: the last
// admission stage, taken by admit for a /run and once per application
// batch by a sweep. It fails fast with tenantq.ErrQuota, or with the
// context's error once the client has gone away.
func (s *Server) slot(ctx context.Context, tenant string, cost int) (release func(), err error) {
	release, err = s.tq.Acquire(ctx, tenant, cost)
	if err != nil && !errors.Is(err, tenantq.ErrQuota) {
		err = fmt.Errorf("client went away: %w", err)
	}
	return release, err
}

// shed is the one deadline-shed check: a tenantq.ErrDeadlineShed
// refusal when every cell of the grid provably cannot finish by its
// deadline_ms (see estimator.cannotFinish), nil otherwise.
func (s *Server) shed(apps, configs []string, deadline time.Time, deadlineMs int64) error {
	now := time.Now()
	for _, app := range apps {
		for _, name := range configs {
			if !s.est.cannotFinish(app, name, deadline, now) {
				return nil
			}
		}
	}
	return fmt.Errorf("%w: deadline_ms=%d", tenantq.ErrDeadlineShed, deadlineMs)
}

// count is the per-kind accounting every refusal shares, whether it
// refuses a whole request (refuse) or part of a sweep (a batch over
// quota, a cell shed). cells is how many cells the refused work held.
func (s *Server) count(tenant string, cells int, err error) {
	n := int64(cells)
	switch fault.Classify(err) {
	case fault.KindConfig, fault.KindBuild:
		s.met.BadRequests.Add(1)
	case fault.KindQuota:
		if errors.Is(err, errQueueFull) {
			s.met.Rejected.Add(1)
		} else {
			s.met.QuotaRejected.Add(n)
		}
	case fault.KindBrownout:
		s.met.BrownoutRejected.Add(1)
		s.tq.CountBrownout(tenant)
	case fault.KindShed:
		s.met.DeadlineShed.Add(n)
		s.tq.CountShed(tenant, n)
	default:
		// A client that went away was not refused.
	}
}

// refuse is the one refusal path: it counts err under its kind and
// answers with the kind's status. A shed sweep still answers every
// cell (the partial-results contract): the full grid, each cell shed.
func (s *Server) refuse(w http.ResponseWriter, tenant string, sh shape, err error) {
	s.count(tenant, sh.cells(), err)
	if sh.run || !errors.Is(err, tenantq.ErrDeadlineShed) {
		WriteError(w, err)
		return
	}
	cells := make([]SweepCell, 0, sh.cells())
	for _, app := range sh.apps {
		for _, name := range sh.configs {
			cells = append(cells, SweepCell{App: app, Config: name, Error: err.Error(), ErrorKind: string(fault.KindShed)})
		}
	}
	s.log.Info("sweep shed", "tenant", tenant, "cells", len(cells), "deadline_ms", sh.deadlineMs)
	WriteJSON(w, fault.HTTPStatus(fault.KindShed), SweepResponse{Cells: cells, WallMs: millis(time.Since(sh.arrival))})
}

// enter gates every mutating endpoint: POST only, counted under
// requests, registered with the drain group, rejected while draining.
// exit must be called when the handler returns (iff ok).
func (s *Server) enter(w http.ResponseWriter, r *http.Request, requests *atomic.Int64) (exit func(), ok bool) {
	if r.Method != http.MethodPost {
		writeStatus(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return nil, false
	}
	requests.Add(1)
	s.inflight.Add(1)
	if s.draining.Load() {
		s.inflight.Done()
		s.met.Draining.Add(1)
		writeStatus(w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return nil, false
	}
	return func() { s.inflight.Done() }, true
}

// decode reads a bounded request body, parses it with parse (which
// returns the body's tenant field), and joins that field with the
// X-ESP-Tenant header into the request's tenant. Errors are KindConfig.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, parse func([]byte) (tenant string, err error)) (string, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opt.MaxRequestBytes))
	if err != nil {
		return "", fault.WithKind(fmt.Errorf("reading request body: %w", err), fault.KindConfig)
	}
	field, err := parse(body)
	if err != nil {
		return "", err
	}
	return resolveTenant(field, r.Header.Get(tenantHeader))
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	exit, ok := s.enter(w, r, &s.met.RunRequests)
	if !ok {
		return
	}
	defer exit()

	var req RunRequest
	tenant, err := s.decode(w, r, func(body []byte) (field string, err error) {
		req, err = ParseRunRequest(body)
		return req.Tenant, err
	})
	if err != nil {
		s.refuse(w, "", shape{}, err)
		return
	}
	estApp := req.App
	if estApp == "" {
		estApp = "trace"
	}
	sh := shape{apps: []string{estApp}, configs: []string{req.Config}, maxEvents: req.MaxEvents,
		arrival: time.Now(), deadlineMs: req.DeadlineMs, run: true}
	release, err := s.admit(r.Context(), tenant, sh)
	if err != nil {
		s.refuse(w, tenant, sh, err)
		return
	}
	defer release()

	start := time.Now()
	wl, cfg, err := resolve(s.runner, req, s.opt.TraceLimits)
	if err != nil {
		s.refuse(w, tenant, sh, err)
		return
	}
	// Queue wait may have consumed the deadline; re-check before
	// simulating, and never simulate past what is left of it.
	timeout := timeoutOf(req.TimeoutMs, s.opt.DefaultTimeout)
	if deadline := sh.deadline(); !deadline.IsZero() {
		rem := time.Until(deadline) // read before shed, as in runBatch
		if err := s.shed([]string{wl.App}, []string{cfg.Name}, deadline, req.DeadlineMs); err != nil {
			s.refuse(w, tenant, sh, err)
			return
		}
		timeout = min(timeout, rem)
	}
	label := "run/" + wl.App + "/" + cfg.Name
	res, err := s.runner.RunWorkload(label, wl, cfg, timeout)
	wall := time.Since(start)
	if err != nil {
		if errors.Is(err, sim.ErrTimeout) {
			s.met.Timeouts.Add(1)
		}
		s.log.Error("run", "app", wl.App, "config", cfg.Name, "kind", fault.Classify(err), "wall_ms", wall.Milliseconds(), "err", err.Error())
		WriteError(w, err)
		return
	}
	s.log.Info("run", "app", wl.App, "config", cfg.Name, "status", http.StatusOK, "wall_ms", wall.Milliseconds())
	WriteJSON(w, http.StatusOK, RunResponse{Result: res, WallMs: millis(wall)})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	exit, ok := s.enter(w, r, &s.met.SweepRequests)
	if !ok {
		return
	}
	defer exit()

	var req SweepRequest
	tenant, err := s.decode(w, r, func(body []byte) (field string, err error) {
		req, err = ParseSweepRequest(body)
		return req.Tenant, err
	})
	if err != nil {
		s.refuse(w, "", shape{}, err)
		return
	}
	apps := req.Apps
	if len(apps) == 0 {
		apps = appNames()
	}
	if req.Shard != "" {
		s.met.ShardRequests.Add(1)
	}
	// The whole sweep is one admission unit. A coordinator propagating
	// an exhausted budget (negative deadline_ms) is always shed here:
	// zero simulation, no journal claim, no queueing.
	sh := shape{apps: apps, configs: req.Configs, maxEvents: req.MaxEvents, arrival: time.Now(), deadlineMs: req.DeadlineMs}
	release, err := s.admit(r.Context(), tenant, sh)
	if err != nil {
		s.refuse(w, tenant, sh, err)
		return
	}
	defer release()

	// Checkpoint/resume: a sweep_id on a journaling server replays
	// completed cells from disk and appends new ones as they finish. The
	// id is claimed for the duration of the sweep so concurrent
	// resubmissions cannot interleave appends into one file.
	var jr *sweepJournal
	if req.SweepID != "" && s.opt.CheckpointDir != "" {
		if !s.claimSweep(req.SweepID) {
			s.met.SweepConflict.Add(1)
			writeStatus(w, http.StatusConflict, fmt.Errorf("sweep %q is already running", req.SweepID))
			return
		}
		defer s.releaseSweep(req.SweepID)
		jr, err = openSweepJournal(s.opt.CheckpointDir, apps, req, s.log)
		if err != nil {
			if errors.Is(err, errSweepConflict) {
				s.met.SweepConflict.Add(1)
				writeStatus(w, http.StatusConflict, err)
				return
			}
			s.log.Error("sweep journal", "sweep_id", req.SweepID, "err", err.Error())
			WriteError(w, fmt.Errorf("opening sweep journal: %w", err))
			return
		}
		s.sweepMu.Lock()
		s.sweeps[req.SweepID] = jr
		s.sweepMu.Unlock()
	}

	// Each application is one batch that holds a worker slot while its
	// configurations run back to back, so they share the materialized
	// workload and reuse pooled machines with no interleaving cells
	// evicting them.
	start := time.Now()
	timeout := timeoutOf(req.TimeoutMs, s.opt.DefaultTimeout)
	cells := make([]SweepCell, len(apps)*len(req.Configs))
	var wg sync.WaitGroup
	for ai, app := range apps {
		wg.Add(1)
		go func(ai int, app string) {
			defer wg.Done()
			batch := cells[ai*len(req.Configs) : (ai+1)*len(req.Configs)]
			outstanding := 0
			for ci, name := range req.Configs {
				batch[ci] = SweepCell{App: app, Config: name}
				if res := jr.resumed(app, name); res != nil {
					batch[ci].Result = res
					batch[ci].Resumed = true
					s.met.ResumedCells.Add(1)
				} else {
					outstanding++
				}
			}
			if outstanding == 0 {
				return // fully resumed: no worker slot needed
			}
			// The batch's fair-queue cost is its outstanding cell count,
			// so a tenant sweeping the full grid weighs accordingly
			// against a tenant running single cells.
			releaseSlot, err := s.slot(r.Context(), tenant, outstanding)
			if err != nil {
				s.count(tenant, outstanding, err)
				for ci := range batch {
					if batch[ci].Result == nil {
						batch[ci].Error = fmt.Sprintf("batch not admitted: %v", err)
						batch[ci].ErrorKind = string(fault.Classify(err))
					}
				}
				return
			}
			defer releaseSlot()
			s.runBatch(r.Context(), tenant, app, req, batch, timeout, sh.deadline(), jr)
		}(ai, app)
	}
	wg.Wait()
	wall := time.Since(start)

	failed, skipped, resumed, shed := 0, 0, 0, 0
	for i := range cells {
		switch {
		case cells[i].ErrorKind == string(fault.KindShed):
			shed++
			failed++
		case cells[i].Error != "":
			failed++
		case cells[i].Skipped != "":
			skipped++
		case cells[i].Resumed:
			resumed++
		}
	}
	status := http.StatusOK
	if len(cells) > 0 && shed == len(cells) {
		// Nothing at all could run in time: the partial-results contract
		// still holds (every cell is present), but the status says so.
		status = fault.HTTPStatus(fault.KindShed)
	}
	s.log.Info("sweep", "apps", len(apps), "configs", len(req.Configs), "cells", len(cells), "failed", failed,
		"skipped", skipped, "resumed", resumed, "shed", shed, "tenant", tenant, "shard", req.Shard, "wall_ms", wall.Milliseconds())
	WriteJSON(w, status, SweepResponse{Cells: cells, WallMs: millis(wall)})
}

// claimSweep registers a sweep_id as in flight; false means another
// request holds it.
func (s *Server) claimSweep(id string) bool {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	if _, busy := s.sweeps[id]; busy {
		return false
	}
	s.sweeps[id] = nil
	return true
}

// releaseSweep closes the sweep's journal, if one was opened (fsync
// included; append errors were already counted), then frees its id.
func (s *Server) releaseSweep(id string) {
	s.sweepMu.Lock()
	jr := s.sweeps[id]
	s.sweepMu.Unlock()
	if err := jr.close(); err != nil {
		s.met.JournalErrors.Add(1)
		s.log.Error("closing sweep journal", "sweep_id", id, "err", err.Error())
	}
	s.sweepMu.Lock()
	delete(s.sweeps, id)
	s.sweepMu.Unlock()
}

// runBatch executes one application's outstanding cells sequentially on
// the calling worker, each under the full recovery stack: breaker
// admission (a quarantined cell is skipped, not attempted), bounded
// retries with backoff for retryable failures, structured per-cell
// errors, and a journal append for every success. The workload is
// materialized (or LRU-hit) once for the whole batch. A cell that
// provably cannot finish by the request deadline is shed (never
// simulated) so the rest of the grid comes back as partial results.
func (s *Server) runBatch(ctx context.Context, tenant, app string, req SweepRequest, batch []SweepCell, timeout time.Duration, deadline time.Time, jr *sweepJournal) {
	prof, err := scaledProfile(app, req.Scale)
	if err != nil {
		for ci := range batch {
			if batch[ci].Result == nil {
				batch[ci].Error = err.Error()
				batch[ci].ErrorKind = string(fault.KindConfig)
			}
		}
		return
	}
	for ci := range batch {
		cell := &batch[ci]
		if cell.Result != nil {
			continue // resumed from the journal
		}
		if ctx.Err() != nil {
			// The client is gone: stop burning worker time. Journaled
			// cells survive for the resubmission.
			cell.Error = fmt.Sprintf("batch canceled: %v", ctx.Err())
			cell.ErrorKind = string(fault.KindCanceled)
			continue
		}
		cfg, err := cellConfig(cell.Config, req.Sched, req.MaxEvents, req.MaxPending)
		if err != nil {
			cell.Error = err.Error()
			cell.ErrorKind = string(fault.KindConfig)
			continue
		}
		cellTimeout := timeout
		if !deadline.IsZero() {
			// rem is read before shed: a nil shed then proves rem > 0, and
			// a non-positive timeout would mean none at all.
			rem := time.Until(deadline)
			if err := s.shed([]string{app}, []string{cfg.Name}, deadline, req.DeadlineMs); err != nil {
				cell.Error, cell.ErrorKind = err.Error(), string(fault.KindShed)
				s.count(tenant, 1, err)
				continue
			}
			cellTimeout = min(cellTimeout, rem)
		}
		key := app + "/" + cfg.Name
		var res esp.Result
		out := s.exec.Run(ctx, key, func(attempt int) error {
			// Every cell goes through the runner's cache: the first call
			// materializes, the rest of the batch hits the same arena.
			var rerr error
			res, rerr = s.runner.RunCell("sweep/"+key, prof, cfg, cellTimeout)
			if rerr != nil {
				if errors.Is(rerr, sim.ErrTimeout) {
					s.met.Timeouts.Add(1)
				}
				s.log.Warn("sweep cell", "cell", key, "attempt", attempt, "err", rerr.Error())
			}
			return rerr
		})
		cell.Attempts = out.Attempts
		if out.Skipped {
			cell.Skipped = string(fault.KindBreakerOpen)
			continue
		}
		if out.Err != nil {
			cell.Error = out.Err.Error()
			cell.ErrorKind = string(fault.Classify(out.Err))
			continue
		}
		cell.Result = &res
		if err := jr.append(app, cell.Config, res); err != nil {
			s.met.JournalErrors.Add(1)
			s.log.Error("sweep journal append", "cell", key, "err", err.Error())
		}
	}
}

// JournalView is the GET /journalz view of one sweep journal: the
// header meta plus the "app/config" cells already journaled. This is
// the coordinator's handoff probe — when a worker dies mid-shard, a
// peek at its journal (over HTTP here, or straight off a shared
// checkpoint dir) says which cells are already durable and carries the
// digest to check before the rest of the shard resumes on a peer.
type JournalView struct {
	Meta  checkpoint.Meta `json:"meta"`
	Cells []string        `json:"cells"`
	Torn  bool            `json:"torn,omitempty"`
}

func (s *Server) handleJournalz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeStatus(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	id := r.URL.Query().Get("sweep_id")
	err := validateID("sweep_id", id)
	if id == "" {
		err = errors.New("\"sweep_id\" query parameter is required")
	}
	if err != nil {
		WriteError(w, fault.WithKind(err, fault.KindConfig))
		return
	}
	if s.opt.CheckpointDir == "" {
		writeStatus(w, http.StatusNotFound, errors.New("checkpointing is disabled on this daemon"))
		return
	}
	s.met.JournalPeeks.Add(1)
	meta, records, torn, err := checkpoint.Peek(filepath.Join(s.opt.CheckpointDir, id+".espj"))
	switch {
	case errors.Is(err, os.ErrNotExist):
		writeStatus(w, http.StatusNotFound, fmt.Errorf("no journal for sweep %q", id))
		return
	case errors.Is(err, checkpoint.ErrCorrupt):
		writeStatus(w, http.StatusUnprocessableEntity, err)
		return
	case err != nil:
		WriteError(w, err)
		return
	}
	resp := JournalView{Meta: meta, Cells: make([]string, 0, len(records)), Torn: torn}
	for _, raw := range records {
		var rec journalRecord
		if json.Unmarshal(raw, &rec) == nil {
			resp.Cells = append(resp.Cells, rec.App+"/"+rec.Config)
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeStatus(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	snap := s.met.Snapshot()
	snap.Node = s.opt.Name
	perf := s.runner.Perf()
	snap.Engine = metrics.Engine{
		Cells:            perf.Cells,
		WorkloadBuilds:   perf.WorkloadBuilds,
		WorkloadReuses:   perf.WorkloadReuses,
		WorkloadEvicts:   perf.WorkloadEvicts,
		WorkloadBypasses: perf.WorkloadBypasses,
		CacheBytes:       s.runner.CacheBytes(),
		MachineBuilds:    perf.MachineBuilds,
		MachineReuses:    perf.MachineReuses,
		BuildWallMs:      perf.BuildWall.Milliseconds(),
		SimWallMs:        perf.SimWall.Milliseconds(),
		InstsReused:      perf.InstsReused,
		InstsGenerated:   perf.InstsGenerated,
	}
	if perf.SchedCells > 0 {
		se := &metrics.SchedEngine{
			Cells:              perf.SchedCells,
			Events:             perf.SchedEvents,
			Deadlined:          perf.Deadlined,
			DeadlineMisses:     perf.DeadlineMisses,
			PriorityInversions: perf.PriorityInversions,
		}
		if perf.Deadlined > 0 {
			se.MissRate = float64(perf.DeadlineMisses) / float64(perf.Deadlined)
		}
		for c := 1; c < trace.NumEventClasses; c++ {
			cp := perf.SchedClasses[c]
			if cp.Events == 0 {
				continue
			}
			se.Classes = append(se.Classes, metrics.SchedEngineClass{
				Class:     trace.EventClass(c).String(),
				Events:    cp.Events,
				Deadlined: cp.Deadlined,
				Misses:    cp.Misses,
				P50:       cp.P50Sum / float64(cp.Events),
				P95:       cp.P95Sum / float64(cp.Events),
				P99:       cp.P99Sum / float64(cp.Events),
			})
		}
		snap.Engine.Sched = se
	}
	snap.Queue.Capacity = cap(s.tickets)
	snap.Queue.Workers = s.opt.Workers
	snap.Tenants = s.tq.Snapshot()
	if s.brown != nil {
		bs := s.brown.Snapshot()
		snap.Overload.Brownout = &bs
	}
	breakers := s.exec.Breakers()
	snap.Resilience.Retries = s.exec.Retries()
	snap.Resilience.BreakerTrips = breakers.Trips()
	snap.Resilience.BreakerSkips = breakers.Skips()
	snap.Resilience.BreakerOpen = int64(breakers.OpenCount())
	WriteJSON(w, http.StatusOK, snap)
}

type healthResponse struct {
	Status   string `json:"status"`
	UptimeMs int64  `json:"uptime_ms"`
}

// handleHealthz is liveness: the process is up and serving — 200 even
// while draining (a draining daemon is alive; killing it because a
// probe failed would abort the drain). Routability is /readyz's job.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeStatus(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	h := healthResponse{Status: "ok", UptimeMs: s.met.Snapshot().UptimeMs}
	if s.draining.Load() {
		h.Status = "draining"
	}
	WriteJSON(w, http.StatusOK, h)
}

type readyResponse struct {
	Status      string `json:"status"`
	BreakerOpen int    `json:"breaker_open,omitempty"`
	PresetCells int    `json:"preset_cells,omitempty"`
}

// handleReadyz is readiness: 503 while draining, and 503 while the
// circuit breakers have quarantined more than half the preset
// (app, config) grid — a daemon whose engine is mostly quarantined
// should shed traffic to healthier replicas rather than answer sweeps
// full of breaker_open cells.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeStatus(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	resp := readyResponse{
		Status:      "ready",
		BreakerOpen: s.exec.Breakers().OpenCount(),
		PresetCells: len(appNames()) * len(esp.ConfigNames()),
	}
	code := http.StatusOK
	switch {
	case s.draining.Load():
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	case resp.BreakerOpen*2 > resp.PresetCells:
		resp.Status = "quarantined"
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, resp)
}

// ErrorResponse is the body of every error espd and espcoord answer.
// ErrorKind names the kind the status was chosen by; it is empty on
// protocol refusals (wrong method, draining, sweep_id conflicts,
// missing journals), whose statuses belong to no kind.
type ErrorResponse struct {
	Error     string          `json:"error"`
	ErrorKind fault.ErrorKind `json:"error_kind,omitempty"`
}

// WriteError answers err with the status of its kind — fault.HTTPStatus
// is the only source of error statuses — and a body naming both.
func WriteError(w http.ResponseWriter, err error) {
	kind := fault.Classify(err)
	WriteJSON(w, fault.HTTPStatus(kind), ErrorResponse{Error: err.Error(), ErrorKind: kind})
}

// writeStatus answers a protocol refusal with its own status.
func writeStatus(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, ErrorResponse{Error: err.Error()})
}

// WriteJSON answers v as JSON with status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the status line is gone; nothing left to signal
}

func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
