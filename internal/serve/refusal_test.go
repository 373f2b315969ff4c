package serve_test

// Every refusal espd or espcoord answers carries its fault.ErrorKind:
// the status comes from fault.HTTPStatus and the body names the kind,
// and each refusal still moves the counter it always has.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"espsim/internal/cluster"
	"espsim/internal/fault"
	"espsim/internal/serve"
	"espsim/internal/serve/metrics"
	"espsim/internal/sim"
	"espsim/internal/tenantq"
)

func quiet() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// send posts body (raw bytes or a value to marshal) under ctx.
func send(ctx context.Context, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	data, ok := body.([]byte)
	if !ok {
		data, _ = json.Marshal(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)).WithContext(ctx))
	return rec
}

func espdMetrics(t *testing.T, s *serve.Server) metrics.Snapshot {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var snap metrics.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// refusalCounters are the /metrics counters a refusal may move.
type refusalCounters struct {
	Bad, Rejected, Quota, Brownout, Shed, Timeouts int64
}

func countersOf(snap metrics.Snapshot) refusalCounters {
	return refusalCounters{
		Bad:      snap.Requests.Bad,
		Rejected: snap.Requests.Rejected,
		Quota:    snap.Overload.QuotaRejected,
		Brownout: snap.Overload.BrownoutRejected,
		Shed:     snap.Overload.DeadlineShed,
		Timeouts: snap.Cells.Timeouts,
	}
}

// wedged builds a one-worker espd whose engine blocks every /run until
// the returned release is called, with one /run already holding the
// worker. queueDepth -1 leaves no ticket beyond that worker's.
func wedged(t *testing.T, queueDepth int) (s *serve.Server, release func()) {
	t.Helper()
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	s = serve.New(serve.Options{Workers: 1, QueueDepth: queueDepth, Logger: quiet(), FaultHook: func(pt sim.FaultPoint) error {
		if pt.Op == "run" {
			started <- struct{}{}
			<-gate
		}
		return nil
	}})
	done := make(chan struct{})
	go func() {
		send(context.Background(), s, "/run", serve.RunRequest{App: "amazon", Config: "base", MaxEvents: 8})
		close(done)
	}()
	<-started
	return s, func() {
		close(gate)
		<-done
	}
}

func TestRefusalBodiesCarryKind(t *testing.T) {
	small := serve.RunRequest{App: "amazon", Config: "base", MaxEvents: 8}
	cases := []struct {
		name string
		kind fault.ErrorKind
		want refusalCounters // counter deltas
		do   func(t *testing.T) (rec *httptest.ResponseRecorder, counters func() refusalCounters, cleanup func())
	}{
		{"bad body", fault.KindConfig, refusalCounters{Bad: 1}, func(t *testing.T) (*httptest.ResponseRecorder, func() refusalCounters, func()) {
			s := serve.New(serve.Options{Workers: 1, Logger: quiet()})
			return send(context.Background(), s, "/run", []byte("{nope")), func() refusalCounters { return countersOf(espdMetrics(t, s)) }, func() {}
		}},
		{"queue full", fault.KindQuota, refusalCounters{Rejected: 1}, func(t *testing.T) (*httptest.ResponseRecorder, func() refusalCounters, func()) {
			s, release := wedged(t, -1)
			return send(context.Background(), s, "/run", small), func() refusalCounters { return countersOf(espdMetrics(t, s)) }, release
		}},
		{"tenant quota", fault.KindQuota, refusalCounters{Quota: 1}, func(t *testing.T) (*httptest.ResponseRecorder, func() refusalCounters, func()) {
			s := serve.New(serve.Options{Workers: 1, Logger: quiet(), Tenants: map[string]tenantq.TenantConfig{"capped": {CellBudget: 1}}})
			capped := small
			capped.Tenant = "capped"
			if rec := send(context.Background(), s, "/run", capped); rec.Code != http.StatusOK {
				t.Fatalf("budgeted run: status %d: %s", rec.Code, rec.Body.String())
			}
			return send(context.Background(), s, "/run", capped), func() refusalCounters { return countersOf(espdMetrics(t, s)) }, func() {}
		}},
		{"brownout", fault.KindBrownout, refusalCounters{Brownout: 1}, func(t *testing.T) (*httptest.ResponseRecorder, func() refusalCounters, func()) {
			// Entry watermarks of about one byte: the first cached
			// workload browns the daemon out on the next admission.
			s := serve.New(serve.Options{Workers: 1, Logger: quiet(), MemBudget: 1 << 30, BrownoutInterval: time.Hour,
				Brownout: tenantq.BrownoutConfig{Enter: [3]float64{1e-9, 1e-9, 1e-9}}})
			t.Cleanup(func() { s.Close() })
			if rec := send(context.Background(), s, "/run", small); rec.Code != http.StatusOK {
				t.Fatalf("warming run: status %d: %s", rec.Code, rec.Body.String())
			}
			return send(context.Background(), s, "/run", serve.RunRequest{App: "bing", Config: "base"}), func() refusalCounters { return countersOf(espdMetrics(t, s)) }, func() {}
		}},
		{"deadline shed", fault.KindShed, refusalCounters{Shed: 1}, func(t *testing.T) (*httptest.ResponseRecorder, func() refusalCounters, func()) {
			s := serve.New(serve.Options{Workers: 1, Logger: quiet()})
			expired := small
			expired.DeadlineMs = -1
			return send(context.Background(), s, "/run", expired), func() refusalCounters { return countersOf(espdMetrics(t, s)) }, func() {}
		}},
		{"timeout", fault.KindTimeout, refusalCounters{Timeouts: 1}, func(t *testing.T) (*httptest.ResponseRecorder, func() refusalCounters, func()) {
			s := serve.New(serve.Options{Workers: 1, Logger: quiet(), FaultHook: func(pt sim.FaultPoint) error {
				if pt.Op == "run" {
					time.Sleep(200 * time.Millisecond)
				}
				return nil
			}})
			slow := small
			slow.TimeoutMs = 20
			return send(context.Background(), s, "/run", slow), func() refusalCounters { return countersOf(espdMetrics(t, s)) }, func() {}
		}},
		{"client gone", fault.KindCanceled, refusalCounters{}, func(t *testing.T) (*httptest.ResponseRecorder, func() refusalCounters, func()) {
			s, release := wedged(t, 1)
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // queued behind the wedged worker, the client is already gone
			return send(ctx, s, "/run", small), func() refusalCounters { return countersOf(espdMetrics(t, s)) }, release
		}},
		{"espcoord quota", fault.KindQuota, refusalCounters{}, func(t *testing.T) (*httptest.ResponseRecorder, func() refusalCounters, func()) {
			return coordSend(t, serve.SweepRequest{Configs: []string{"base", "ESP+NL"}, MaxEvents: 8, Tenant: "capped"})
		}},
		{"espcoord validation", fault.KindConfig, refusalCounters{}, func(t *testing.T) (*httptest.ResponseRecorder, func() refusalCounters, func()) {
			return coordSend(t, serve.SweepRequest{Configs: []string{"base"}, MaxEvents: 8, Shard: "amazon"})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, counters, cleanup := tc.do(t)
			defer cleanup()
			if want := fault.HTTPStatus(tc.kind); rec.Code != want {
				t.Errorf("status %d, want %d (HTTPStatus(%q)): %s", rec.Code, want, tc.kind, rec.Body.String())
			}
			var body serve.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
				t.Fatalf("body %q is not a JSON error", rec.Body.String())
			}
			if body.ErrorKind != tc.kind {
				t.Errorf("error_kind %q, want %q", body.ErrorKind, tc.kind)
			}
			if got := counters(); got != tc.want {
				t.Errorf("counters %+v, want %+v", got, tc.want)
			}
		})
	}
}

// coordSend posts a sweep to an espcoord facade over one LocalWorker
// whose coordinator caps the "capped" tenant at one cell, so a
// two-cell sweep is over quota before any shard is dispatched. espcoord
// keeps no refusal counters; the worker's must not move either.
func coordSend(t *testing.T, req serve.SweepRequest) (*httptest.ResponseRecorder, func() refusalCounters, func()) {
	t.Helper()
	worker := serve.New(serve.Options{Workers: 1, Logger: quiet()})
	c, err := cluster.New(cluster.Options{
		Workers: []cluster.Worker{cluster.NewLocalWorker("w0", worker)},
		Tenants: map[string]tenantq.TenantConfig{"capped": {MaxInFlight: 1}},
		Logger:  quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := send(context.Background(), cluster.NewServer(c), "/sweep", req)
	return rec, func() refusalCounters { return countersOf(espdMetrics(t, worker)) }, func() {}
}
