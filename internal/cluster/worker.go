// Package cluster is the coordination plane over a fleet of espd
// workers: espcoord shards a sweep grid application-by-application
// across nodes (affinity placement keeps every configuration of one
// application on one worker, so its LRU workload cache and machine
// pools stay hot), watches node health, quarantines sick or flaky
// nodes behind escalating circuit breakers, steals shards from
// stragglers, and — when a worker dies mid-shard — hands its
// checkpoint journal to a peer so the completed cells replay instead
// of re-simulating. Results are bit-identical to a single-node sweep
// under any placement or failure schedule, because every cell is
// deterministic and the journals are digest-checked before reuse.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"

	"espsim/internal/fault"
	"espsim/internal/serve"
)

// ErrWorkerDown reports a worker that is unreachable or no longer a
// process: the attempt's outcome is unknown and the shard must be
// rescheduled (the worker's journal, if shared, says what survived).
// The sentinel carries KindNet so a shard that dies with its worker
// reports "net" on the wire, not the unclassified fallback — without
// wrapping fault.ErrNet, which would double-count it in the
// coordinator's NetFaults breaker accounting.
var ErrWorkerDown = fault.Sentinel("cluster: worker down", fault.KindNet)

// JournalView is a worker-agnostic read of one sweep journal: espd's
// GET /journalz body.
type JournalView = serve.JournalView

// Worker is the coordinator's view of one espd node. Implementations:
// LocalWorker embeds a *serve.Server in-process (tests, single-binary
// deployments), HTTPWorker fronts a remote daemon.
type Worker interface {
	Name() string
	// Sweep runs one shard. An error means the outcome is unknown or
	// the node refused; the shard will be rescheduled.
	Sweep(ctx context.Context, req serve.SweepRequest) (serve.SweepResponse, error)
	// Probe is the health check: nil means alive and ready.
	Probe(ctx context.Context) error
	// PeekJournal reads the node's journal for sweepID without
	// mutating it; ok is false when the node never journaled that id.
	PeekJournal(ctx context.Context, sweepID string) (JournalView, bool, error)
}

// endpoint speaks the Worker protocol over one way of reaching an espd
// HTTP API: call sends one request and returns the status and body, or
// an ErrWorkerDown error when no answer came back.
type endpoint struct {
	name string
	call func(ctx context.Context, method, path string, body []byte) (code int, raw []byte, err error)
}

// Name implements Worker.
func (e endpoint) Name() string { return e.name }

// Sweep implements Worker.
func (e endpoint) Sweep(ctx context.Context, req serve.SweepRequest) (resp serve.SweepResponse, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return resp, err
	}
	code, raw, err := e.call(ctx, http.MethodPost, "/sweep", body)
	if err == nil {
		err = decodeWorkerResponse(e.name, code, raw, &resp)
	}
	return resp, err
}

// Probe implements Worker: liveness and readiness in one check.
func (e endpoint) Probe(ctx context.Context) error {
	for _, path := range []string{"/healthz", "/readyz"} {
		code, _, err := e.call(ctx, http.MethodGet, path, nil)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("%w: %s: %s answered %d", ErrWorkerDown, e.name, path, code)
		}
	}
	return nil
}

// PeekJournal implements Worker.
func (e endpoint) PeekJournal(ctx context.Context, sweepID string) (view JournalView, ok bool, err error) {
	code, raw, err := e.call(ctx, http.MethodGet, "/journalz?sweep_id="+url.QueryEscape(sweepID), nil)
	if err != nil || code == http.StatusNotFound {
		return view, false, err
	}
	err = decodeWorkerResponse(e.name, code, raw, &view)
	return view, err == nil, err
}

// LocalWorker adapts an in-process *serve.Server to the Worker
// interface by driving its HTTP handlers directly — the same code
// path a remote daemon serves, minus the socket. Kill simulates
// process death: every call from then on fails with ErrWorkerDown,
// including a Sweep already in flight (its response is discarded the
// way a dying process's unsent response would be; its journal appends
// up to the kill are already durable, which is the point).
type LocalWorker struct {
	endpoint
	srv  *serve.Server
	dead atomic.Bool
}

// NewLocalWorker wraps srv as the named fleet member.
func NewLocalWorker(name string, srv *serve.Server) *LocalWorker {
	lw := &LocalWorker{srv: srv}
	lw.endpoint = endpoint{name: name, call: lw.call}
	return lw
}

// Server exposes the embedded daemon (tests wire fault hooks to it).
func (lw *LocalWorker) Server() *serve.Server { return lw.srv }

// Kill marks the worker dead. The embedded server keeps draining
// whatever it was doing (a real process does not vanish mid-syscall
// either), but no result reaches the coordinator again.
func (lw *LocalWorker) Kill() { lw.dead.Store(true) }

func (lw *LocalWorker) call(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	if lw.dead.Load() {
		return 0, nil, fmt.Errorf("%w: %s", ErrWorkerDown, lw.name)
	}
	rec := lw.do(ctx, method, path, body)
	if lw.dead.Load() {
		// Died mid-request: the handler finished (journal closed), but
		// the process is gone before the response made it out.
		return 0, nil, fmt.Errorf("%w: %s died mid-request", ErrWorkerDown, lw.name)
	}
	return rec.code, rec.buf.Bytes(), nil
}

// do drives one handler call through the server's full middleware
// stack and captures the response in memory.
func (lw *LocalWorker) do(ctx context.Context, method, target string, body []byte) *memResponse {
	rec := &memResponse{code: http.StatusOK, hdr: http.Header{}}
	req, err := http.NewRequestWithContext(ctx, method, target, bytes.NewReader(body))
	if err != nil {
		serve.WriteError(rec, err)
		return rec
	}
	lw.srv.ServeHTTP(rec, req)
	return rec
}

// memResponse is a minimal in-memory http.ResponseWriter.
type memResponse struct {
	code int
	hdr  http.Header
	buf  bytes.Buffer
}

func (m *memResponse) Header() http.Header         { return m.hdr }
func (m *memResponse) WriteHeader(c int)           { m.code = c }
func (m *memResponse) Write(p []byte) (int, error) { return m.buf.Write(p) }

// HTTPWorker fronts a remote espd daemon. Transport failures surface
// as ErrWorkerDown (outcome unknown: reschedule); HTTP-level refusals
// carry the daemon's own error string and kind.
type HTTPWorker struct {
	endpoint
	baseURL string
	client  *http.Client
}

// NewHTTPWorker wraps the daemon at baseURL (e.g. "http://host:8080")
// as the named fleet member; client nil means http.DefaultClient.
func NewHTTPWorker(name, baseURL string, client *http.Client) *HTTPWorker {
	if client == nil {
		client = http.DefaultClient
	}
	hw := &HTTPWorker{baseURL: strings.TrimRight(baseURL, "/"), client: client}
	hw.endpoint = endpoint{name: name, call: hw.call}
	return hw
}

func (hw *HTTPWorker) call(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, hw.baseURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hw.client.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %s: %v", ErrWorkerDown, hw.name, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %s: reading response: %v", ErrWorkerDown, hw.name, err)
	}
	return resp.StatusCode, raw, nil
}

// decodeWorkerResponse maps one worker reply onto out: 200 decodes;
// anything else is a refusal from a live node, an error carrying the
// daemon's {"error": ..., "error_kind": ...} body and tagged with that
// kind, so it classifies on the coordinator as it did on the worker (a
// merged cell reports "brownout", not "error"). One exception: a 504
// sweep body that parses as a grid is a deadline shed — every cell is
// answered (some with ErrorKind "deadline_shed"), which is a result to
// merge, not a node failure to reschedule against a deadline that
// already passed.
func decodeWorkerResponse(worker string, code int, raw []byte, out any) error {
	if code == http.StatusGatewayTimeout {
		if sresp, ok := out.(*serve.SweepResponse); ok {
			var cand serve.SweepResponse
			if err := json.Unmarshal(raw, &cand); err == nil && len(cand.Cells) > 0 {
				*sresp = cand
				return nil
			}
		}
	}
	if code != http.StatusOK {
		var eresp serve.ErrorResponse
		_ = json.Unmarshal(raw, &eresp)
		if eresp.Error == "" {
			eresp.Error = strings.TrimSpace(string(raw))
		}
		return fault.WithKind(fmt.Errorf("cluster: worker %s answered %d: %s", worker, code, eresp.Error), eresp.ErrorKind)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("cluster: worker %s: undecodable response: %w", worker, err)
	}
	return nil
}
