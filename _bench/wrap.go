package main

import (
	"context"
	"net/http"
	"strconv"
	"sync"

	"espsim/internal/cluster"
	"espsim/internal/serve"
)

// Headers carrying the client's request id and span id to the traced
// handler, so server-side spans join their client span.
const (
	reqHeader  = "X-Bench-Req"
	spanHeader = "X-Bench-Span"
)

type spanRefKey struct{}

// spanRef is the request id and the enclosing span, carried in the
// request context from a traced handler down to a traced worker.
type spanRef struct{ req, span int64 }

// tracedHandler records one span per request around next.ServeHTTP.
// With a nil tracer it only forwards.
type tracedHandler struct {
	name string
	next http.Handler
	tr   *Tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)     // absent: 0
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64) // absent: a root span
	sp := h.tr.Begin()
	r = r.WithContext(context.WithValue(r.Context(), spanRefKey{}, spanRef{req: req, span: sp.id}))
	h.next.ServeHTTP(w, r)
	h.tr.End(sp, h.name, req, parent)
}

// shardWall is one shard as its worker reported it.
type shardWall struct {
	wallMs float64
	cells  int
}

// tracedWorker decorates a cluster.Worker: Sweep records a span (when
// tracing) and the worker-reported shard wall time; every other method
// and every result passes through untouched.
type tracedWorker struct {
	cluster.Worker
	tr *Tracer

	mu     sync.Mutex
	shards []shardWall
}

func (w *tracedWorker) Sweep(ctx context.Context, req serve.SweepRequest) (serve.SweepResponse, error) {
	ref, _ := ctx.Value(spanRefKey{}).(spanRef)
	sp := w.tr.Begin()
	resp, err := w.Worker.Sweep(ctx, req)
	w.tr.End(sp, "cluster.Worker.Sweep", ref.req, ref.span)
	if err == nil && len(resp.Cells) > 0 {
		w.mu.Lock()
		w.shards = append(w.shards, shardWall{wallMs: resp.WallMs, cells: len(resp.Cells)})
		w.mu.Unlock()
	}
	return resp, err
}

// takeShards returns and clears the recorded shard walls.
func (w *tracedWorker) takeShards() []shardWall {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.shards
	w.shards = nil
	return s
}
