package cluster

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"

	"espsim/internal/fault"
	"espsim/internal/serve"
)

// Server is the espcoord HTTP facade: the same POST /sweep contract a
// single espd serves, answered by the whole fleet.
//
//	POST /sweep    sharded across workers, merged app-major
//	GET  /metrics  scheduling/quarantine/handoff counters + per-worker breaker state
//	GET  /workers  current app→worker placements
//	GET  /healthz  coordinator liveness
type Server struct {
	c   *Coordinator
	log *slog.Logger
	mux *http.ServeMux

	maxRequestBytes int64
}

// NewServer mounts a Coordinator behind HTTP.
func NewServer(c *Coordinator) *Server {
	s := &Server{c: c, log: c.log, mux: http.NewServeMux(), maxRequestBytes: 8 << 20}
	s.mux.HandleFunc("/sweep", s.handleSweep)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/workers", s.handleWorkers)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler with the same panic isolation as
// espd: a handler panic answers 500, not a dropped connection.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			s.log.Error("coordinator handler panic", "path", r.URL.Path, "panic", fmt.Sprint(p))
			serve.WriteJSON(w, http.StatusInternalServerError, serve.ErrorResponse{Error: "internal error"})
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// handleSweep answers with espd's own contract: the request goes
// through espd's parser, and every error — validation, tenant quota,
// a canceled client — through espd's WriteError, so the status comes
// from fault.HTTPStatus and the body names the kind.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		serve.WriteJSON(w, http.StatusMethodNotAllowed, serve.ErrorResponse{Error: "POST only"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxRequestBytes))
	if err != nil {
		serve.WriteError(w, fault.WithKind(err, fault.KindConfig))
		return
	}
	req, err := serve.ParseSweepRequest(body)
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	resp, err := s.c.Run(r.Context(), req)
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		serve.WriteJSON(w, http.StatusMethodNotAllowed, serve.ErrorResponse{Error: "GET only"})
		return
	}
	serve.WriteJSON(w, http.StatusOK, s.c.Metrics())
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		serve.WriteJSON(w, http.StatusMethodNotAllowed, serve.ErrorResponse{Error: "GET only"})
		return
	}
	serve.WriteJSON(w, http.StatusOK, struct {
		Placements []Placement   `json:"placements"`
		Workers    []WorkerState `json:"workers"`
	}{s.c.Placements(nil), s.c.Metrics().Workers})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
