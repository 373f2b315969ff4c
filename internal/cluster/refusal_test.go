package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"espsim/internal/fault"
	"espsim/internal/serve"
	"espsim/internal/tenantq"
)

// TestWorkerRefusalKeepsKind: a worker that refuses a shard answers
// with an error body naming the refusal's kind, and that kind reaches
// the merged cell — a browned-out worker's cells report "brownout",
// not the unclassified "error".
func TestWorkerRefusalKeepsKind(t *testing.T) {
	// Entry watermarks of about one byte: after one cached /run the
	// worker's next admission browns it out to small-grids-only.
	lw := newWorker("w0", serve.Options{
		Workers:          1,
		MemBudget:        1 << 30,
		Brownout:         tenantq.BrownoutConfig{Enter: [3]float64{1e-9, 1e-9, 1e-9}},
		BrownoutInterval: time.Hour,
	})
	defer lw.Server().Close()
	body, err := json.Marshal(serve.RunRequest{App: "amazon", Config: "base", MaxEvents: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rec := lw.do(context.Background(), http.MethodPost, "/run", body); rec.code != http.StatusOK {
		t.Fatalf("warming /run: status %d: %s", rec.code, rec.buf.String())
	}

	c, err := New(Options{Workers: []Worker{lw}, MaxShardAttempts: 1, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	// 5000 events is bounded but far past the small-grid limit.
	resp, err := c.Run(context.Background(), serve.SweepRequest{Apps: []string{"bing"}, Configs: []string{"base", "ESP+NL"}, MaxEvents: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Cells) != 2 {
		t.Fatalf("merged sweep has %d cells, want 2", len(resp.Cells))
	}
	for _, cell := range resp.Cells {
		if cell.Result != nil || cell.ErrorKind != string(fault.KindBrownout) {
			t.Errorf("cell %s/%s: kind %q result %v, want %q and no result", cell.App, cell.Config, cell.ErrorKind, cell.Result, fault.KindBrownout)
		}
		if !strings.Contains(cell.Error, "503") {
			t.Errorf("cell %s/%s error %q does not name the worker's 503", cell.App, cell.Config, cell.Error)
		}
	}
	if snap := c.Metrics(); snap.Shards.Failed != 1 {
		t.Errorf("shards failed %d, want 1", snap.Shards.Failed)
	}
}
