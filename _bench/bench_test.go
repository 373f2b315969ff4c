package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"espsim/internal/cluster"
	"espsim/internal/serve"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input: 100..1
	}
	cases := []struct {
		p    float64
		want float64
		ok   bool
	}{
		{50, 50, true}, {90, 90, true}, {91, 91, false}, {99, 99, false}, {100, 100, false},
	}
	for _, c := range cases {
		got, ok := percentile(xs, c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("p%g of 1..100 = %g (ok=%v), want %g (ok=%v)", c.p, got, ok, c.want, c.ok)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	// 99 samples: p90 is rank ceil(89.1) = 90, leaving only 9 beyond.
	if _, ok := percentile(xs[:99], 90); ok {
		t.Error("p90 of 99 samples claims ten beyond it")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported ok")
	}
	if v, p := tailPercentile(xs); p != 90 || v != 90 {
		t.Errorf("tail of 100 samples is p%g = %g, want p90 = 90", p, v)
	}
	for p, want := range map[float64]int{50: 20, 75: 40, 90: 100, 99: 1000} {
		if got := minSamples(p); got != want {
			t.Errorf("minSamples(%g) = %d, want %d", p, got, want)
		}
		if _, ok := percentile(make([]float64, want), p); !ok {
			t.Errorf("p%g of minSamples samples is not ok", p)
		}
		if _, ok := percentile(make([]float64, want-1), p); ok {
			t.Errorf("p%g of minSamples-1 samples is ok", p)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := Span{ID: 1, Start: 0, End: 100}
	cases := []struct {
		name     string
		children []Span
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []Span{{Start: 10, End: 20}, {Start: 30, End: 50}}, 70},
		{"overlapping", []Span{{Start: 10, End: 40}, {Start: 30, End: 60}}, 50},
		{"nested", []Span{{Start: 10, End: 80}, {Start: 20, End: 30}}, 30},
		{"touching", []Span{{Start: 10, End: 20}, {Start: 20, End: 30}}, 80},
		{"clipped to parent", []Span{{Start: -50, End: 10}, {Start: 90, End: 150}}, 80},
		{"unsorted", []Span{{Start: 60, End: 70}, {Start: 0, End: 5}, {Start: 65, End: 90}}, 65},
		{"covers all", []Span{{Start: 0, End: 100}, {Start: 40, End: 60}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != time.Duration(c.want) {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestArrivalScheduleDeterministic(t *testing.T) {
	a, b := arrivals(7, 200, 5000), arrivals(7, 200, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two arrival schedules")
	}
	if reflect.DeepEqual(a, arrivals(8, 200, 5000)) {
		t.Fatal("different seeds gave the same arrival schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, a[i], i-1, a[i-1])
		}
	}
	// Poisson at 200/s: the mean gap is 5 ms; 5000 gaps put it within 5%.
	if mean := a[len(a)-1].Seconds() / float64(len(a)); math.Abs(mean-0.005) > 0.00025 {
		t.Errorf("mean inter-arrival %.5f s, want 0.005", mean)
	}
	p, err := makeOpenPlan(7)
	if err != nil {
		t.Fatal(err)
	}
	c1, t1 := openSequence(7, p, 1000)
	c2, t2 := openSequence(7, p, 1000)
	if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(t1, t2) {
		t.Fatal("the same seed gave two request sequences")
	}
	q, err := makeOpenPlan(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.cells {
		if !bytes.Equal(p.cells[i].body, q.cells[i].body) {
			t.Fatalf("cell %s: the same seed gave two request bodies", p.cells[i].key)
		}
	}
}

func TestFleetMaxEventsNeverRepeatsWithinAFleet(t *testing.T) {
	if m := fleetMaxEvents(5, 0); m != goldenMaxEvents {
		t.Fatalf("sweep 0 runs at max_events %d, want the golden %d", m, goldenMaxEvents)
	}
	seen := map[int]bool{goldenMaxEvents: true}
	for k := 1; k < 1+5*fleetCycle; k++ {
		if newCycle(k) {
			seen = map[int]bool{}
		}
		m := fleetMaxEvents(5, k)
		if seen[m] {
			t.Fatalf("sweep %d repeats max_events %d within one fleet", k, m)
		}
		seen[m] = true
		if m == goldenMaxEvents || m < 1 {
			t.Fatalf("sweep %d: max_events %d", k, m)
		}
	}
}

// TestWrappersPassThrough runs the same requests with and without the
// tracing wrappers and requires bit-identical results.
func TestWrappersPassThrough(t *testing.T) {
	body := runBody(serve.RunRequest{App: "amazon", Config: "ESP+NL", MaxEvents: 3})
	run := func(h http.Handler) serve.RunResponse {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		var rr serve.RunResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
			t.Fatal(err)
		}
		return rr
	}
	tr := newTracer()
	plain := run(serve.New(serve.Options{Workers: 1, Logger: quietLogger()}))
	wrapped := run(&tracedHandler{name: "h", next: serve.New(serve.Options{Workers: 1, Logger: quietLogger()}), tr: tr})
	if !sameResult(plain.Result, wrapped.Result) {
		t.Errorf("traced handler changed the result:\n%s\n%s", mustJSON(plain.Result), mustJSON(wrapped.Result))
	}
	if n := len(tr.Spans()); n != 1 {
		t.Errorf("traced handler recorded %d spans, want 1", n)
	}

	req := serve.SweepRequest{Apps: []string{"bing", "mobileweb"}, Configs: []string{"base", "ESP+NL"}, MaxEvents: 2, Sched: "edf"}
	ctx := context.Background()
	direct, err := cluster.NewLocalWorker("a", serve.New(serve.Options{Workers: 1, Logger: quietLogger()})).Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	tw := &tracedWorker{Worker: cluster.NewLocalWorker("b", serve.New(serve.Options{Workers: 1, Logger: quietLogger()})), tr: tr}
	decorated, err := tw.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Cells) != 4 || len(decorated.Cells) != len(direct.Cells) {
		t.Fatalf("cells: direct %d, decorated %d, want 4", len(direct.Cells), len(decorated.Cells))
	}
	for i := range direct.Cells {
		a, b := direct.Cells[i], decorated.Cells[i]
		if a.App != b.App || a.Config != b.Config || a.Result == nil || b.Result == nil || !sameResult(*a.Result, *b.Result) {
			t.Errorf("cell %d: decorated worker changed %s/%s", i, a.App, a.Config)
		}
	}
	if tw.Name() != "b" {
		t.Errorf("decorated worker name %q", tw.Name())
	}
	if got := len(tw.takeShards()); got != 1 {
		t.Errorf("decorated worker recorded %d shards, want 1", got)
	}
}

// TestBenchmarkJSONCurrent requires the committed BENCHMARK.json and
// layers.json to match the metric tables (regenerate with --describe).
func TestBenchmarkJSONCurrent(t *testing.T) {
	bench, _, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../" + benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bench) {
		t.Error("BENCHMARK.json is stale: run `bash _bench/run.sh --describe` from the repository root")
	}
	var doc struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	layers, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(layers, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Errorf("layers.json lists %d per-layer metrics, the table %d", len(doc.PerLayer), len(layerMetrics))
	}
}
