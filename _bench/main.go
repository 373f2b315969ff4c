// Command bench is the repository benchmark. It drives the simulator
// from outside through its public entry points — the in-process
// sim.Runner, espd's serve.Server over loopback HTTP, and espcoord's
// cluster handler over a LocalWorker fleet — on one of three workloads,
// checks every simulated result for correctness, and prints the
// end-to-end metrics (untraced) or the per-layer metrics (traced). The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root):
//
//	bash _bench/run.sh --workload grid-warm|run-open|fleet-cold|all \
//	    --seed N --seconds S --trace 0|1
//	bash _bench/run.sh --describe   # rewrite BENCHMARK.json and _bench/layers.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRounds is how many times each workload is set up; setup_s is
// the median, so two slow rounds do not move it.
const setupRounds = 5

// buildDir, under the repository root, holds the build and everything a
// run leaves: spans, journals and digests.
const buildDir = ".bench_build"

type opts struct {
	seed    int64
	seconds float64
	trace   bool
}

// budget is the measured time of one phase: the whole run untraced, or
// half of it when the run also has a traced phase of equal work.
func (o opts) budget() time.Duration {
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		d /= 2
	}
	return d
}

// report collects one workload's outcome.
type report struct {
	name      string
	attempted int
	failed    int
	setup     []float64
	chk       checker
	e2eVals   map[string]float64
	layerVals map[string]float64
	lines     []string
	tracer    *Tracer
	// rssMB is the high-water resident set read right after the
	// untraced timed phase, before any post-phase reference work.
	rssMB float64
}

func newReport(name string) *report {
	return &report{name: name, e2eVals: make(map[string]float64), layerVals: make(map[string]float64)}
}

func (r *report) e2e(name string, v float64)   { r.e2eVals[name] = v }
func (r *report) layer(name string, v float64) { r.layerVals[name] = v }

// say prints one named figure with its unit in the human-readable block.
func (r *report) say(name string, v float64, unit string) {
	r.lines = append(r.lines, fmt.Sprintf("%-12s %-40s %14.4f %s", r.name, name, v, unit))
}

// sayN is say for a percentile or rate, with its sample count.
func (r *report) sayN(name string, v float64, unit string, n int) {
	r.lines = append(r.lines, fmt.Sprintf("%-12s %-40s %14.4f %s (n=%d)", r.name, name, v, unit, n))
}

// resetPeakRSS starts a new high-water mark for the resident set, so a
// timed phase's peak excludes set-up and reference work before it. It
// reports whether the kernel supports the reset.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the resident set's high-water mark in MiB: since the last
// resetPeakRSS where the kernel reports it, else since process start.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// finish fills the metrics every workload shares and renders the
// result line.
func (r *report) finish(o opts) (resultLine, error) {
	setup := median(r.setup)
	rss := r.rssMB
	r.e2e("setup_s", setup)
	r.e2e("peak_rss_mb", rss)
	r.say("setup_s (median of set-ups)", setup, "s")
	r.say("peak_rss_mb", rss, "MiB")
	fail := 0.0
	if r.attempted > 0 {
		fail = float64(r.failed) / float64(r.attempted)
	}
	r.sayN("fail_frac", fail, "", r.attempted)
	r.lines = append(r.lines, fmt.Sprintf("%-12s correctness: %d cells checked against the reference, %d against %s, %d failures",
		r.name, r.chk.checked, r.chk.golden, goldenPath, len(r.chk.failures)))

	out := resultLine{Correct: r.chk.ok() && r.chk.checked > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricOut)}
	specs, vals := e2eMetrics, r.e2eVals
	if o.trace {
		specs, vals = layerMetrics, r.layerVals
		if r.tracer != nil {
			dir := filepath.Join(buildDir, "spans")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return out, err
			}
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", r.name, o.seed))
			if err := r.tracer.WriteFile(path); err != nil {
				return out, err
			}
			r.lines = append(r.lines, fmt.Sprintf("%-12s spans: %d written to %s", r.name, len(r.tracer.Spans()), path))
		}
	}
	for _, m := range specs {
		v, ok := vals[m.Name]
		if !ok {
			return out, fmt.Errorf("%s: metric %s was not measured", r.name, m.Name)
		}
		out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
		if o.trace {
			r.say(m.Name, v, m.Unit)
		}
	}
	return out, nil
}

var workloads = map[string]func(opts) (*report, error){
	"grid-warm":  runGridWarm,
	"run-open":   runOpen,
	"fleet-cold": runFleetCold,
}

func main() {
	var (
		name     = flag.String("workload", "", "grid-warm, run-open, fleet-cold or all")
		seed     = flag.Int64("seed", 0, "input seed (0 keeps the preset profile seeds)")
		seconds  = flag.Float64("seconds", runSeconds, "measured seconds per run")
		traced   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		describe = flag.Bool("describe", false, "write BENCHMARK.json and _bench/layers.json from the metric tables")
	)
	flag.Parse()
	if *describe {
		if err := writeDescription(); err != nil {
			fatal(err)
		}
		return
	}
	if _, err := os.Stat(goldenPath); err != nil {
		fatal(fmt.Errorf("run from the repository root: %w", err))
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *traced == 1}
	var names []string
	if *name == "all" {
		names = []string{"grid-warm", "run-open", "fleet-cold"}
	} else if _, ok := workloads[*name]; ok {
		names = []string{*name}
	} else {
		keys := make([]string, 0, len(workloads))
		for k := range workloads {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fatal(fmt.Errorf("unknown --workload %q (have %s, all)", *name, strings.Join(keys, ", ")))
	}
	fmt.Printf("bench: nproc=%d GOMAXPROCS=%d %s seed=%d seconds=%g trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.seed, o.seconds, o.trace)
	correct := true
	for _, n := range names {
		rep, err := workloads[n](o)
		if err != nil {
			fatal(err)
		}
		line, err := rep.finish(o)
		if err != nil {
			fatal(err)
		}
		for _, l := range rep.lines {
			fmt.Println(l)
		}
		for _, f := range rep.chk.failures {
			fmt.Fprintln(os.Stderr, "bench: correctness:", f)
		}
		data, err := json.Marshal(line)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		correct = correct && line.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
