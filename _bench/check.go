package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"espsim/internal/sim"
	"espsim/internal/workload"
)

// goldenPath is the repository's bit-exact corpus, read from the root
// of the checkout the benchmark runs in.
const goldenPath = "testdata/golden.json"

// goldenMaxEvents is the truncation the corpus was recorded at.
const goldenMaxEvents = 48

// refGroup is every reference cell that shares one materialized
// workload: it is built once, replayed per config, then dropped, so
// the reference pass never holds more than nproc workloads.
type refGroup struct {
	build func() (*sim.Workload, error)
	cells []refCell
}

type refCell struct {
	key string
	cfg sim.Config
}

// presetGroup is the refGroup for one profile at one truncation and
// dispatch policy.
func presetGroup(prof workload.Profile, cfgs []sim.Config, keyOf func(sim.Config) string) refGroup {
	g := refGroup{build: func() (*sim.Workload, error) {
		return sim.NewWorkloadSched(prof, cfgs[0].MaxEvents, cfgs[0].Sched)
	}}
	for _, c := range cfgs {
		g.cells = append(g.cells, refCell{key: keyOf(c), cfg: c})
	}
	return g
}

// reference computes every group's cells through a fresh in-process
// sim.Runner per group, nproc groups at a time. It runs outside every
// timed region.
func reference(groups []refGroup) (map[string]sim.Result, error) {
	var (
		mu    sync.Mutex
		out   = make(map[string]sim.Result)
		first error
		wg    sync.WaitGroup
		next  = make(chan refGroup)
	)
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range next {
				w, err := g.build()
				res := make(map[string]sim.Result, len(g.cells))
				if err == nil {
					r := sim.NewRunner()
					for _, c := range g.cells {
						var rr sim.Result
						if rr, err = r.RunWorkload("ref/"+c.key, w, c.cfg, 0); err != nil {
							break
						}
						res[c.key] = rr
					}
				}
				mu.Lock()
				if err != nil && first == nil {
					first = fmt.Errorf("reference: %w", err)
				}
				for k, v := range res {
					out[k] = v
				}
				mu.Unlock()
			}
		}()
	}
	for _, g := range groups {
		next <- g
	}
	close(next)
	wg.Wait()
	return out, first
}

// sameResult compares two results bit for bit through their canonical
// JSON encoding (float64 round-trips exactly), so a result decoded off
// the wire compares equal to one computed in-process.
func sameResult(a, b sim.Result) bool {
	return bytes.Equal(mustJSON(a), mustJSON(b))
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // sim.Result always encodes
	}
	return data
}

// loadGolden reads the corpus keyed "app/config".
func loadGolden() (map[string]sim.Result, error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("reading golden corpus: %w", err)
	}
	var g map[string]sim.Result
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", goldenPath, err)
	}
	return g, nil
}

// checker accumulates the correctness gate's verdicts.
type checker struct {
	mu       sync.Mutex
	checked  int
	golden   int
	failures []string
}

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// expect compares one measured result with its reference.
func (c *checker) expect(what string, got, want sim.Result) {
	c.mu.Lock()
	c.checked++
	c.mu.Unlock()
	if !sameResult(got, want) {
		c.failf("%s: result differs from reference\n got: %s\nwant: %s", what, mustJSON(got), mustJSON(want))
	}
}

// expectGolden compares one preset cell at the golden truncation with
// the committed corpus.
func (c *checker) expectGolden(key string, got sim.Result, golden map[string]sim.Result) {
	want, ok := golden[key]
	if !ok {
		return
	}
	c.mu.Lock()
	c.golden++
	c.mu.Unlock()
	if !sameResult(got, want) {
		c.failf("%s: result differs from %s", key, goldenPath)
	}
}

func (c *checker) ok() bool { return len(c.failures) == 0 }

// digest hashes the simulated statistics of a fixed cell set in key
// order.
func digest(res map[string]sim.Result) string {
	keys := make([]string, 0, len(res))
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write(mustJSON(res[k]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkRepeat records the digest of this (workload, seed, binary) in
// the build directory and fails when an earlier run set of the same
// binary recorded a different one: the simulated statistics must repeat
// exactly between run sets.
func checkRepeat(name string, seed int64, sum string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return err
	}
	dir := filepath.Join(buildDir, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%s.txt", name, seed, hex.EncodeToString(h.Sum(nil))[:16]))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != sum {
			return fmt.Errorf("simulated statistics of %s seed %d changed between run sets: %s then %s", name, seed, prev, sum)
		}
		return nil
	case os.IsNotExist(err):
		return os.WriteFile(path, []byte(sum), 0o644)
	default:
		return err
	}
}
