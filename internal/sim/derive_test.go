package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"espsim/internal/eventq"
	"espsim/internal/trace"
	"espsim/internal/workload"
)

// fleetApps are the nine preset applications: the suite, dispatched
// FIFO, and the timed mobile profiles, dispatched EDF.
func fleetApps() ([]workload.Profile, []eventq.SchedPolicy) {
	apps := append(workload.Suite(), workload.MobileWeb(), workload.MobileHeavy())
	policies := make([]eventq.SchedPolicy, len(apps))
	for i, p := range apps {
		if p.Timed {
			policies[i] = eventq.SchedEDF
		}
	}
	return apps, policies
}

// sharesArena reports whether w replays from the arena of one of ws.
func sharesArena(w *Workload, ws []*Workload) bool {
	for _, o := range ws {
		if o != w && len(o.arena) > 0 && len(w.arena) > 0 && &o.arena[0] == &w.arena[0] {
			return true
		}
	}
	return false
}

// sameReplay fails t unless got replays exactly as want: the same event
// and instruction counts, schedule stats, events, pending views (default
// and widest) and normal and speculative streams, beyond-prefix
// speculative streams included.
func sameReplay(t *testing.T, name string, got, want *Workload) {
	t.Helper()
	if got.Events() != want.Events() || got.Insts() != want.Insts() {
		t.Fatalf("%s: %d events / %d insts, fresh build %d / %d", name, got.Events(), got.Insts(), want.Events(), want.Insts())
	}
	if !reflect.DeepEqual(got.Sched(), want.Sched()) {
		t.Fatalf("%s: schedule stats differ from a fresh build", name)
	}
	if len(got.spec) != len(want.spec) {
		t.Fatalf("%s: %d speculative streams, fresh build %d", name, len(got.spec), len(want.spec))
	}
	for _, maxPending := range []int{0, specLookahead} {
		gs, ws := got.Source(maxPending), want.Source(maxPending)
		for i := 0; i < ws.Len(); i++ {
			if gs.Event(i) != ws.Event(i) {
				t.Fatalf("%s: event %d is %+v, fresh build %+v", name, i, gs.Event(i), ws.Event(i))
			}
			if !slices.Equal(gs.Pending(i), ws.Pending(i)) {
				t.Fatalf("%s: pending view %d (max %d) differs from a fresh build", name, i, maxPending)
			}
		}
	}
	gs, ws := got.Source(0), want.Source(0)
	for i := range want.spec {
		if i < ws.Len() && !slices.Equal(gs.Insts(i, false), ws.Insts(i, false)) {
			t.Fatalf("%s: normal stream %d differs from a fresh build", name, i)
		}
		if !slices.Equal(gs.Insts(i, true), ws.Insts(i, true)) {
			t.Fatalf("%s: speculative stream %d differs from a fresh build", name, i)
		}
	}
}

// TestDerivedWorkloadMatchesFresh builds every preset application under
// every dispatch policy at truncations that grow, shrink, and include 0
// (the whole session) and 1, through one Runner per application, so
// each miss derives from a cached build: a prefix view, or an extension
// that may copy across policies. Every derived workload must replay as
// a fresh NewWorkloadSched does, with DeepEqual NL+S and ESP+NL
// results; an extension must also match the fresh arena, spans and
// Bytes(). Event lengths are capped to keep the test quick: stream
// identity does not depend on them. The timed profiles' arrivals come
// three times as fast, so their queue backs up: every policy but FIFO
// reorders the session, differently at each truncation, and the slot
// an event lands in moves between builds.
func TestDerivedWorkloadMatchesFresh(t *testing.T) {
	apps, _ := fleetApps()
	truncs := []int{9, 15, 4, 0, 1, 12, 20}
	var machines []*Machine
	for _, cfg := range []Config{{Name: "NL+S", NLI: true, NLD: true, StridePF: true}, espConfig()} {
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, m)
	}
	views, extensions, copied := 0, 0, int64(0)
	for _, prof := range apps {
		prof.Events = 24
		prof.MeanEventLen = min(prof.MeanEventLen, 4000)
		for i := range prof.Mix {
			prof.Mix[i].MeanGap /= 3
		}
		r := NewRunner()
		var built []*Workload
		for policy := eventq.SchedPolicy(0); policy < eventq.NumSchedPolicies; policy++ {
			for _, m := range truncs {
				name := fmt.Sprintf("%s@%v/m%d", prof.Name, policy, m)
				before := r.Perf()
				got, err := r.WorkloadSched(prof, m, policy)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				after := r.Perf()
				want, err := NewWorkloadSched(prof, m, policy)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sameReplay(t, name, got, want)
				reused := after.InstsReused - before.InstsReused
				generated := after.InstsGenerated - before.InstsGenerated
				if reused+generated != int64(len(want.arena)) {
					t.Fatalf("%s: %d reused + %d generated instructions, fresh arena holds %d", name, reused, generated, len(want.arena))
				}
				if sharesArena(got, built) {
					views++
					if generated != 0 {
						t.Fatalf("%s: prefix view generated %d instructions", name, generated)
					}
				} else {
					extensions++
					copied += reused
					switch {
					case cap(got.arena) != cap(want.arena) || !slices.Equal(got.arena, want.arena):
						t.Fatalf("%s: extension arena differs from a fresh build", name)
					case !slices.Equal(got.normal, want.normal) || !slices.Equal(got.spec, want.spec):
						t.Fatalf("%s: extension spans differ from a fresh build", name)
					case got.Bytes() != want.Bytes():
						t.Fatalf("%s: extension Bytes() = %d, fresh build %d", name, got.Bytes(), want.Bytes())
					}
				}
				built = append(built, got)
				for _, mach := range machines {
					if g, w := mach.Run(got), mach.Run(want); !reflect.DeepEqual(g, w) {
						t.Fatalf("%s %s: derived result deviates from a fresh build:\n got  %+v\n want %+v", name, mach.cfg.Name, g, w)
					}
				}
			}
		}
	}
	if views == 0 || extensions == 0 || copied == 0 {
		t.Fatalf("covered %d prefix views and %d extensions copying %d instructions, want all three nonzero", views, extensions, copied)
	}
}

// TestDerivedBuildsConcurrent: goroutines missing on different
// truncations of one session at once pick donors, copy from them and
// view them while other goroutines replay them. Every workload must
// still match a fresh build.
func TestDerivedBuildsConcurrent(t *testing.T) {
	prof := workload.Amazon()
	prof.Events = 30
	truncs := []int{6, 30, 12, 24, 3, 18, 27, 9}
	want := make(map[int]uint64)
	for _, m := range truncs {
		w, err := NewWorkloadSched(prof, m, eventq.SchedFIFO)
		if err != nil {
			t.Fatal(err)
		}
		want[m] = workloadDigest(w)
	}
	r := NewRunner()
	r.SetWorkloadCap(4)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range truncs {
				m := truncs[(k+2*g)%len(truncs)]
				cfg := espConfig()
				cfg.MaxEvents = m
				if _, err := r.RunCell("concurrent", prof, cfg, 0); err != nil {
					t.Error(err)
					return
				}
				w, err := r.Workload(prof, m)
				if err != nil {
					t.Error(err)
					return
				}
				if got := workloadDigest(w); got != want[m] {
					t.Errorf("truncation %d: derived workload digest %x, fresh build %x", m, got, want[m])
				}
			}
		}()
	}
	wg.Wait()
	if p := r.Perf(); p.InstsReused == 0 {
		t.Fatalf("perf %+v: no build reused a stream", p)
	}
}

// TestPrefixViewOutlivesDonor: a prefix view shares its donor's arena,
// so once the donor is evicted the view alone keeps that arena alive.
// The cache must then account at least the whole arena for the view.
func TestPrefixViewOutlivesDonor(t *testing.T) {
	prof := testProfile(t)
	r := NewRunner()
	r.SetWorkloadCap(1)
	donor, err := r.Workload(prof, 40)
	if err != nil {
		t.Fatal(err)
	}
	view, err := r.Workload(prof, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !sharesArena(view, []*Workload{donor}) {
		t.Fatal("a shorter truncation of a cached session build is not a prefix view of it")
	}
	if p := r.Perf(); p.WorkloadEvicts != 1 {
		t.Fatalf("%d evictions, want the donor evicted by the cap", p.WorkloadEvicts)
	}
	arena := int64(cap(donor.arena)) * int64(unsafe.Sizeof(trace.Inst{}))
	if view.Bytes() < arena {
		t.Fatalf("view Bytes() = %d under-counts its shared arena (%d B)", view.Bytes(), arena)
	}
	if got := r.CacheBytes(); got != view.Bytes() || got < arena {
		t.Fatalf("cache accounts %d B for the view alone, want its Bytes() %d >= arena %d", got, view.Bytes(), arena)
	}
}

// TestSharedArenaCollected: a donor's arena shared by prefix views, each
// replayed on a pooled ESP machine, is collected once the donor and
// every view are evicted. Neither the cache, the views' tables nor the
// pooled machine may pin it.
func TestSharedArenaCollected(t *testing.T) {
	prof := testProfile(t)
	r := NewRunner()
	collected := make(chan struct{}, 1)
	func() {
		donor, err := r.Workload(prof, 48)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(&donor.arena[0], func(*trace.Inst) { collected <- struct{}{} })
		for _, m := range []int{8, 20, 33} {
			cfg := espConfig()
			cfg.MaxEvents = m
			if _, err := r.RunCell("view", prof, cfg, 0); err != nil {
				t.Fatal(err)
			}
			view, err := r.Workload(prof, m)
			if err != nil {
				t.Fatal(err)
			}
			if !sharesArena(view, []*Workload{donor}) {
				t.Fatalf("truncation %d is not a prefix view of the cached 48-event build", m)
			}
		}
	}()
	r.TrimWorkloadCache(0)
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(r)
			return
		case <-time.After(100 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("shared arena still reachable after its donor and every view were evicted")
			}
		}
	}
}

// BenchmarkTruncationCycle is the build layer of the fleet-cold
// workload: per iteration a fresh Runner (cache cap 9) builds the nine
// preset applications (suite FIFO, mobile EDF) at the truncations
// 8..38 step 6 in a seeded order, so every build misses the cache and
// each derives from the previous truncation's build of its application.
// It reports workload build wall per cycle and the fraction of stream
// instructions reused rather than generated.
func BenchmarkTruncationCycle(b *testing.B) {
	apps, policies := fleetApps()
	var build time.Duration
	var reused, generated int64
	for i := 0; i < b.N; i++ {
		r := NewRunner()
		r.SetWorkloadCap(len(apps))
		for _, k := range rand.New(rand.NewSource(int64(i))).Perm(6) {
			for j, prof := range apps {
				if _, err := r.WorkloadSched(prof, 8+6*k, policies[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
		p := r.Perf()
		build += p.BuildWall
		reused += p.InstsReused
		generated += p.InstsGenerated
	}
	b.ReportMetric(build.Seconds()*1e3/float64(b.N), "build_ms/cycle")
	b.ReportMetric(float64(reused)/float64(reused+generated), "reused_frac")
}
