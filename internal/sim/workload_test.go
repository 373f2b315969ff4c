package sim

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"espsim/internal/eventq"
	"espsim/internal/workload"
)

// TestBuildDeterministicAcrossCores checks that a session build does not
// depend on how many cores generate it: GOMAXPROCS 1 runs the inline
// path, 2 and 8 the concurrent one, and all three must produce the same
// arena, the same normal/speculative spans and the same Bytes(). The
// suite builds truncate their sessions, so they carry diverging and
// beyond-prefix speculative streams; the mobile builds under EDF take
// the dispatch-order (fromSessionSched) path.
func TestBuildDeterministicAcrossCores(t *testing.T) {
	type build struct {
		prof      workload.Profile
		maxEvents int
		policy    eventq.SchedPolicy
	}
	var builds []build
	for _, p := range workload.Suite() {
		p.Events = 24
		builds = append(builds, build{p, 16, eventq.SchedFIFO})
	}
	for _, p := range []workload.Profile{workload.MobileWeb(), workload.MobileHeavy()} {
		p.Events = 60
		builds = append(builds, build{p, 0, eventq.SchedEDF})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	diverging, beyond := 0, 0
	for _, b := range builds {
		name := fmt.Sprintf("%s@%v", b.prof.Name, b.policy)
		var ref *Workload
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			w, err := NewWorkloadSched(b.prof, b.maxEvents, b.policy)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ref == nil {
				ref = w
				if len(w.arena) < inlineBuildInsts {
					t.Fatalf("%s: %d instructions build inline at any core count", name, len(w.arena))
				}
				if b.policy == eventq.SchedEDF && w.sched == nil {
					t.Fatalf("%s: timed build has no schedule", name)
				}
				beyond += len(w.spec) - len(w.normal)
				for i := range w.normal {
					if w.spec[i] != w.normal[i] {
						diverging++
					}
				}
				continue
			}
			switch {
			case cap(w.arena) != cap(ref.arena) || !slices.Equal(w.arena, ref.arena):
				t.Errorf("%s: arena at GOMAXPROCS=%d differs from GOMAXPROCS=1", name, procs)
			case !slices.Equal(w.normal, ref.normal) || !slices.Equal(w.spec, ref.spec):
				t.Errorf("%s: spans at GOMAXPROCS=%d differ from GOMAXPROCS=1", name, procs)
			case w.Bytes() != ref.Bytes():
				t.Errorf("%s: Bytes() = %d at GOMAXPROCS=%d, %d at GOMAXPROCS=1", name, w.Bytes(), procs, ref.Bytes())
			}
		}
	}
	if diverging == 0 || beyond == 0 {
		t.Fatalf("builds cover %d diverging and %d beyond-prefix speculative streams, want both", diverging, beyond)
	}
}

// TestForEachJobPanicSurfaces checks the build helper's panic contract:
// a panic in one job, whether a spawned worker or the caller runs it,
// is re-raised on the calling goroutine, and only after every worker
// has returned.
func TestForEachJobPanicSurfaces(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, onCaller := range []bool{false, true} {
		before := runtime.NumGoroutine()
		var running atomic.Int64
		// Two jobs on two workers: the barrier holds each worker in its
		// job until both have claimed one, so exactly one job runs on the
		// caller and one on the spawned worker.
		var barrier sync.WaitGroup
		barrier.Add(2)
		got := func() (p any) {
			defer func() { p = recover() }()
			forEachJob(2, false, func(_ *workload.Walker, _ int) {
				running.Add(1)
				defer running.Add(-1)
				barrier.Done()
				barrier.Wait()
				if onCallerGoroutine() == onCaller {
					panic("boom")
				}
				// Outlast the panicking job, so a helper that re-raised
				// without waiting would surface it with this one running.
				for range 1000 {
					runtime.Gosched()
				}
			})
			return nil
		}()
		if got != "boom" {
			t.Fatalf("onCaller=%v: caller recovered %v, want the job's panic", onCaller, got)
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("onCaller=%v: %d jobs still running when the panic surfaced", onCaller, n)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("onCaller=%v: %d goroutines after the panic, %d before", onCaller, runtime.NumGoroutine(), before)
			}
			runtime.Gosched()
		}
	}
}

// onCallerGoroutine reports whether the current goroutine is the test's
// own, the one that called forEachJob: only its stack runs down to the
// testing package's runner.
func onCallerGoroutine() bool {
	buf := make([]byte, 64<<10)
	return bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("testing.tRunner"))
}
