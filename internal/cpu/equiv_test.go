package cpu

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"espsim/internal/branch"
	"espsim/internal/mem"
	"espsim/internal/prefetch"
	"espsim/internal/trace"
)

// noopAssist is attached but never acts: it asks not to be woken again,
// corrects no branch and declines every stall window.
type noopAssist struct{}

func (noopAssist) EventStart(trace.Event, []trace.Inst, []trace.Event) {}
func (noopAssist) EventEnd(trace.Event)                                {}
func (noopAssist) OnInst(int) int                                      { return math.MaxInt }
func (noopAssist) CorrectBranch(int, trace.Inst) bool                  { return false }
func (noopAssist) OnStall(StallKind, int, int) bool                    { return false }

// randomEvent builds one event's instruction stream: straight-line runs
// through a code footprint larger than the L1-I, taken and not-taken
// branches, and loads and stores that hit the L1-D, hit the L2 or go to
// memory.
func randomEvent(rng *rand.Rand, n int) []trace.Inst {
	const codeLines = 4096 // 256 KiB of code: misses the 32 KiB L1-I
	insts := make([]trace.Inst, n)
	pc := 0x40_0000 + uint64(rng.Intn(codeLines))*trace.LineBytes
	for i := range insts {
		in := trace.Inst{PC: pc, Kind: trace.ALU}
		switch r := rng.Intn(10); {
		case r < 2:
			in.Kind = trace.Branch
			in.Taken = rng.Intn(3) != 0
			in.Addr = 0x40_0000 + uint64(rng.Intn(codeLines))*trace.LineBytes + uint64(rng.Intn(16))*trace.InstBytes
			switch rng.Intn(12) {
			case 0:
				in.Call, in.Taken = true, true
			case 1:
				in.Ret, in.Taken = true, true
			case 2:
				in.Indirect, in.Taken = true, true
			}
		case r < 5:
			in.Kind = trace.Load
			if r == 4 {
				in.Kind = trace.Store
			}
			switch rng.Intn(4) {
			case 0: // hot: L1-D hits
				in.Addr = 0x1000_0000 + uint64(rng.Intn(1<<12))
			case 1, 2: // warm: 512 KiB, mostly L2 hits
				in.Addr = 0x2000_0000 + uint64(rng.Intn(512<<10))
			default: // cold: 256 MiB, mostly memory
				in.Addr = 0x4000_0000 + uint64(rng.Intn(256<<20))
			}
		}
		insts[i] = in
		if in.Kind == trace.Branch && in.Taken {
			pc = in.Addr
		} else {
			pc += trace.InstBytes
		}
	}
	return insts
}

// TestNilAssistMatchesNoopAssist runs the same seeded event streams on a
// core without an assist and on a core with an assist that never acts.
// Both must end with identical statistics, predictor state, prefetcher
// state and cache contents: an absent assist is exactly an idle one.
func TestNilAssistMatchesNoopAssist(t *testing.T) {
	for _, tc := range []struct {
		name       string
		perfectBP  bool
		prefetches bool
	}{
		{"base", false, false},
		{"perfectBP", true, false},
		{"prefetchers", false, true},
		{"perfectBP+prefetchers", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				mk := func(a Assist) *Core {
					cfg := DefaultConfig()
					cfg.PerfectBP = tc.perfectBP
					h := mem.DefaultHierarchy()
					c := New(cfg, h, branch.New())
					if tc.prefetches {
						c.NLI = prefetch.NewNextLineI(h)
						c.DCU = prefetch.NewDCU(h)
						c.Stride = prefetch.NewStride(h)
					}
					c.Assist = a
					return c
				}
				plain, idle := mk(nil), mk(noopAssist{})
				rng := rand.New(rand.NewSource(seed))
				for ev := 0; ev < 40; ev++ {
					insts := randomEvent(rng, 200+rng.Intn(3000))
					if a, b := plain.RunEvent(insts), idle.RunEvent(insts); a != b {
						t.Fatalf("seed %d event %d: cycles %d (nil assist) != %d (no-op assist)", seed, ev, a, b)
					}
					filler := rng.Intn(50)
					plain.RunFiller(filler)
					idle.RunFiller(filler)
				}
				if plain.Stats != idle.Stats {
					t.Fatalf("seed %d: stats diverged:\nnil  %+v\nnoop %+v", seed, plain.Stats, idle.Stats)
				}
				if plain.Stats.LLCMissI == 0 || plain.Stats.LLCMissD == 0 || plain.Stats.StallsOffered == 0 {
					t.Fatalf("seed %d: stream reached no memory: %+v", seed, plain.Stats)
				}
				if !tc.perfectBP && plain.Stats.Mispredicts == 0 {
					t.Fatalf("seed %d: stream never mispredicted", seed)
				}
				if *plain.BP != *idle.BP {
					t.Fatalf("seed %d: predictor state diverged", seed)
				}
				if !reflect.DeepEqual(plain.NLI, idle.NLI) || !reflect.DeepEqual(plain.DCU, idle.DCU) ||
					!reflect.DeepEqual(plain.Stride, idle.Stride) {
					t.Fatalf("seed %d: prefetcher state diverged", seed)
				}
				for _, pair := range [][2]*mem.Cache{
					{plain.Hier.L1I, idle.Hier.L1I},
					{plain.Hier.L1D, idle.Hier.L1D},
					{plain.Hier.L2, idle.Hier.L2},
				} {
					a, b := pair[0], pair[1]
					if a.Stats != b.Stats {
						t.Fatalf("seed %d: %s stats diverged: %+v vs %+v", seed, a.Name(), a.Stats, b.Stats)
					}
					if !reflect.DeepEqual(a.Lines(), b.Lines()) {
						t.Fatalf("seed %d: %s contents diverged", seed, a.Name())
					}
				}
				if l2 := plain.Hier.L2.Stats; l2.Misses == 0 || l2.Misses == l2.Accesses {
					t.Fatalf("seed %d: stream did not exercise both L2 hits and misses: %+v", seed, l2)
				}
			}
		})
	}
}
