package esp

import (
	"reflect"
	"testing"

	"espsim/internal/sim"
	"espsim/internal/workload"
)

// TestRunnerPoolsMachinesByShape feeds one Runner the same ESP+NL cell
// at 11 distinct truncations, cycling through the dispatch policies.
// Truncation and policy live in the workload, so every cell must reuse
// the one pooled machine, and each result must equal a fresh Run of the
// same cell.
func TestRunnerPoolsMachinesByShape(t *testing.T) {
	prof := workload.Amazon()
	prof.Events = 40
	r := sim.NewRunner()
	for n := 1; n <= 11; n++ {
		cfg := ESPNLConfig()
		cfg.MaxEvents = 2 * n
		cfg.Sched = SchedPolicy(n % NumSchedPolicies)
		got, err := r.RunCell("pool", prof, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(prof, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("MaxEvents=%d Sched=%v: pooled result diverged from a fresh Run:\n got  %+v\n want %+v",
				cfg.MaxEvents, cfg.Sched, got, want)
		}
	}
	if p := r.Perf(); p.MachineBuilds != 1 || p.MachineReuses != 10 {
		t.Fatalf("machines = %d built/%d reused, want 1/10: the pool is keyed by truncation or policy",
			p.MachineBuilds, p.MachineReuses)
	}
}
