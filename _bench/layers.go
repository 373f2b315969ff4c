package main

import (
	"espsim/internal/sim"
)

// simLayers records the engine's per-layer counters over a phase: d is
// the change in the Perf of the runners it drove, insts what it
// simulated.
func simLayers(rep *report, d sim.Perf, insts int64) {
	frac := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	rep.layer("sim.cache_hit_frac", frac(d.WorkloadReuses, d.WorkloadBuilds))
	rep.layer("sim.evictions", float64(d.WorkloadEvicts))
	rep.layer("sim.machine_reuse_frac", frac(d.MachineReuses, d.MachineBuilds))
	ns := 0.0
	if insts > 0 {
		ns = float64(d.SimWall) / float64(insts)
	}
	rep.layer("sim.replay_ns_per_inst", ns)
}

// addPerf is a + b for the reuse and timing counters.
func addPerf(a, b sim.Perf) sim.Perf {
	a.Cells += b.Cells
	a.WorkloadBuilds += b.WorkloadBuilds
	a.WorkloadReuses += b.WorkloadReuses
	a.WorkloadEvicts += b.WorkloadEvicts
	a.MachineBuilds += b.MachineBuilds
	a.MachineReuses += b.MachineReuses
	a.BuildWall += b.BuildWall
	a.SimWall += b.SimWall
	return a
}

// subPerf is a - b for the counters addPerf sums.
func subPerf(a, b sim.Perf) sim.Perf {
	a.Cells -= b.Cells
	a.WorkloadBuilds -= b.WorkloadBuilds
	a.WorkloadReuses -= b.WorkloadReuses
	a.WorkloadEvicts -= b.WorkloadEvicts
	a.MachineBuilds -= b.MachineBuilds
	a.MachineReuses -= b.MachineReuses
	a.BuildWall -= b.BuildWall
	a.SimWall -= b.SimWall
	return a
}

// simulatedLayers records the simulated per-layer statistics over a
// phase's results; they are deterministic for a given cell set.
func simulatedLayers(rep *report, results map[string]sim.Result) {
	var insts, l1iMiss, l1dMiss, l1dAcc, br, mis, espInsts, preExec, preEv, consumed int64
	for _, r := range results {
		insts += r.Insts
		l1iMiss += r.L1I.Misses
		l1dMiss += r.L1D.Misses
		l1dAcc += r.L1D.Accesses
		br += r.CPU.Branches
		mis += r.CPU.Mispredicts
		if r.ESPStats != nil {
			espInsts += r.Insts
			preExec += r.ESPStats.PreExecInsts
			preEv += r.ESPStats.EventsPreExecuted
			consumed += r.ESPStats.EventsConsumed
		}
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rep.layer("mem.l1i_mpki", 1000*ratio(l1iMiss, insts))
	rep.layer("mem.l1d_miss_rate", ratio(l1dMiss, l1dAcc))
	rep.layer("branch.mispredict_rate", ratio(mis, br))
	rep.layer("core.preexec_useful_frac", ratio(consumed, preEv))
	rep.layer("core.preexec_insts_frac", ratio(preExec, espInsts))
}
