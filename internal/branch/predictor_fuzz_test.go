package branch

import (
	"testing"

	"espsim/internal/trace"
)

// FuzzPredictorMatchesReference drives the fused PredictUpdate against
// its reference, Predict then Resolve (which is Predict then Update plus
// the outcome accounting), on a twin predictor, and requires the same
// prediction, the same full state and the same Stats after every
// operation. The fused twin accounts its outcome the way Resolve does.
//
// Every two bytes are one operation. Branch operations pick a branch
// kind (conditional, direct or indirect call, return, indirect jump),
// an outcome and one of a few aliasing PCs and targets; the others
// toggle LoopReadOnly, install a PIR, or take and restore a RAS
// snapshot the way pre-execution contexts do.
func FuzzPredictorMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0x81, 0, 0x81, 0, 0x81, 0, 1, 0, 0x81, 0, 0x81, 0, 1})
	f.Add([]byte{2, 0x83, 3, 0x84, 4, 0x82, 2, 0x80, 5, 0x84, 5, 4, 6, 0x88})
	f.Add([]byte{8, 0, 2, 9, 9, 0, 0, 7, 0, 7, 1, 7, 10, 1, 5, 0, 11, 0})
	f.Add([]byte{3, 0x86, 7, 0x83, 2, 0xa6, 2, 0xc6, 4, 0x82, 4, 0x82, 4, 2, 5, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		fused, ref := New(), New()
		var snaps [2]RASState
		for i, ops := 0, data; len(ops) >= 2; i, ops = i+1, ops[2:] {
			op, arg := ops[0]%12, ops[1]
			switch op {
			case 8:
				fused.LoopReadOnly = !fused.LoopReadOnly
				ref.LoopReadOnly = !ref.LoopReadOnly
			case 9:
				v := uint64(arg) * 0x9E3779B97F4A7C15
				fused.SetPIR(v)
				ref.SetPIR(v)
			case 10:
				snaps[arg%2] = fused.SnapshotRAS()
				if ref.SnapshotRAS() != snaps[arg%2] {
					t.Fatalf("op %d: RAS snapshots differ", i)
				}
			case 11:
				fused.RestoreRAS(snaps[arg%2])
				ref.RestoreRAS(snaps[arg%2])
			default:
				in := fuzzBranch(op, arg)
				got := fused.PredictUpdate(&in)
				fused.Stats.Branches++
				if Mispredicted(got, in) {
					fused.Stats.Mispredicts++
				}
				want := ref.Predict(in)
				ref.Resolve(in)
				if got != want {
					t.Fatalf("op %d (%+v): fused predicted %+v, reference %+v", i, in, got, want)
				}
			}
			if *fused != *ref {
				t.Fatalf("op %d (%d, %d): predictor state diverged from the reference (stats %+v, reference %+v)",
					i, op, arg, fused.Stats, ref.Stats)
			}
		}
	})
}

// fuzzBranch decodes one branch: op 0-7 picks the kind, arg's low three
// bits one of eight PCs (all in one BTB set and one loop-table entry,
// with distinct tags), the next two bits one of four targets, and the
// top bit the outcome, for every kind.
func fuzzBranch(op, arg byte) trace.Inst {
	in := trace.Inst{
		PC:    0x4000 + uint64(arg&7)*btbSets*4*3,
		Kind:  trace.Branch,
		Addr:  0x9000 + uint64(arg>>3&3)*0x40,
		Taken: arg&0x80 != 0,
	}
	switch op {
	case 2: // direct call
		in.Call = true
	case 3: // indirect call
		in.Call, in.Indirect = true, true
	case 4, 5: // return
		in.Ret = true
	case 6, 7: // indirect jump
		in.Indirect = true
	}
	return in
}
