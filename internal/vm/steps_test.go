package vm_test

import (
	"testing"

	"repro/internal/benchprogs"
	"repro/internal/core"
	"repro/internal/vm"
)

// TestSessionLoadSteps pins the steps of loading each benchprog at
// scale 1 into a fresh session, and the step at which a budget one
// short of the load stops it: the dispatch loop counts one step per
// instruction, HALT included, and raises ErrStepLimit on the first
// instruction past the budget.
func TestSessionLoadSteps(t *testing.T) {
	want := map[string]int64{"slang": 4362, "plagen": 17625, "lyra": 86575, "editor": 255747, "pearl": 2410}
	for _, bp := range benchprogs.All() {
		s := vm.NewSession(vm.WithMachine(core.NewMachine(core.Config{})), vm.WithStepLimit(5_000_000))
		if _, err := s.Run(bp.Gen(1)); err != nil {
			t.Fatalf("%s: %v", bp.Name, err)
		}
		if got := s.Steps(); got != want[bp.Name] {
			t.Errorf("%s: loading took %d steps, want %d", bp.Name, got, want[bp.Name])
		}
		s = vm.NewSession(vm.WithMachine(core.NewMachine(core.Config{})), vm.WithStepLimit(want[bp.Name]-1))
		if _, err := s.Run(bp.Gen(1)); err != vm.ErrStepLimit {
			t.Errorf("%s: budget of %d steps: %v, want ErrStepLimit", bp.Name, want[bp.Name]-1, err)
		}
		if got := s.Steps(); got != want[bp.Name] {
			t.Errorf("%s: budget stopped the load at step %d, want %d", bp.Name, got, want[bp.Name])
		}
	}
}
