package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"gecco/internal/procgen"
)

// A pre-expired context must return promptly with a wrapped
// context.Canceled, before any pipeline work starts.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := RunContext(ctx, procgen.RunningExampleTable1(), roleSet(), Config{Mode: DFGUnbounded})
	if res != nil {
		t.Fatalf("result %+v, want nil on cancelled context", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("pre-cancelled run took %v, want prompt return", elapsed)
	}
}

// A context whose deadline has already passed must wrap DeadlineExceeded.
func TestRunContextPreExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := RunContext(ctx, procgen.RunningExampleTable1(), roleSet(), Config{Mode: DFGUnbounded})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
}

// SolverTimeout expiry alone is not an error: Step 2 stops at its own
// deadline and the run returns a result, with either solver.
func TestRunContextSolverTimeoutStillSoft(t *testing.T) {
	for _, solver := range []Solver{SolverBB, SolverMIP} {
		cfg := Config{Mode: DFGUnbounded, Solver: solver, SolverTimeout: time.Nanosecond}
		res, err := RunContext(context.Background(), procgen.RunningExampleTable1(), roleSet(), cfg)
		if err != nil {
			t.Fatalf("solver %d: SolverTimeout expiry returned error %v, want a result", solver, err)
		}
		if res == nil {
			t.Fatalf("solver %d: nil result", solver)
		}
	}
}

// Cancelling mid-run stops the frontier within the sampling interval and
// surfaces the cancellation instead of a half-finished grouping.
func TestRunContextCancelMidRun(t *testing.T) {
	log := procgen.LoanLog(400, 17)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		// Exhaustive with no budget on the loan log runs far longer than
		// the test timeout unless cancellation cuts it.
		_, err := RunContext(ctx, log, roleSet(), Config{Mode: Exhaustive})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want wrapped context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not stop the pipeline within 30s")
	}
}

// With a never-cancelled context the pipeline output is byte-identical to
// the context-free entry point.
func TestRunContextDeterministicWhenLive(t *testing.T) {
	log := procgen.RunningExampleTable1()
	want, err := Run(log, roleSet(), Config{Mode: DFGUnbounded})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), log, roleSet(), Config{Mode: DFGUnbounded})
	if err != nil {
		t.Fatal(err)
	}
	if groupingKey(got.GroupClasses) != groupingKey(want.GroupClasses) || got.Distance != want.Distance {
		t.Fatalf("context run diverged: %q dist=%v vs %q dist=%v",
			groupingKey(got.GroupClasses), got.Distance, groupingKey(want.GroupClasses), want.Distance)
	}
}
