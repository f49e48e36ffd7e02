package candidates

import (
	"context"
	"testing"
	"time"
)

// An already-expired context refuses all work from the first grant on, so
// an entire frontier is never reserved, let alone evaluated.
func TestBudgetPreExpiredContextRefusesWork(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	bs := &budgetState{}
	bs.start(ctx)
	if !bs.exceeded() {
		t.Fatal("budget not marked exceeded under a pre-expired context")
	}
	if got := bs.grant(10); got != 0 {
		t.Fatalf("grant(10) = %d, want 0", got)
	}
	if bs.checks() != 0 {
		t.Fatalf("checks = %d, want 0", bs.checks())
	}
}

// Cancellation is sampled at the same points as the deadline, so a context
// cancelled between frontiers stops the next sampled tick.
func TestBudgetObservesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	bs := &budgetState{}
	bs.start(ctx)
	bs.grant(deadlineSampleInterval * 2)
	if !bs.tick() {
		t.Fatal("tick refused work under a live context")
	}
	cancel()
	ok := true
	for i := 0; i < deadlineSampleInterval+1; i++ {
		if !bs.tick() {
			ok = false
			break
		}
	}
	if ok {
		t.Fatal("a full sampling interval of ticks ran after cancellation")
	}
	if !bs.exceeded() {
		t.Fatal("budget not marked exceeded after cancellation")
	}
}
