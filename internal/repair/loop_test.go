package repair

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestLoopStopCancelsInFlightRound checks Stop's deadline reaches a
// round that is still running: the round's context is cancelled and
// Stop returns the deadline error instead of waiting out the round.
func TestLoopStopCancelsInFlightRound(t *testing.T) {
	started := make(chan struct{})
	l := NewLoop(time.Hour, time.Hour, 1, nil, "test", func(ctx context.Context) (*int, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	l.Start()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	if err := l.Stop(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Stop = %v, want the deadline error", err)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("Stop waited %v for the in-flight round", d)
	}
	if l.Rounds() != 1 {
		t.Fatalf("Rounds() = %d, want 1", l.Rounds())
	}
}
