package icserver

import (
	"context"
	"time"
)

// Jitter draws one backoff from e's rng.
func (e *Engine) Jitter(d time.Duration) time.Duration { return e.jitter(d) }

// SetSleep replaces the engine's backoff wait until restore is called.
func SetSleep(f func(ctx context.Context, d time.Duration) error) (restore func()) {
	old := sleep
	sleep = f
	return func() { sleep = old }
}
