package nocdn

import (
	"context"
	"sync"
	"time"
)

// loop is the lifecycle of one background ticker goroutine — the peer's cache
// scrubber, neighbor gossip and fleet telemetry, and the origin's health
// probe and epoch tick, each own one. There is one rule: whoever installs a
// new state (a started goroutine's cancel and done, or none) takes the
// previous one out under mu, and halts it outside the lock. So concurrent
// starts chain — each halts exactly the loop it displaced — and no goroutine
// is ever left running with nobody holding its cancel.
type loop struct {
	mu     sync.Mutex
	cancel context.CancelFunc // halts the running goroutine; nil when none
	done   chan struct{}      // closed by that goroutine on its way out
}

// swap installs (cancel, done) as the running loop and halts the one it
// replaced, returning once that goroutine has exited.
func (l *loop) swap(cancel context.CancelFunc, done chan struct{}) {
	l.mu.Lock()
	oldCancel, oldDone := l.cancel, l.done
	l.cancel, l.done = cancel, done
	l.mu.Unlock()
	if oldCancel != nil {
		oldCancel()
		<-oldDone
	}
}

// start runs tick every interval until halt or the next start; a restart
// replaces the previous loop, whose last tick has returned before the new
// one's first. tick's context is cancelled by the halt, so a tick blocked on
// the network (a probe pass over dead peers) does not hold up a shutdown.
func (l *loop) start(interval time.Duration, tick func(context.Context)) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	l.swap(cancel, done)
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				tick(ctx)
			}
		}
	}()
}

// halt stops the running loop and waits for it; a no-op when none is running.
func (l *loop) halt() { l.swap(nil, nil) }
