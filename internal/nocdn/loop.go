package nocdn

import (
	"sync"
	"time"
)

// loop is the lifecycle of one background ticker goroutine — the peer's cache
// scrubber, neighbor gossip and fleet telemetry each own one. There is one
// rule: whoever installs a new state (a started goroutine's channels, or none)
// takes the previous one out under mu, and halts it outside the lock. So
// concurrent starts chain — each halts exactly the loop it displaced — and no
// goroutine is ever left running with nobody holding its stop channel.
type loop struct {
	mu   sync.Mutex
	stop chan struct{} // closed to halt the running goroutine; nil when none
	done chan struct{} // closed by that goroutine on its way out
}

// swap installs (stop, done) as the running loop and halts the one it
// replaced, returning once that goroutine has exited.
func (l *loop) swap(stop, done chan struct{}) {
	l.mu.Lock()
	oldStop, oldDone := l.stop, l.done
	l.stop, l.done = stop, done
	l.mu.Unlock()
	if oldStop != nil {
		close(oldStop)
		<-oldDone
	}
}

// start runs tick every interval until halt or the next start; a restart
// replaces the previous loop, whose last tick has returned before the new
// one's first.
func (l *loop) start(interval time.Duration, tick func()) {
	stop, done := make(chan struct{}), make(chan struct{})
	l.swap(stop, done)
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				tick()
			}
		}
	}()
}

// halt stops the running loop and waits for it; a no-op when none is running.
func (l *loop) halt() { l.swap(nil, nil) }
