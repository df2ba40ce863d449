package nocdn

import "sync"

// flightGroup coalesces concurrent calls for the same key into one
// execution whose result every caller shares (singleflight). It guards the
// origin backfill, so N concurrent misses for one key cost one origin fetch
// — never N.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	data []byte
	meta *entryMeta
	err  error
}

// do runs fn once per key among concurrent callers; latecomers block until
// the leader finishes and receive its result, the body with its metadata.
func (g *flightGroup) do(key string, fn func() ([]byte, *entryMeta, error)) ([]byte, *entryMeta, error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.data, c.meta, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.data, c.meta, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.data, c.meta, c.err
}
