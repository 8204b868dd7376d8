package cache

import (
	"context"
	"sync"

	"github.com/celltrace/pdt/internal/analyzer"
)

// SideError tags a load failure with which side of a pair produced it,
// so the diff endpoint can doctor the failing side specifically.
type SideError struct {
	Side string // "a" or "b"
	Err  error
	// Key and Data are the failing side's content key and raw image,
	// for follow-up doctoring.
	Key  Key
	Data []byte
}

func (e *SideError) Error() string { return "side " + e.Side + ": " + e.Err.Error() }
func (e *SideError) Unwrap() error { return e.Err }

// LoadPair loads two trace images concurrently through the cache, so a
// diff request pays at most one load per distinct content address —
// none when both sides are already cached, and exactly one when the two
// sides are byte-identical (the second request piggybacks on the
// first's flight). Each side is hashed once, on its own goroutine. A
// failure is reported as a *SideError naming the side; when both sides
// fail, side "a" wins deterministically.
func (c *Cache) LoadPair(ctx context.Context, a, b []byte, lim analyzer.Limits) (ha, hb *Handle, err error) {
	var ea, eb error
	var ka, kb Key
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		kb = KeyOf(b)
		hb, eb = c.Load(ctx, kb, b, lim)
	}()
	ka = KeyOf(a)
	ha, ea = c.Load(ctx, ka, a, lim)
	wg.Wait()
	if ea != nil {
		return nil, nil, &SideError{Side: "a", Err: ea, Key: ka, Data: a}
	}
	if eb != nil {
		return nil, nil, &SideError{Side: "b", Err: eb, Key: kb, Data: b}
	}
	return ha, hb, nil
}
