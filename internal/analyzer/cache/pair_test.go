package cache_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cache"
)

// TestLoadPairSharesCache loads two distinct images as a pair and then
// individually: the pair load must populate the cache (2 misses) and the
// follow-up single loads must both hit the same entries.
func TestLoadPairSharesCache(t *testing.T) {
	c := cache.New(0, 0)
	ctx := context.Background()
	a := traceImage(t, 300)
	b := traceImage(t, 500)

	ha, hb, err := c.LoadPair(ctx, a, b, analyzer.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if ha.Trace() == hb.Trace() {
		t.Fatal("distinct images returned the same trace")
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 misses from the pair load", st)
	}

	h2, err := c.Load(ctx, cache.KeyOf(a), a, analyzer.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if h2.Trace() != ha.Trace() {
		t.Fatal("single load of side a missed the pair-loaded entry")
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 hit after re-loading side a", st)
	}
}

// TestLoadPairIdenticalSides diffs a trace against itself: the two pair
// sides share one content address, so only one load may run and both
// handles must expose the same shared trace.
func TestLoadPairIdenticalSides(t *testing.T) {
	c := cache.New(0, 0)
	data := traceImage(t, 300)

	ha, hb, err := c.LoadPair(context.Background(), data, data, analyzer.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if ha.Trace() != hb.Trace() {
		t.Fatal("identical images did not share one cached trace")
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("stats = %+v, want exactly 1 miss for identical sides", st)
	}
	if st.Dedups+st.Hits != 1 {
		t.Fatalf("stats = %+v, want the second side to dedup or hit", st)
	}
}

// TestLoadPairSideError corrupts one side and checks the error names it
// and carries the failing bytes for doctoring.
func TestLoadPairSideError(t *testing.T) {
	c := cache.New(0, 0)
	good := traceImage(t, 300)
	bad := append([]byte(nil), traceImage(t, 500)...)
	for i := len(bad) / 3; i < len(bad)/3+64 && i < len(bad); i++ {
		bad[i] ^= 0xFF
	}

	_, _, err := c.LoadPair(context.Background(), good, bad, analyzer.Limits{})
	if err == nil {
		t.Fatal("corrupt side b did not fail the pair load")
	}
	var se *cache.SideError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a SideError", err)
	}
	if se.Side != "b" {
		t.Fatalf("SideError names side %q, want b", se.Side)
	}
	if !bytes.Equal(se.Data, bad) {
		t.Fatal("SideError does not carry the failing side's bytes")
	}
}
