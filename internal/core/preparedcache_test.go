package core

import (
	"fmt"
	"testing"

	"github.com/aujoin/aujoin/internal/strutil"
)

func TestPreparedCache(t *testing.T) {
	c := NewCalculator(paperContext())
	pc := NewPreparedCache(3)
	tokens := strutil.Tokenize("coffee shop latte")
	first := c.PrepareCached(pc, nil, tokens)
	if second := c.PrepareCached(pc, nil, tokens); second != first {
		t.Fatal("repeated PrepareCached did not return the cached record")
	}
	if hits, misses := pc.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("hits, misses = %d, %d; want 1, 1", hits, misses)
	}
	// Overflow the capacity: the oldest entry is evicted FIFO.
	for i := 0; i < 3; i++ {
		c.PrepareCached(pc, nil, strutil.Tokenize(fmt.Sprintf("filler record %d", i)))
	}
	if pc.Len() != 3 {
		t.Fatalf("Len = %d, want capacity 3", pc.Len())
	}
	if _, ok := pc.Get("coffee shop latte"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	// A nil cache degrades to plain Prepare.
	if pr := c.PrepareCached(nil, nil, tokens); pr == nil || len(pr.Segs) == 0 {
		t.Fatal("nil-cache PrepareCached returned an unprepared record")
	}
}
