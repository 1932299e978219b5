package core

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/aujoin/aujoin/internal/strutil"
)

func TestPreparedCache(t *testing.T) {
	c := NewCalculator(paperContext())
	pc := NewPreparedCache(3)
	first := c.PrepareCached(pc, nil, "coffee shop latte")
	if second := c.PrepareCached(pc, nil, "Coffee  shop latte "); second != first {
		t.Fatal("PrepareCached of the same normal form did not return the cached record")
	}
	if !reflect.DeepEqual(first, c.PrepareIn(nil, strutil.Tokenize("coffee shop latte"))) {
		t.Fatal("PrepareCached is not PrepareIn of the tokens")
	}
	if hits, misses := pc.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("hits, misses = %d, %d; want 1, 1", hits, misses)
	}
	// Overflow the capacity: the oldest entry is evicted FIFO.
	for i := 0; i < 3; i++ {
		c.PrepareCached(pc, nil, fmt.Sprintf("filler record %d", i))
	}
	if pc.Len() != 3 {
		t.Fatalf("Len = %d, want capacity 3", pc.Len())
	}
	if _, ok := pc.Get("coffee shop latte"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	// A nil cache degrades to plain Prepare.
	if pr := c.PrepareCached(nil, nil, "coffee shop latte"); pr == nil || len(pr.Segs) == 0 {
		t.Fatal("nil-cache PrepareCached returned an unprepared record")
	}
}
