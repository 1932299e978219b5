package join

import (
	"runtime"
	"testing"

	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
)

// orderKeyBytes is TestOrderKeyHeap's ceiling on the live heap a key of an
// order holds, its text included: 34.4 B measured on the 10 000-title corpus
// (27 845 keys in 65 536 slots), built and restored alike. While the order
// was a map from key to ID with a key slice and an int frequency slice
// beside it, the same measurement read 64.5 B a key built and 63.7 B
// restored, the restored keys' text aside (a restore kept the image's
// strings).
const orderKeyBytes = 36

// TestOrderKeyHeap bounds the live heap a key of the pebble order of a
// 10 000-title index holds: its arena text, offset, frequency and key-table
// slots. It measures an order frozen from the index's key count, and one
// restored from the index's image, each as the growth of the live heap it
// brings while its inputs stay alive.
func TestOrderKeyHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("heap readings are only meaningful without -race; skipped with -short")
	}
	cfg := titlesConfig()
	cfg.Size = 10000
	gen := datagen.New(cfg)
	ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
	ctx.Q = 5
	sx := NewJoiner(ctx).BuildShardedIndex(strutil.NewCollection(gen.Collection(cfg.Size)), 1, titlesOptions, DynamicOptions{})
	_, live, _ := sx.shards[0].liveLocked()
	count := sx.countKeys(live)
	keys, freqs := count.Table(true)

	grown := func(make func() any) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		held := make()
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(held)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	built := grown(func() any { return count.Freeze().Order() })
	restored := grown(func() any {
		o, err := pebble.RestoreOrder(keys, freqs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return o
	})
	runtime.KeepAlive(count) // the inputs stay alive through both readings
	runtime.KeepAlive(keys)
	runtime.KeepAlive(freqs)
	n := float64(len(keys))
	t.Logf("%d keys: a built order holds %.1f B a key, a restored one %.1f B", len(keys), float64(built)/n, float64(restored)/n)
	for _, c := range []struct {
		what  string
		bytes int64
	}{{"built", built}, {"restored", restored}} {
		if per := float64(c.bytes) / n; per > orderKeyBytes {
			t.Errorf("a %s order holds %.1f B a key, more than %d B", c.what, per, orderKeyBytes)
		}
	}
}
