package main

import (
	"github.com/aujoin/aujoin/internal/metrics"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// openLoopSeconds is the length of the traced run's open-loop phase.
const openLoopSeconds = 10.0

// loadReport is the outcome of the open-loop phase.
type loadReport struct {
	offeredRPS, p50Ms, p95Ms, lateMsMax float64
	sent, failed                        int
}

// openLoop offers lookups at a fixed rate with exponential inter-arrival
// times drawn from the seed, over at most GOMAXPROCS connections. Each
// request is timed from the moment it was due, not from when it was sent, so
// a stall is charged to every request it delayed; lateMsMax is how late the
// generator itself ran.
func openLoop(t *target, queries []string, rps, seconds float64, seed int64) loadReport {
	rng := rand.New(rand.NewSource(seed ^ 0x6f70656e))
	var due []time.Duration
	for at := time.Duration(0); at.Seconds() < seconds; {
		at += time.Duration(rng.ExpFloat64() / rps * float64(time.Second))
		due = append(due, at)
	}
	lat := make([]float64, len(due))
	late := make([]float64, len(due))
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				if wait := due[i] - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				late[i] = ms(time.Since(start) - due[i])
				if _, err := t.query(t.url, queries[i%len(queries)], "", -1); err != nil {
					failed.Add(1)
				}
				lat[i] = ms(time.Since(start) - due[i])
			}
		}()
	}
	wg.Wait()
	rep := loadReport{
		offeredRPS: float64(len(due)) / due[len(due)-1].Seconds(),
		p50Ms:      metrics.Percentile(lat, 50), p95Ms: metrics.Percentile(lat, tailPercentile(len(lat))),
		sent: len(due), failed: int(failed.Load()),
	}
	for _, l := range late {
		rep.lateMsMax = max(rep.lateMsMax, l)
	}
	return rep
}
