package join

import "sync/atomic"

// pipelineGoroutines counts the goroutines the join pipeline has spawned and
// not yet joined: probe workers, fan-out siblings, stream producers. The
// leak tests wait for it to settle to zero — unlike runtime.NumGoroutine(),
// which also counts runtime housekeeping and whatever other tests left
// running, so asserting on it raced with unrelated goroutines and flaked.
var pipelineGoroutines atomic.Int64

// PipelineGoroutines returns the number of join-pipeline goroutines
// currently in flight. The cluster layer's leak tests assert it settles to
// zero after a cancelled scatter-gather, the same discipline the in-process
// streaming tests apply.
func PipelineGoroutines() int64 { return pipelineGoroutines.Load() }

// goPipeline spawns fn on a goroutine tagged with the pipeline counter.
func goPipeline(fn func()) {
	pipelineGoroutines.Add(1)
	go func() {
		defer pipelineGoroutines.Add(-1)
		fn()
	}()
}
