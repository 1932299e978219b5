// Package cluster lifts the in-process shard router over the network: a
// coordinator consistent-hashes stable record IDs across N aujoind workers
// organised into R-way replica groups, scatter-gathers queries and probes
// over the NDJSON streaming protocol, routes mutations to every replica of
// the owning group under a per-group sequence number, and keeps the global
// pebble order in agreement across nodes through a coordinator-allocated
// epoch protocol. See ARCHITECTURE.md, "Cluster".
package cluster

import "sort"

// ringVnodes is the number of virtual points each group projects onto the
// hash circle; enough that group ownership shares stay within a few percent
// of even for any N the coordinator realistically manages.
const ringVnodes = 64

// Ring is the consistent-hash placement function: it maps a stable record
// ID to its owning replica group, and a group to the workers that replicate
// it. Placement is a pure function of (workers, replicas) fixed at
// bootstrap — worker failure changes availability, never placement, which
// is what keeps replica indexes byte-identical and cluster results
// bit-identical across failures.
//
// There is one group per worker index: group g's replica set is the worker
// itself plus its R−1 index-successors {g, g+1, …, g+R−1 mod N}. Deriving
// replicas from the owning group (rather than walking the hash circle per
// record) means every record of a group lands on the same R workers, so a
// worker hosts exactly R group indexes and any single replica of a group
// can answer for the whole group.
type Ring struct {
	workers  int
	replicas int
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	group int
}

// NewRing builds the placement for n workers with r-way replication.
// r is clamped to [1, n].
func NewRing(n, r int) *Ring {
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	rg := &Ring{workers: n, replicas: r, points: make([]ringPoint, 0, n*ringVnodes)}
	for g := 0; g < n; g++ {
		for v := 0; v < ringVnodes; v++ {
			rg.points = append(rg.points, ringPoint{hash: mix64(uint64(g)<<32 | uint64(v) | 1<<63), group: g})
		}
	}
	sort.Slice(rg.points, func(i, j int) bool { return rg.points[i].hash < rg.points[j].hash })
	return rg
}

// Workers returns the fixed membership size N.
func (rg *Ring) Workers() int { return rg.workers }

// Replicas returns the replication factor R.
func (rg *Ring) Replicas() int { return rg.replicas }

// Owner maps a stable record ID to its owning group: the group of the first
// virtual point at or after the ID's hash on the circle.
func (rg *Ring) Owner(id int) int {
	h := mix64(uint64(id))
	i := sort.Search(len(rg.points), func(i int) bool { return rg.points[i].hash >= h })
	if i == len(rg.points) {
		i = 0
	}
	return rg.points[i].group
}

// GroupReplicas returns the workers replicating group g, primary first:
// the owner and its R−1 index-successors.
func (rg *Ring) GroupReplicas(g int) []int {
	out := make([]int, rg.replicas)
	for i := range out {
		out[i] = (g + i) % rg.workers
	}
	return out
}

// GroupsOf returns the groups worker w replicates: the R groups whose
// replica sets include w, ascending.
func (rg *Ring) GroupsOf(w int) []int {
	out := make([]int, 0, rg.replicas)
	for i := 0; i < rg.replicas; i++ {
		out = append(out, ((w-i)%rg.workers+rg.workers)%rg.workers)
	}
	sort.Ints(out)
	return out
}

// mix64 is the splitmix64 finisher: a full-avalanche bijection, so the
// sequential IDs the coordinator allocates spread uniformly over the
// circle.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
