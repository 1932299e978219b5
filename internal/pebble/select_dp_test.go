package pebble

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/sim"
)

// fullWalkDP is selectPrefixDP as it stood before its walk started at the
// heuristic's cut under dpFloor: Algorithm 5 from Len down, every position
// tested. It is the reference the shortened walk must agree with, cut for
// cut.
func fullWalkDP(acc *AccTable, t int, target float64, tau int) int {
	// Only rows W[p−1] and W[p] of W[p][d] are live at a time; they and the
	// accessory row V take 3τ floats, on the stack for the τ anyone uses.
	var buf [3 * 16]float64
	rows := buf[:]
	if 3*tau > len(rows) {
		rows = make([]float64, 3*tau)
	}
	prev, row, v := rows[:tau], rows[tau:2*tau], rows[2*tau:3*tau]
	if acc.AS(acc.Len()) < target-1e-12 {
		acc.beginDP() // the loop's first position reads the tables
	}
	for i := acc.Len(); i >= 1; i-- {
		as := acc.AS(i)
		if as >= target-1e-12 {
			return i
		}
		// Position i leaves the prefix B[1, i−1].
		acc.groups[groupOf(acc.pebbles[i-1])].q--
		// W[p][d]: maximal similarity increment achievable by inserting d
		// pebbles of the first p segments from B[1, i-1]. W[0] is all zero,
		// and so is column 0 of every row (never written).
		clear(prev)
		reached := false
		for segIdx := 0; segIdx < t && !reached; segIdx++ {
			// Accessory table row V[p][c] per Eq. (13)-(14); V[p][0] = 0.
			// The suffix weight of each measure's group is the same for
			// every c, so it is read once per (i, P).
			var groups [numMeasures]*groupTable
			var sfx [numMeasures]float64
			if g := segIdx * numMeasures; g < len(acc.groups) {
				for mi := range groups {
					groups[mi] = &acc.groups[g+mi]
					sfx[mi] = acc.suffix(groups[mi])
				}
			}
			r0 := 0.0
			for _, s := range sfx {
				if s > r0 {
					r0 = s
				}
			}
			for c := 1; c < tau; c++ {
				best := 0.0
				for mi, g := range groups {
					val := sfx[mi]
					if g != nil {
						val += acc.topWeights(g, int32(c))
					}
					if val > best {
						best = val
					}
				}
				v[c] = best - r0
			}
			for d := 1; d < tau; d++ {
				best := 0.0
				for c := 0; c <= d; c++ {
					cand := prev[d-c] + v[c]
					if cand > best {
						best = cand
					}
				}
				row[d] = best
				if as+row[d] >= target-1e-12 {
					reached = true
					break
				}
			}
			// Carry forward d = 0 (always 0) implicitly; also make sure
			// W[p][d] is monotone in p by taking the previous row when the
			// current segment adds nothing.
			for d := 1; d < tau; d++ {
				if prev[d] > row[d] {
					row[d] = prev[d]
				}
			}
			prev, row = row, prev
		}
		if reached {
			return i
		}
		// Check the completed table too (covers tau == 1, where the inner
		// loops never run).
		if as+prev[tau-1] >= target-1e-12 {
			return i
		}
	}
	return 0
}

// dpCorpus is the records of a generated dataset's two sides, with the
// selector their order (built over all of them at gram length q) gives.
func dpCorpus(cfg datagen.Config, q int) (*Selector, [][]string) {
	ds := datagen.New(cfg).Generate()
	ctx := ds.Context()
	ctx.Q = q
	gen := NewGenerator(ctx)
	var records [][]string
	for _, r := range append(slices.Clone(ds.S), ds.T...) {
		records = append(records, r.Tokens)
	}
	return NewSelector(gen, buildOrder(gen, records), 0), records
}

// TestDPStartMatchesFullWalk holds selectPrefixDP, whose walk starts at the
// heuristic's cut under dpFloor, to fullWalkDP, the walk from Len, on every
// record of a MED-like and a WIKI-like corpus, at q ∈ {2, 3}, θ ∈ {0.6, …,
// 0.95} and τ ∈ [1, 9], and checks that the shortened walk skips positions.
func TestDPStartMatchesFullWalk(t *testing.T) {
	selections, skipped := 0, 0
	for _, cfg := range []datagen.Config{datagen.MEDLike(500, 7), datagen.WIKILike(500, 7)} {
		for _, q := range []int{2, 3} {
			sel, records := dpCorpus(cfg, q)
			for _, tokens := range records {
				pre := sel.Prepare(tokens)
				if pre.acc == nil {
					continue
				}
				for theta := 0.6; theta < 0.96; theta += 0.05 {
					target := theta * float64(pre.MinPartition)
					for tau := 1; tau <= 9; tau++ {
						got := selectPrefixDP(pre.acc, pre.NumSegments, target, tau)
						if want := fullWalkDP(pre.acc, pre.NumSegments, target, tau); got != want {
							t.Fatalf("%s q=%d %v θ=%.2f τ=%d: DP cuts at %d, the full walk at %d",
								cfg.Name, q, tokens, theta, tau, got, want)
						}
						selections++
						skipped += pre.acc.Len() - selectPrefixHeuristic(pre.acc, dpFloor(target, tau), tau)
					}
				}
			}
		}
	}
	if selections < 100000 || skipped == 0 {
		t.Fatalf("%d selections skipped %d positions: want many of both", selections, skipped)
	}
	t.Logf("%d selections, %.1f positions skipped a selection", selections, float64(skipped)/float64(selections))
}

// dpFuzzSeeds are FuzzSelectDP's seeds, each named for what it holds
// (TestSelectDPFuzzSeeds checks that it does): a pebble list as fuzzPebbles
// decodes it, θ in 65 536ths, MP(S) and τ, and pin, which when non-zero sets
// the target just past the heuristic's bound at one position, inside
// dpFloor's margin.
var dpFuzzSeeds = []struct {
	name         string
	data         []byte
	theta        uint16
	mp, tau, pin uint8
}{
	{"tau 1", []byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 3, 1, 2, 0, 2, 0, 0, 2, 1, 7}, 52428, 2, 0, 0},
	{"tau 16", []byte{0, 0, 0, 1, 0, 0, 1, 1, 5, 1, 1, 9, 2, 0, 0, 2, 2, 0, 3, 1, 2, 3, 0, 0, 0, 1, 4, 4, 0, 0, 5, 2, 0, 5, 1, 8}, 52428, 3, 15, 0},
	{"tau 17", []byte{0, 0, 0, 1, 0, 0, 1, 1, 5, 1, 1, 9, 2, 0, 0, 2, 2, 0, 3, 1, 2, 3, 0, 0, 0, 1, 4, 4, 0, 0, 5, 2, 0, 5, 1, 8}, 52428, 3, 16, 0},
	{"AS alone reaches the target", []byte{0, 0, 0, 0, 0, 0, 1, 1, 9, 1, 0, 0}, 6553, 1, 1, 0},
	{"DP bound above the heuristic's, inside the margin", []byte{241, 9, 241, 223, 174, 32, 192, 63, 243, 31, 23, 86, 71, 105, 170, 73, 240, 18}, 0, 0, 1, 2},
}

// fuzzPebbles decodes a pebble list of up to 64 pebbles (a MED-like record
// has 57 on average), three bytes a pebble: its segment (of six), its
// measure, and for a synonym pebble its weight in tenths. Gram and
// taxonomy weights are the same for every pebble of a group, as the engine
// makes them; synonym groups are uniform or not as the bytes say. The list's
// order is its position order, as if sorted by a global order.
func fuzzPebbles(data []byte) ([]Pebble, int) {
	var list []Pebble
	segments := 0
	for i := 0; i+2 < len(data) && len(list) < 64; i += 3 {
		seg, m := int(data[i]%6), sim.Measure(data[i+1]%numMeasures)
		w := 1 / float64(2+seg)
		switch m {
		case sim.Synonym:
			w = float64(1+data[i+2]%10) / 10
		case sim.Taxonomy:
			w = 1 / float64(1+seg%4)
		}
		list = append(list, Pebble{Key: fmt.Sprint(i), ID: uint32(i), Weight: w, Segment: seg, Measure: m})
		segments = max(segments, seg+1)
	}
	return list, segments
}

// dpFuzzCase decodes one FuzzSelectDP input into its pebble list, segment
// count, target and τ.
func dpFuzzCase(data []byte, theta uint16, mp, tau, pin uint8) ([]Pebble, int, float64, int) {
	list, segments := fuzzPebbles(data)
	if len(list) == 0 {
		return nil, 0, 0, 0
	}
	k := 1 + int(tau)%20
	target := (float64(theta) + 1) / 65536 * float64(1+int(mp)%segments)
	if pin > 0 {
		// The least target whose test floor, target − 1e-12, lies above the
		// heuristic's bound at position i.
		acc := NewAccTable(list)
		i := 1 + (int(pin)-1)%len(list)
		h := acc.AS(i) + acc.TopWeights(i-1, k-1)
		for target = h + 1e-12; target-1e-12 <= h; {
			target = math.Nextafter(target, math.Inf(1))
		}
	}
	return list, segments, target, k
}

// FuzzSelectDP holds the DP's cut on arbitrary pebble lists, θ, MP(S) and
// τ ∈ [1, 20] to the walk from Len (fullWalkDP) and to the direct sums of
// refSelectPrefixDP, and to no more than the heuristic's cut up to rounding:
// the heuristic's under dpFloor, since the computed DP bound can exceed the
// computed heuristic bound by an ulp (the last seed).
func FuzzSelectDP(f *testing.F) {
	for _, s := range dpFuzzSeeds {
		f.Add(s.data, s.theta, s.mp, s.tau, s.pin)
	}
	f.Fuzz(func(t *testing.T, data []byte, theta uint16, mp, tau, pin uint8) {
		list, segments, target, k := dpFuzzCase(data, theta, mp, tau, pin)
		if list == nil {
			return
		}
		acc := NewAccTable(list)
		got := selectPrefixDP(acc, segments, target, k)
		if want := fullWalkDP(NewAccTable(list), segments, target, k); got != want {
			t.Fatalf("target %v τ=%d: DP cuts at %d, the full walk at %d", target, k, got, want)
		}
		if want := refSelectPrefixDP(newRefAcc(list), segments, target, k); got != want {
			t.Fatalf("target %v τ=%d: DP cuts at %d, the reference at %d", target, k, got, want)
		}
		if h := selectPrefixHeuristic(acc, dpFloor(target, k), k); got > h {
			t.Fatalf("target %v τ=%d: DP cuts at %d, past the heuristic's %d under dpFloor", target, k, got, h)
		}
	})
}

// TestSelectDPFuzzSeeds holds each of FuzzSelectDP's seeds to what its name
// says it holds.
func TestSelectDPFuzzSeeds(t *testing.T) {
	for _, s := range dpFuzzSeeds {
		list, segments, target, tau := dpFuzzCase(s.data, s.theta, s.mp, s.tau, s.pin)
		acc := NewAccTable(list)
		var ok bool
		switch s.name {
		case "tau 1":
			ok = tau == 1
		case "tau 16":
			ok = tau == 16 && segments > 1
		case "tau 17":
			ok = tau == 17 && segments > 1
		case "AS alone reaches the target":
			start := selectPrefixHeuristic(acc, dpFloor(target, tau), tau)
			ok = tau > 1 && start > 0 && acc.AS(start) >= target-1e-12
		case "DP bound above the heuristic's, inside the margin":
			// The DP cuts at i, where the heuristic's bound misses the
			// target by an ulp: a walk started at the heuristic's own cut
			// would have skipped it.
			i := 1 + (int(s.pin)-1)%len(list)
			h := acc.AS(i) + acc.TopWeights(i-1, tau-1)
			ok = tau > 1 && h < target-1e-12 && h >= dpFloor(target, tau) &&
				fullWalkDP(NewAccTable(list), segments, target, tau) == i &&
				selectPrefixHeuristic(acc, target-1e-12, tau) < i
		}
		if !ok {
			t.Errorf("seed %q: %d pebbles, %d segments, target %v, τ=%d: not what its name says", s.name, len(list), segments, target, tau)
		}
	}
}
