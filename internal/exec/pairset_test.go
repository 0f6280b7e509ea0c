package exec

import (
	"math/rand"
	"testing"
)

// checkAgainstMap feeds keys to a fresh pairSet and to a Go map and
// requires add to report "absent" exactly when the map does — for first
// insertions and for repeats alike.
func checkAgainstMap(t *testing.T, name string, keys []uint64) {
	t.Helper()
	var s pairSet
	ref := map[uint64]struct{}{}
	for pass := 0; pass < 2; pass++ { // the second pass re-adds every key
		for i, k := range keys {
			_, dup := ref[k]
			ref[k] = struct{}{}
			if got := s.addKey(k); got == dup {
				t.Fatalf("%s: pass %d key #%d (%#x): add = %v, map says dup = %v", name, pass, i, k, got, dup)
			}
		}
	}
	distinct := s.n
	if s.hasZero {
		distinct++
	}
	if distinct != len(ref) {
		t.Fatalf("%s: set holds %d keys, map %d", name, distinct, len(ref))
	}
}

// TestPairSetMatchesMap is the property test of the flat set against
// map[uint64]struct{}: random keys, the two keys a sentinel scheme gets
// wrong (0 and ^0), dense ranges that cross several growth steps, and
// keys that all hash to one home slot so every insert probes linearly.
func TestPairSetMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))

	random := make([]uint64, 20000)
	for i := range random {
		random[i] = r.Uint64()
		if i%3 == 0 { // repeats inside one pass
			random[i] = random[r.Intn(i+1)]
		}
	}
	checkAgainstMap(t, "random", random)

	checkAgainstMap(t, "edges", []uint64{0, ^uint64(0), 0, 1, ^uint64(0) - 1, ^uint64(0), 1 << 32, 1<<32 - 1, 0})

	// Node IDs are dense: low src × low dst, and one src with many dsts.
	var dense []uint64
	for src := uint64(0); src < 60; src++ {
		for dst := uint64(0); dst < 60; dst++ {
			dense = append(dense, src<<32|dst)
		}
	}
	for dst := uint64(0); dst < 5000; dst++ {
		dense = append(dense, 7<<32|dst, dst<<32|7)
	}
	checkAgainstMap(t, "dense", dense)

	// All-same-bucket: keys whose home slot is 0 in a 4096-slot table —
	// hence in every smaller table too, the hash keeps the top bits — so
	// the set is one probe cluster until its last growth step.
	// The same with the last slot as home, so every probe wraps around.
	var first, last []uint64
	for k := uint64(1); len(first) < 3000 || len(last) < 3000; k++ {
		switch k * hashMul >> 52 {
		case 0:
			first = append(first, k)
		case 4095:
			last = append(last, k)
		}
	}
	checkAgainstMap(t, "first-bucket", first)
	checkAgainstMap(t, "last-bucket", last)

	// Small universes of ID-shaped keys, many sets of many sizes.
	for trial := 0; trial < 200; trial++ {
		keys := make([]uint64, r.Intn(600))
		for i := range keys {
			keys[i] = uint64(r.Intn(300))<<32 | uint64(r.Intn(4))
			if r.Intn(50) == 0 {
				keys[i] = ^uint64(0) - uint64(r.Intn(3))
			}
		}
		checkAgainstMap(t, "small", keys)
	}
}
