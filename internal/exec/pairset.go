package exec

import (
	"math/bits"

	"repro/internal/pathindex"
)

// pairSet is the seen-set of the deduplicating operators (Distinct,
// UnionDistinct): an open-addressing hash set over
// the packed pair (pathindex.Pack: src<<32|dst) with linear probing, a
// multiplicative hash and doubling growth — one 8-byte slot per entry,
// 2.5x cheaper per pair than map[Pair]struct{} (BenchmarkDedup).
//
// Slot value 0 marks an empty slot, so the zero key — the pair (0,0) —
// is a flag instead of a slot; every other key, ^uint64(0) included, is
// stored as itself. The zero pairSet is empty and ready to use.
type pairSet struct {
	slots   []uint64
	n       int  // occupied slots (the zero key is not counted)
	shift   uint // 64 - log2(len(slots)): the hash keeps the top bits
	hasZero bool
}

// pairSetMinSlots is the size of the first table, a power of two.
const pairSetMinSlots = 256

// hashMul is 2^64 divided by the golden ratio (Fibonacci hashing): the
// top bits of key*hashMul depend on every bit of key, so node IDs that
// differ only in src or only in dst still spread over the table.
const hashMul = 0x9E3779B97F4A7C15

// add inserts pr and reports whether it was absent.
func (s *pairSet) add(pr Pair) bool {
	return s.addKey(uint64(pathindex.Pack(pr.Src, pr.Dst)))
}

func (s *pairSet) addKey(key uint64) bool {
	if key == 0 {
		absent := !s.hasZero
		s.hasZero = true
		return absent
	}
	// Grow at load 1/2: linear probing stays at ~1.5 probes per hit and
	// ~2.5 per miss.
	if 2*s.n >= len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := key * hashMul >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = key
			s.n++
			return true
		case key:
			return false
		}
	}
}

// grow doubles the table (or allocates the first one) and reinserts the
// stored keys; they are distinct, so reinsertion only looks for a free
// slot.
func (s *pairSet) grow() {
	old := s.slots
	size := pairSetMinSlots
	if len(old) > 0 {
		size = 2 * len(old)
	}
	s.slots = make([]uint64, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, key := range old {
		if key == 0 {
			continue
		}
		i := key * hashMul >> s.shift
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = key
	}
}
