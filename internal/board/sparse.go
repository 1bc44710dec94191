package board

import "fmt"

// sparseCount maps node -> count for the few nodes whose agent count
// passes what the board's byte-per-node plane holds: the board keeps
// the first 255 agents on a node in that byte and the excess here.
// Only the homebase of a big team and the crowded nodes of the
// visibility strategy (about 512 of them at d=18) ever get an entry.
//
// Open addressing with linear probing and backward-shift deletion;
// keys are stored as node+1 so the zero word means empty. The table
// grows at 50% load and is bounded by the peak number of nodes holding
// an excess at once, not by the graph order.
type sparseCount struct {
	keys []int32 // node+1; 0 = empty slot
	vals []int32
	n    int // live entries
}

const sparseMinCap = 16

func (s *sparseCount) init() {
	if s.keys == nil {
		s.keys = make([]int32, sparseMinCap)
		s.vals = make([]int32, sparseMinCap)
	}
}

func (s *sparseCount) slot(key int32) uint32 {
	// Fibonacci hashing; table length is always a power of two.
	return (uint32(key) * 2654435761) & uint32(len(s.keys)-1)
}

// get returns the count for node v (0 when absent).
func (s *sparseCount) get(v int) int {
	if s.n == 0 {
		return 0
	}
	key := int32(v) + 1
	for i := s.slot(key); ; i = (i + 1) & uint32(len(s.keys)-1) {
		switch s.keys[i] {
		case key:
			return int(s.vals[i])
		case 0:
			return 0
		}
	}
}

// add puts k more agents on node v and returns its new count.
func (s *sparseCount) add(v, k int) int {
	s.init()
	if 2*(s.n+1) > len(s.keys) {
		s.grow()
	}
	key := int32(v) + 1
	for i := s.slot(key); ; i = (i + 1) & uint32(len(s.keys)-1) {
		switch s.keys[i] {
		case key:
			s.vals[i] += int32(k)
			return int(s.vals[i])
		case 0:
			s.keys[i] = key
			s.vals[i] = int32(k)
			s.n++
			return k
		}
	}
}

// sub takes k agents off node v and returns its new count, deleting
// the entry (backward-shift) when it reaches zero. It panics if v holds
// fewer than k agents — the board only takes off nodes what it put
// there.
func (s *sparseCount) sub(v, k int) int {
	key := int32(v) + 1
	mask := uint32(len(s.keys) - 1)
	for i := s.slot(key); ; i = (i + 1) & mask {
		switch s.keys[i] {
		case key:
			if int(s.vals[i]) < k {
				panic(fmt.Sprintf("board: %d agents leave node %d, which holds %d", k, v, s.vals[i]))
			}
			s.vals[i] -= int32(k)
			if s.vals[i] > 0 {
				return int(s.vals[i])
			}
			s.delete(i, mask)
			s.n--
			return 0
		case 0:
			panic(fmt.Sprintf("board: no agents recorded on node %d", v))
		}
	}
}

// delete empties slot i, then shifts later probe-chain entries back so
// linear probing never crosses a hole it should not.
func (s *sparseCount) delete(i, mask uint32) {
	s.keys[i] = 0
	for j := (i + 1) & mask; s.keys[j] != 0; j = (j + 1) & mask {
		home := s.slot(s.keys[j])
		// Shift j back to i unless j's home lies in (i, j] — the
		// circular-distance test standard for backward-shift deletion.
		if (j-home)&mask >= (j-i)&mask {
			s.keys[i], s.vals[i] = s.keys[j], s.vals[j]
			s.keys[j] = 0
			i = j
		}
	}
}

func (s *sparseCount) grow() {
	oldKeys, oldVals := s.keys, s.vals
	s.keys = make([]int32, 2*len(oldKeys))
	s.vals = make([]int32, 2*len(oldVals))
	mask := uint32(len(s.keys) - 1)
	for j, key := range oldKeys {
		if key == 0 {
			continue
		}
		i := s.slot(key)
		for s.keys[i] != 0 {
			i = (i + 1) & mask
		}
		s.keys[i] = key
		s.vals[i] = oldVals[j]
	}
}

// reset drops every entry, keeping the backing arrays.
func (s *sparseCount) reset() {
	for i := range s.keys {
		s.keys[i] = 0
	}
	s.n = 0
}
