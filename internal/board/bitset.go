package board

import mathbits "math/bits"

// words is a fixed-capacity bitset packed into 64-bit words. The board
// keeps one bitplane per boolean node attribute (decontaminated,
// ever-clean, settled, flood-visited), so per-node state costs bits
// instead of the bytes the legacy []bool/[]int layout paid.
// Bits above the node count are never set, so popcounts need no tail
// masking.
type words []uint64

func newWords(n int) words { return make(words, (n+63)/64) }

func (w words) get(i int) bool { return w[i>>6]&(1<<(uint(i)&63)) != 0 }

func (w words) set(i int) { w[i>>6] |= 1 << (uint(i) & 63) }

func (w words) clear(i int) { w[i>>6] &^= 1 << (uint(i) & 63) }

// clearAll zeroes the bitset in O(n/64); the compiler lowers the loop
// to a memclr.
func (w words) clearAll() {
	for i := range w {
		w[i] = 0
	}
}

// firstSet returns the lowest set bit index, or -1 when empty.
func (w words) firstSet() int {
	for i, x := range w {
		if x != 0 {
			return i<<6 + mathbits.TrailingZeros64(x)
		}
	}
	return -1
}
