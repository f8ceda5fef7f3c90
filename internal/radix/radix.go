// Package radix is the repository's one integer sort: a stable LSD radix
// sort of indices by an int64 key. The sequential sweepline orders its
// events and interval-tree skeleton with it, the row partition ranks its
// y-endpoints, and the parallel sweepline executor sorts its views and MBR
// x-orders.
package radix

import "math/bits"

// small is the input length below which Sort runs an insertion sort: a
// sweep over a handful of boxes would otherwise spend more time clearing
// and prefix-summing the digit counts than ordering its events. Insertion
// sort is stable too, so the result does not depend on the cutoff.
const small = 48

// Sort sorts the indices perm by key[perm[i]] with a stable LSD radix sort
// on key − min key: 8-bit digits, one counting pass per byte of the key
// span, a pass skipped when every index shares its digit. The span is taken
// modulo 2⁶⁴, so every int64 key is ordered correctly, the whole range
// included. Stability makes the result the (key, position in perm) order;
// callers that pass perm ascending get the (key, index) order. tmp is the
// ping-pong buffer; the sorted slice and the spare buffer come back, either
// of which may be tmp.
func Sort(perm, tmp []int32, key []int64) (sorted, spare []int32) {
	if len(perm) < small {
		insertion(perm, key)
		return perm, tmp
	}
	lo, hi := key[perm[0]], key[perm[0]]
	for _, p := range perm[1:] {
		lo, hi = min(lo, key[p]), max(hi, key[p])
	}
	passes := (bits.Len64(uint64(hi-lo)) + 7) / 8
	var count [8][256]int32
	for _, p := range perm {
		d := uint64(key[p] - lo)
		for q := range passes {
			count[q][d>>(8*q)&0xff]++
		}
	}
	if cap(tmp) < len(perm) {
		tmp = make([]int32, len(perm))
	}
	tmp = tmp[:len(perm)]
	for q := range passes {
		c, shift := &count[q], 8*q
		if int(c[uint64(key[perm[0]]-lo)>>shift&0xff]) == len(perm) {
			continue // one digit throughout: the pass would copy perm
		}
		var sum int32
		for d, n := range c {
			c[d], sum = sum, sum+n
		}
		for _, p := range perm {
			d := uint64(key[p]-lo) >> shift & 0xff
			tmp[c[d]] = p
			c[d]++
		}
		perm, tmp = tmp, perm
	}
	return perm, tmp
}

// insertion is Sort's short-input path: a stable insertion sort.
func insertion(perm []int32, key []int64) {
	for i := 1; i < len(perm); i++ {
		p, k := perm[i], key[perm[i]]
		j := i
		for ; j > 0 && key[perm[j-1]] > k; j-- {
			perm[j] = perm[j-1]
		}
		perm[j] = p
	}
}
