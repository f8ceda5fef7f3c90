// Package radix is the repository's one integer sort: a stable LSD radix
// sort, in two entry points. Sort orders indices by an int64 key: the
// sequential sweepline orders its events and interval-tree skeleton with it,
// and the parallel sweepline executor sorts its views and MBR x-orders.
// SortWords orders self-contained uint64 words by their high bits, so every
// pass reads and writes contiguous memory instead of gathering a key through
// an index: the row partition packs each y-endpoint's offset and position
// into one word and ranks them with it.
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

// SortWords sorts words by w>>shift with a stable LSD radix sort: 8-bit
// digits, one counting pass per byte of the largest key, a pass skipped when
// every word shares its digit. The bits below shift ride along unsorted, so
// words holding a key above shift and their position below it come back in
// (key, position) order. tmp is the ping-pong buffer; the sorted slice and
// the spare buffer come back, either of which may be tmp.
func SortWords(words, tmp []uint64, shift uint) (sorted, spare []uint64) {
	if len(words) < small {
		insertionWords(words, shift)
		return words, tmp
	}
	var hi uint64
	for _, w := range words {
		hi = max(hi, w>>shift)
	}
	passes := (bits.Len64(hi) + 7) / 8
	var count [8][256]int32
	for _, w := range words {
		d := w >> shift
		for q := range passes {
			count[q][d>>(8*q)&0xff]++
		}
	}
	if cap(tmp) < len(words) {
		tmp = make([]uint64, len(words))
	}
	tmp = tmp[:len(words)]
	for q := range passes {
		c, s := &count[q], shift+8*uint(q)
		if int(c[words[0]>>s&0xff]) == len(words) {
			continue // one digit throughout: the pass would copy words
		}
		var sum int32
		for d, n := range c {
			c[d], sum = sum, sum+n
		}
		for _, w := range words {
			d := w >> s & 0xff
			tmp[c[d]] = w
			c[d]++
		}
		words, tmp = tmp, words
	}
	return words, tmp
}

// insertionWords is SortWords' short-input path: a stable insertion sort.
func insertionWords(words []uint64, shift uint) {
	for i := 1; i < len(words); i++ {
		w := words[i]
		j := i
		for ; j > 0 && words[j-1]>>shift > w>>shift; j-- {
			words[j] = words[j-1]
		}
		words[j] = w
	}
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
