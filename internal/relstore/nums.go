package relstore

// nums is the payload vector of an INT, BOOL or FLOAT column: one int64
// per slot (a float is held as its IEEE 754 bits), stored at the narrowest
// of four widths that holds every value in the vector. It is 1, 2 or 4 B
// per slot while every value stored in it is in [0, 2⁸), [0, 2¹⁶) or
// [0, 2³²), and plain 8 B otherwise: a negative number or a float's bits
// take 8 B. There is no base: the ids a loader stores count from 0.
//
// It follows Codes's rule. A vector widens in place, to the width the
// value being stored needs, and only in a column its writer owns (see
// Relation.own), so no other world sees it change; a copy made for such a
// store is made at the new width. It never narrows back, a copy keeps its
// width, and an append is made at the current width.
type nums struct {
	lg  uint8 // log2 of the bytes per slot; the one vector below in use
	w8  []uint8
	w16 []uint16
	w32 []uint32
	w64 []int64
}

// slot is an element type of a nums vector.
type slot interface {
	uint8 | uint16 | uint32 | int64
}

// lgOf returns the log2 of the narrowest width that holds x.
func lgOf(x int64) uint8 {
	switch u := uint64(x); {
	case u < 1<<8:
		return 0
	case u < 1<<16:
		return 1
	case u < 1<<32:
		return 2
	}
	return 3
}

// makeNums returns a vector of n zero slots at width 1<<lg and room for
// extra more, in one allocation.
func makeNums(lg uint8, n, extra int) nums {
	v := nums{lg: lg}
	switch lg {
	case 0:
		v.w8 = make([]uint8, n, n+extra)
	case 1:
		v.w16 = make([]uint16, n, n+extra)
	case 2:
		v.w32 = make([]uint32, n, n+extra)
	default:
		v.w64 = make([]int64, n, n+extra)
	}
	return v
}

// at returns the value of slot i.
func (v *nums) at(i int) int64 {
	switch v.lg {
	case 0:
		return int64(v.w8[i])
	case 1:
		return int64(v.w16[i])
	case 2:
		return int64(v.w32[i])
	}
	return v.w64[i]
}

// len returns the number of slots.
func (v *nums) len() int { return len(v.w8) + len(v.w16) + len(v.w32) + len(v.w64) }

// push appends a slot holding 0, at the current width.
func (v *nums) push() {
	switch v.lg {
	case 0:
		v.w8 = append(v.w8, 0)
	case 1:
		v.w16 = append(v.w16, 0)
	case 2:
		v.w32 = append(v.w32, 0)
	default:
		v.w64 = append(v.w64, 0)
	}
}

// set stores x in slot s, widening the vector first when x does not fit
// its width.
func (v *nums) set(s int, x int64) {
	if lg := lgOf(x); lg > v.lg {
		*v = v.grown(lg, cap(v.w8)+cap(v.w16)+cap(v.w32)+cap(v.w64)-v.len())
	}
	switch v.lg {
	case 0:
		v.w8[s] = uint8(x)
	case 1:
		v.w16[s] = uint16(x)
	case 2:
		v.w32[s] = uint32(x)
	default:
		v.w64[s] = x
	}
}

// grown returns a copy of v at the wider of its width and 1<<lg, with room
// for extra more slots, in one allocation.
func (v *nums) grown(lg uint8, extra int) nums {
	if lg <= v.lg {
		switch v.lg {
		case 0:
			return nums{lg: 0, w8: grown(v.w8, extra)}
		case 1:
			return nums{lg: 1, w16: grown(v.w16, extra)}
		case 2:
			return nums{lg: 2, w32: grown(v.w32, extra)}
		}
		return nums{lg: 3, w64: grown(v.w64, extra)}
	}
	w := makeNums(lg, v.len(), extra)
	switch lg {
	case 1:
		widen(w.w16, v)
	case 2:
		widen(w.w32, v)
	default:
		widen(w.w64, v)
	}
	return w
}

// widen copies every value of v into dst, a vector of v's length at a
// width that holds them.
func widen[T slot](dst []T, v *nums) {
	switch v.lg {
	case 0:
		for i, x := range v.w8 {
			dst[i] = T(x)
		}
	case 1:
		for i, x := range v.w16 {
			dst[i] = T(x)
		}
	case 2:
		for i, x := range v.w32 {
			dst[i] = T(x)
		}
	}
}
