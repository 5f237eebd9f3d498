package relstore

// Slots is the vector of one column, one int64 per slot: a STRING
// column's codes into its dictionary, an INT or BOOL column's payloads,
// a FLOAT column's IEEE 754 bits (or an integer's payload). It is stored
// at the narrowest of four widths that holds every value stored in it:
// 1, 2 or 4 B per slot while every value is in [0, 2⁸), [0, 2¹⁶) or
// [0, 2³²), and plain 8 B otherwise, so a negative number or a float's
// bits take 8 B, and a code, which is below 2³², at most 4 B. There is no
// base: codes and the ids a loader stores count from 0.
//
// A vector widens in place, to the width the value being stored needs,
// and only in a column its writer owns (see Relation.own), so no other
// world and no lent view sees it change; a copy made for such a store is
// made at the new width. It never narrows back, a copy keeps its width,
// and an append is made at the current width.
//
// A Slots lent by Relation.StringCodes is a read-only view: At and Len.
// Its methods take a pointer: a Slots is thirteen words, and a walk reads
// one code per factor, which a copy of the receiver per read would slow.
type Slots struct {
	lg  uint8 // log2 of the bytes per slot; the one vector below in use
	w8  []uint8
	w16 []uint16
	w32 []uint32
	w64 []int64
}

// slot is an element type of a Slots vector.
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

// makeSlots returns a vector of n zero slots at width 1<<lg and room for
// extra more, in one allocation.
func makeSlots(lg uint8, n, extra int) Slots {
	v := Slots{lg: lg}
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

// At returns the value of slot i.
func (v *Slots) At(i int) int64 {
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

// Len returns the number of slots.
func (v *Slots) Len() int { return len(v.w8) + len(v.w16) + len(v.w32) + len(v.w64) }

// push appends a slot holding 0, at the current width.
func (v *Slots) push() {
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
func (v *Slots) set(s int, x int64) {
	if lg := lgOf(x); lg > v.lg {
		*v = v.grown(lg, cap(v.w8)+cap(v.w16)+cap(v.w32)+cap(v.w64)-v.Len())
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
func (v *Slots) grown(lg uint8, extra int) Slots {
	if lg <= v.lg {
		switch v.lg {
		case 0:
			return Slots{lg: 0, w8: grown(v.w8, extra)}
		case 1:
			return Slots{lg: 1, w16: grown(v.w16, extra)}
		case 2:
			return Slots{lg: 2, w32: grown(v.w32, extra)}
		}
		return Slots{lg: 3, w64: grown(v.w64, extra)}
	}
	w := makeSlots(lg, v.Len(), extra)
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
func widen[T slot](dst []T, v *Slots) {
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

// prefix returns the view of the first n slots, with no room to append.
func (v *Slots) prefix(n int) Slots {
	switch v.lg {
	case 0:
		return Slots{lg: 0, w8: v.w8[:n:n]}
	case 1:
		return Slots{lg: 1, w16: v.w16[:n:n]}
	case 2:
		return Slots{lg: 2, w32: v.w32[:n:n]}
	}
	return Slots{lg: 3, w64: v.w64[:n:n]}
}

// mask returns bit i set where slot 64w+i holds x, which must fit the
// vector's width.
func (v *Slots) mask(x int64, w int) uint64 {
	switch v.lg {
	case 0:
		return equalMask(v.w8, uint8(x), w)
	case 1:
		return equalMask(v.w16, uint16(x), w)
	case 2:
		return equalMask(v.w32, uint32(x), w)
	}
	return equalMask(v.w64, x, w)
}

// equalMask returns bit i set where slot 64w+i of vec holds x.
func equalMask[T slot](vec []T, x T, w int) uint64 {
	var m uint64
	for i, y := range vec[w<<6 : min(len(vec), w<<6+64)] {
		if y == x {
			m |= 1 << i
		}
	}
	return m
}
