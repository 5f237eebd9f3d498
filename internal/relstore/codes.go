package relstore

// Codes is a STRING column's code vector, one code per slot, indexing the
// column's dictionary. It has two widths: 1 B per slot while every code
// stored in it is below 256, and 4 B from the first store of a larger
// code. A vector widens once, in place, and only in a column its writer
// owns (see Relation.own), so no other world and no lent view sees it
// change; it never narrows back, and a copy keeps its width.
//
// A Codes lent by Relation.StringCodes is a read-only view: At and Len.
// Its methods take a pointer: a Codes is six words, and a walk reads one
// code per factor, which a copy of the receiver per read would slow.
type Codes struct {
	narrow []uint8  // while narrow
	wide   []uint32 // non-nil once wide; narrow is then nil
}

// At returns the code of slot i.
func (v *Codes) At(i int) uint32 {
	if v.wide != nil {
		return v.wide[i]
	}
	return uint32(v.narrow[i])
}

// Len returns the number of slots.
func (v *Codes) Len() int { return len(v.narrow) + len(v.wide) }

// push appends a slot holding code 0.
func (v *Codes) push() {
	if v.wide != nil {
		v.wide = append(v.wide, 0)
	} else {
		v.narrow = append(v.narrow, 0)
	}
}

// set stores code in slot s, widening the vector first when it is narrow
// and the code does not fit a byte.
func (v *Codes) set(s int, code uint32) {
	switch {
	case v.wide != nil:
		v.wide[s] = code
	case code < 1<<8:
		v.narrow[s] = uint8(code)
	default:
		v.wide = make([]uint32, len(v.narrow), cap(v.narrow))
		for i, c := range v.narrow {
			v.wide[i] = uint32(c)
		}
		v.narrow = nil
		v.wide[s] = code
	}
}

// grown returns a copy of v, of the same width, with room for extra more
// slots.
func (v *Codes) grown(extra int) Codes {
	if v.wide != nil {
		return Codes{wide: grown(v.wide, extra)}
	}
	return Codes{narrow: grown(v.narrow, extra)}
}

// prefix returns the view of the first n slots, with no room to append.
func (v *Codes) prefix(n int) Codes {
	if v.wide != nil {
		return Codes{wide: v.wide[:n:n]}
	}
	return Codes{narrow: v.narrow[:n:n]}
}
