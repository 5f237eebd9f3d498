// Package relstore implements the in-memory relational storage engine that
// holds the single possible world of the probabilistic database: typed
// schemas, bag relations with stable row identifiers, and whole-database
// snapshots.
//
// The engine plays the role that Apache Derby played in the paper: a plain
// deterministic DBMS that always stores exactly one world, treated as a black
// box by the sampler.
//
// A relation is stored by column: one typed vector per attribute, indexed
// by row slot, and a bitmap of the slots that hold live rows. Every
// vector is one type, Slots, 1, 2, 4 or 8 B per slot, the narrowest that
// holds every value in it: an INT or BOOL vector holds integers, a FLOAT
// one IEEE 754 bits, and a STRING one codes into the column's string
// dictionary, so it is 1 B per slot while the dictionary has at most 256
// codes, 2 B up to 65 536 and 4 B beyond. RowIDs count up
// and are never reused, so a row sits in the slot of its id, a delete
// leaves a tombstone, and every scan runs in ascending RowID order. There
// are no row objects: Get builds a tuple, a scan refills one scratch tuple
// per row (the callback clones what it keeps), and SetCol — the MCMC
// sampler's flip — is a store into one vector.
//
// Worlds are shared copy-on-write at column granularity. Clone hands the
// new world the same vectors and marks them shared; a shared vector is
// never written again, and whichever world writes to it first copies it
// and carries on with its own. Inference hypothesises modifications to one
// stored world rather than generating worlds: the prototype (which the
// durable store keeps as it is), every chain and every checkpoint hold
// one copy of the evidence columns between them, and a chain privately
// owns just the hidden column it flips. Reads of a world, Clone included,
// may run concurrently; writing one needs it exclusively.
//
// A STRING column's dictionary is not copied with its vector: it is one
// per column lineage, shared by every clone and every copy, and only ever
// appended to, so a code means one string in all of them. It grows only
// when a world writes a string it does not hold yet; reads never add to
// it, and reloading a world from a snapshot leaves out the strings no
// live row holds any more.
package relstore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type enumerates the column types supported by the engine.
type Type uint8

// Supported column types.
const (
	TInt Type = iota
	TFloat
	TString
	TBool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "STRING"
	case TBool:
		return "BOOL"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Value is a dynamically typed scalar stored in a tuple field. The zero
// Value is the integer 0.
type Value struct {
	kind Type
	i    int64
	f    float64
	s    string
}

// Int returns an integer Value.
func Int(v int64) Value { return Value{kind: TInt, i: v} }

// Float returns a floating-point Value.
func Float(v float64) Value { return Value{kind: TFloat, f: v} }

// String returns a string Value.
func String(v string) Value { return Value{kind: TString, s: v} }

// Bool returns a boolean Value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: TBool, i: i}
}

// Kind reports the type of the value.
func (v Value) Kind() Type { return v.kind }

// AsInt returns the integer payload. It is valid only for TInt values.
func (v Value) AsInt() int64 { return v.i }

// AsFloat returns the numeric payload as a float64 for TInt and TFloat.
func (v Value) AsFloat() float64 {
	if v.kind == TInt {
		return float64(v.i)
	}
	return v.f
}

// AsString returns the string payload. It is valid only for TString values.
func (v Value) AsString() string { return v.s }

// AsBool returns the boolean payload. It is valid only for TBool values.
func (v Value) AsBool() bool { return v.i != 0 }

// Equal reports whether two values are identical in type and payload,
// except that TInt and TFloat compare numerically.
func (v Value) Equal(o Value) bool {
	if v.kind == o.kind {
		switch v.kind {
		case TInt, TBool:
			return v.i == o.i
		case TFloat:
			return v.f == o.f
		case TString:
			return v.s == o.s
		}
	}
	if (v.kind == TInt || v.kind == TFloat) && (o.kind == TInt || o.kind == TFloat) {
		return v.AsFloat() == o.AsFloat()
	}
	return false
}

// Identical reports whether v and o encode to the same key: same kind,
// same payload bits (see Tuple.Identical).
func (v Value) Identical(o Value) bool {
	return v.kind == o.kind && v.i == o.i && v.s == o.s && math.Float64bits(v.f) == math.Float64bits(o.f)
}

// Less imposes a total order within a type (numeric across TInt/TFloat).
// Values of different non-numeric kinds order by kind.
func (v Value) Less(o Value) bool {
	if (v.kind == TInt || v.kind == TFloat) && (o.kind == TInt || o.kind == TFloat) {
		if v.kind == TInt && o.kind == TInt {
			return v.i < o.i
		}
		return v.AsFloat() < o.AsFloat()
	}
	if v.kind != o.kind {
		return v.kind < o.kind
	}
	switch v.kind {
	case TBool:
		return v.i < o.i
	case TString:
		return v.s < o.s
	}
	return false
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case TInt:
		return strconv.FormatInt(v.i, 10)
	case TFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case TString:
		return v.s
	case TBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	}
	return "?"
}

// appendKey appends a self-delimiting binary encoding of the value to dst.
// The encoding is injective so it can be used as a hash-map key component:
// a kind tag, then a fixed 8-byte big-endian payload for numerics and
// booleans, or a uvarint length prefix followed by the raw bytes for
// strings. Float payloads are the IEEE 754 bits, so -0 and 0 (which
// compare Equal) key differently, exactly as they always have.
//
// This is the runtime encoding only; the bound-plan fingerprint format
// ("bfp1:", package ra) pins its own frozen copy of the original layout,
// so this one is free to evolve for speed.
func (v Value) appendKey(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case TInt, TBool:
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.i))
	case TFloat:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.f))
	case TString:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	}
	return dst
}

// compareKey orders v and o as bytes.Compare orders their key encodings
// (see Tuple.CompareKey).
func (v *Value) compareKey(o *Value) int {
	if v.kind != o.kind {
		return cmp.Compare(v.kind, o.kind)
	}
	switch v.kind {
	case TInt, TBool:
		return cmp.Compare(uint64(v.i), uint64(o.i))
	case TFloat:
		return cmp.Compare(math.Float64bits(v.f), math.Float64bits(o.f))
	case TString:
		if len(v.s) != len(o.s) {
			return compareUvarint(uint64(len(v.s)), uint64(len(o.s)))
		}
		return strings.Compare(v.s, o.s)
	}
	return 0
}

// compareUvarint orders two different numbers as bytes.Compare orders
// their uvarint encodings: seven bits at a time from the least
// significant, each byte's top bit set when more follow.
func compareUvarint(a, b uint64) int {
	for {
		ba, bb := byte(a&0x7f), byte(b&0x7f)
		if a >= 0x80 {
			ba |= 0x80
		}
		if b >= 0x80 {
			bb |= 0x80
		}
		if ba != bb {
			return cmp.Compare(ba, bb)
		}
		a, b = a>>7, b>>7
	}
}

// AppendKey appends the value's injective key encoding to dst and returns
// the extended slice, for callers that amortize key construction over a
// reused scratch buffer.
func (v Value) AppendKey(dst []byte) []byte { return v.appendKey(dst) }

// Key returns an injective string encoding of the value, suitable for use
// as a map key (for example in multiset counters).
func (v Value) Key() string { return string(v.appendKey(nil)) }
