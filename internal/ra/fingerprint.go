package ra

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"factordb/internal/relstore"
)

// Fingerprint returns a stable structural content hash of the bound
// subtree rooted at b. The root's is a statement's one identity: the
// serving engine's result cache and view registries key on it, so
// queries with equal bound plans share one view. A parent's encoding
// hashes each child's fingerprint in place of the child's whole subtree;
// nothing is stored on the tree.
//
// The hash covers exactly what determines the subtree's output tuples:
// node kinds, table names, resolved column positions, bound predicate
// structure with literal values, aggregate functions and argument
// positions, and sort/limit parameters. It deliberately excludes
// presentation-only state — scan aliases, output column names, aggregate
// AS names — so plans differing only in naming share physical views.
//
// Stability contract: the "bfp1:" prefix versions the encoding. Within
// one version, the fingerprint of a given plan structure never changes
// across releases; any incompatible change to the encoding bumps the
// prefix, so persisted fingerprints can never silently collide across
// versions.
func (b *Bound) Fingerprint() string {
	var fp fingerprint
	b.writeFP(make([]byte, 0, 512), &fp)
	return string(fp[:])
}

// fingerprint is the "bfp1:" prefix and 16 hex-encoded bytes of SHA-256.
type fingerprint [len("bfp1:") + 32]byte

// writeFP writes b's fingerprint into fp. It encodes b after the bytes
// already in scratch (a parent's partial encoding, which it keeps) and
// returns scratch, perhaps grown, cut back to its original length, so
// the whole tree encodes in one buffer.
func (b *Bound) writeFP(scratch []byte, fp *fingerprint) []byte {
	n := len(scratch)
	scratch = b.appendFP(scratch)
	sum := sha256.Sum256(scratch[n:])
	copy(fp[:], "bfp1:")
	hex.Encode(fp[len("bfp1:"):], sum[:16])
	return scratch[:n]
}

// appendFP appends the node's canonical encoding: a kind tag, the local
// payload, then the children's fingerprints.
// Each component is delimited so the encoding is injective over
// bound-tree structure. Slices are written as fmt's %v writes them
// ("[0 1]", "[true false]"), the layout the bfp1 encoding was frozen
// with.
func (b *Bound) appendFP(dst []byte) []byte {
	dst = append(dst, 'n')
	dst = strconv.AppendUint(dst, uint64(b.Kind), 10)
	dst = append(dst, '(')
	switch b.Kind {
	case KScan:
		dst = append(dst, b.Table...)
	case KSelect:
		dst = appendBExprFP(dst, b.Pred)
	case KProject:
		dst = appendIntsFP(dst, b.ProjIdx)
	case KJoin:
		dst = append(appendIntsFP(dst, b.LeftKey), '|')
		dst = append(appendIntsFP(dst, b.RightKey), '|')
		if b.Filter != nil {
			dst = appendBExprFP(dst, b.Filter)
		}
	case KGroupAgg:
		dst = append(appendIntsFP(dst, b.GroupIdx), '|')
		for _, a := range b.Aggs {
			dst = append(dst, 'a')
			dst = append(strconv.AppendUint(dst, uint64(a.Fn), 10), ',')
			dst = append(strconv.AppendInt(dst, int64(a.ArgIdx), 10), ',')
			dst = append(strconv.AppendUint(dst, uint64(a.Out), 10), '(')
			if a.Pred != nil {
				dst = appendBExprFP(dst, a.Pred)
			}
			dst = append(dst, ')')
		}
	case KOrderLimit:
		dst = append(appendIntsFP(dst, b.SortIdx), '|', '[')
		for i, d := range b.SortDesc {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = strconv.AppendBool(dst, d)
		}
		dst = append(dst, ']', '|')
		dst = strconv.AppendInt(dst, b.Limit, 10)
	}
	dst = append(dst, ')')
	for _, c := range b.Children {
		var cfp fingerprint
		dst = c.writeFP(dst, &cfp)
		dst = append(dst, cfp[:]...)
	}
	return dst
}

// appendIntsFP appends xs as fmt's %v writes it: "[0 1]".
func appendIntsFP(dst []byte, xs []int) []byte {
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// appendValueFP encodes a literal with the frozen bfp1 value layout: the
// exact bytes relstore.Value.Key produced when the fingerprint format was
// introduced (kind tag; 8-byte big-endian two's complement for ints and
// booleans; strconv 'b'-format plus NUL for floats; decimal length, ':',
// raw bytes for strings). The runtime key encoding is free to evolve for
// speed — this copy is pinned, because changing it would silently re-key
// every persisted "bfp1:" fingerprint (see the stability contract on
// Fingerprint and the golden file in internal/sqlparse/testdata).
func appendValueFP(dst []byte, v relstore.Value) []byte {
	dst = append(dst, byte(v.Kind()))
	switch v.Kind() {
	case relstore.TInt, relstore.TBool:
		var i int64
		if v.Kind() == relstore.TInt {
			i = v.AsInt()
		} else if v.AsBool() {
			i = 1
		}
		u := uint64(i)
		for s := 56; s >= 0; s -= 8 {
			dst = append(dst, byte(u>>uint(s)))
		}
	case relstore.TFloat:
		dst = strconv.AppendFloat(dst, v.AsFloat(), 'b', -1, 64)
		dst = append(dst, 0)
	case relstore.TString:
		s := v.AsString()
		dst = strconv.AppendInt(dst, int64(len(s)), 10)
		dst = append(dst, ':')
		dst = append(dst, s...)
	}
	return dst
}

// appendBExprFP encodes a bound expression injectively: column
// positions, literal values via their injective key encoding, and
// operator structure.
func appendBExprFP(dst []byte, e BExpr) []byte {
	switch x := e.(type) {
	case boundCol:
		dst = append(dst, 'c')
		dst = strconv.AppendInt(dst, int64(x.idx), 10)
	case boundConst:
		dst = appendValueFP(append(dst, 'k'), x.v)
	case boundCmp:
		dst = append(dst, '(')
		dst = append(strconv.AppendUint(dst, uint64(x.op), 10), ' ')
		dst = append(appendBExprFP(dst, x.l), ' ')
		dst = append(appendBExprFP(dst, x.r), ')')
	case boundAnd:
		dst = append(dst, '&', '(')
		for _, t := range x.terms {
			dst = append(appendBExprFP(dst, t), ' ')
		}
		dst = append(dst, ')')
	case boundOr:
		dst = append(dst, '|', '(')
		for _, t := range x.terms {
			dst = append(appendBExprFP(dst, t), ' ')
		}
		dst = append(dst, ')')
	case boundNot:
		dst = append(dst, '!', '(')
		dst = append(appendBExprFP(dst, x.inner), ')')
	default:
		// Every BExpr implementation lives in this package and must add a
		// case above: a reflected fallback could embed pointer addresses
		// and silently break fingerprint equality (no sharing, no cache
		// hits) instead of failing loudly here.
		panic(fmt.Sprintf("ra: BExpr %T has no fingerprint encoding", e))
	}
	return dst
}
