package ra

import "factordb/internal/relstore"

// AppendKeyOf appends the injective key encoding of the indexed fields of
// t to dst and returns the extended slice. Each field contributes its
// self-delimiting relstore encoding, so distinct field sequences can
// never collide (a plain concatenation of raw payloads could: ["ab","c"]
// versus ["a","bc"]). Hot paths — hash-join probes, group identification,
// delta folding — reuse dst as a scratch buffer, making key construction
// allocation-free.
func AppendKeyOf(dst []byte, t relstore.Tuple, idx []int) []byte {
	for _, j := range idx {
		dst = t[j].AppendKey(dst)
	}
	return dst
}
