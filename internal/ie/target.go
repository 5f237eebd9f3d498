package ie

import "fmt"

// Query-targeted proposal distributions: the paper's Section 4.1 and its
// conclusion suggest injecting query-specific knowledge into q so the
// sampler only explores the part of the database a query depends on
// ("a query might target an isolated subset of the database, then the
// proposal distribution only has to sample this subset"). Documents are
// independent components of the unrolled factor graph (transitions and
// skip edges never cross documents), so restricting proposals to the
// documents a query can read from leaves the query's answer marginals
// unchanged while concentrating every MH step on relevant variables.

// TargetDocs restricts the tagger's proposal distribution to the given
// document indexes, overriding the uniform active-set batching. It is the
// caller's responsibility that the query's answer depends only on hidden
// variables inside the targeted documents; labels elsewhere are frozen at
// their current values (their marginals are NOT sampled).
func (t *Tagger) TargetDocs(docs []int) error {
	if len(docs) == 0 {
		return fmt.Errorf("ie: TargetDocs requires at least one document")
	}
	seen := make(map[int]bool, len(docs))
	for _, d := range docs {
		if d < 0 || d >= len(t.Docs) {
			return fmt.Errorf("ie: TargetDocs: document %d out of range [0,%d)", d, len(t.Docs))
		}
		if seen[d] {
			return fmt.Errorf("ie: TargetDocs: duplicate document %d", d)
		}
		seen[d] = true
	}
	t.ActiveDocs = 0
	t.StepsPerBatch = 0
	t.active = append([]int{}, docs...)
	return nil
}
