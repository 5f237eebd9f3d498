package ie

import (
	"math/rand"

	"factordb/internal/mcmc"
)

// Block proposals: instead of flipping one label, hypothesize a joint
// relabeling of a short token span — either clearing it to O or writing a
// well-formed mention (B-T I-T ... I-T). A single accepted proposal then
// changes several tuples at once, producing the multi-tuple Δ⁻/Δ⁺ sets of
// Figure 2 in one step and crossing energy barriers (half-relabelled
// mentions) that single-site walks climb slowly.

// maxSpanLen bounds the proposed mention length.
const maxSpanLen = 3

// regionScore sums every factor whose value can change when positions
// [i, i+n) of the document are relabelled: their node factors, the
// transitions overlapping the span, and each incident skip edge exactly
// once.
func (m *Model) regionScore(ld *LabeledDoc, i, n int) float64 {
	t := m.tables()
	var s float64
	end := i + n
	for j := i; j < end; j++ {
		s += t.nodeScore(ld, j, ld.Labels[j])
	}
	if i > 0 {
		s += t.trans[ld.Labels[i-1]][ld.Labels[i]]
	}
	for j := i + 1; j < end; j++ {
		s += t.trans[ld.Labels[j-1]][ld.Labels[j]]
	}
	if end < len(ld.Labels) {
		s += t.trans[ld.Labels[end-1]][ld.Labels[end]]
	}
	if m.UseSkip {
		for j := i; j < end; j++ {
			for _, q := range ld.ix.partners(j) {
				// Count inside-span pairs once (smaller index wins);
				// pairs with one endpoint outside always belong to j.
				if int(q) >= i && int(q) < end && int(q) < j {
					continue
				}
				s += t.skip[b2i(ld.Labels[q] == ld.Labels[j])]
			}
		}
	}
	return s
}

// SpanScoreDelta returns log π(w') − log π(w) for jointly relabelling
// positions [i, i+len(newLabels)) to newLabels.
func (m *Model) SpanScoreDelta(ld *LabeledDoc, i int, newLabels []Label) float64 {
	n := len(newLabels)
	before := m.regionScore(ld, i, n)
	var buf [maxSpanLen]Label // proposed spans fit; longer ones spill to the heap
	saved := append(buf[:0], ld.Labels[i:i+n]...)
	copy(ld.Labels[i:], newLabels)
	after := m.regionScore(ld, i, n)
	copy(ld.Labels[i:], saved)
	return after - before
}

// SpanProposer wraps a Tagger with block proposals. The kernel only
// moves between worlds whose span content is one of the five candidate
// patterns (all-O or a type-T mention): if the current content is not a
// pattern, the step is a no-op. Within that subspace the candidate set
// depends only on the span's position and length, so the kernel is
// symmetric and reversible; mixing it with the single-site kernel (which
// reaches every world) keeps the chain ergodic.
type SpanProposer struct {
	Tagger *Tagger

	// The pending move: positions [i, i+n) of document d take newLabels;
	// n == 0 when the step is a no-op.
	d, i, n   int
	newLabels [maxSpanLen]Label
}

// spanPattern writes candidate pattern c (0 = all-O, 1..4 = mention of
// type c) for a span of length n into dst.
func spanPattern(c, n int, dst []Label) {
	if c == 0 {
		for j := 0; j < n; j++ {
			dst[j] = LO
		}
		return
	}
	begin := Label(1 + 2*(c-1)) // B-PER, B-ORG, B-LOC, B-MISC
	dst[0] = begin
	for j := 1; j < n; j++ {
		dst[j] = begin + 1 // matching I-T
	}
}

// isSpanPattern reports whether labels matches one of the candidate
// patterns.
func isSpanPattern(labels []Label) bool {
	var buf [maxSpanLen]Label
	for c := 0; c < 5; c++ {
		spanPattern(c, len(labels), buf[:])
		match := true
		for j, l := range labels {
			if buf[j] != l {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// Propose implements mcmc.Proposer.
func (sp *SpanProposer) Propose(rng *rand.Rand) mcmc.Proposal {
	t := sp.Tagger
	d, i := t.pick(rng)
	ld := t.Docs[d]
	n := 1 + rng.Intn(maxSpanLen)
	if i+n > len(ld.Labels) {
		n = len(ld.Labels) - i
	}
	// Reversibility guard: the reverse move must be proposable, i.e. the
	// current span content must itself be a candidate pattern.
	if !isSpanPattern(ld.Labels[i : i+n]) {
		sp.n = 0
		return mcmc.Proposal{}
	}
	sp.d, sp.i, sp.n = d, i, n
	spanPattern(rng.Intn(5), n, sp.newLabels[:])
	return mcmc.Proposal{LogScoreDelta: t.Model.SpanScoreDelta(ld, i, sp.newLabels[:n])}
}

// Accept implements mcmc.Proposer.
func (sp *SpanProposer) Accept() {
	labels := sp.Tagger.Docs[sp.d].Labels
	for j := 0; j < sp.n; j++ {
		if labels[sp.i+j] != sp.newLabels[j] {
			sp.Tagger.apply(sp.d, sp.i+j, sp.newLabels[j])
		}
	}
}

// MixedProposer interleaves single-site and block proposals, choosing a
// block move with probability BlockProb. Mixtures of symmetric kernels
// remain symmetric.
type MixedProposer struct {
	Tagger    *Tagger
	BlockProb float64

	span  SpanProposer
	block bool // the pending move is the span proposer's
}

// NewMixedProposer builds the mixture kernel.
func NewMixedProposer(t *Tagger, blockProb float64) *MixedProposer {
	return &MixedProposer{Tagger: t, BlockProb: blockProb, span: SpanProposer{Tagger: t}}
}

// Propose implements mcmc.Proposer.
func (mp *MixedProposer) Propose(rng *rand.Rand) mcmc.Proposal {
	mp.block = rng.Float64() < mp.BlockProb
	if mp.block {
		return mp.span.Propose(rng)
	}
	return mp.Tagger.Propose(rng)
}

// Accept implements mcmc.Proposer.
func (mp *MixedProposer) Accept() {
	if mp.block {
		mp.span.Accept()
	} else {
		mp.Tagger.Accept()
	}
}
