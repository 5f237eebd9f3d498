package coref

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// TestFieldScanMatchesStringsFields: Similarity's in-place token scan
// splits exactly where strings.Fields does, Unicode spaces and invalid
// UTF-8 included.
func TestFieldScanMatchesStringsFields(t *testing.T) {
	same := func(s string) bool {
		var got []string
		for tok, rest := nextField(s); tok != ""; tok, rest = nextField(rest) {
			got = append(got, tok)
		}
		want := strings.Fields(s)
		return slices.Equal(got, want) && countFields(s) == len(want)
	}
	for _, s := range []string{"", "  ", "J. Smith", " a  b\t", "\u00a0x\u2003y\u0085", "\xff z\xfe", "é é"} {
		if !same(s) {
			t.Errorf("token scan of %q differs from strings.Fields", s)
		}
	}
	if err := quick.Check(same, nil); err != nil {
		t.Error(err)
	}
}

func TestSimilarityPropertiesQuick(t *testing.T) {
	// Symmetric, bounded to [0,1], and 1 exactly for identical strings.
	sym := func(a, b string) bool { return Similarity(a, b) == Similarity(b, a) }
	if err := quick.Check(sym, nil); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	bounded := func(a, b string) bool {
		s := Similarity(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(bounded, nil); err != nil {
		t.Errorf("bounds: %v", err)
	}
	reflexive := func(a string) bool { return Similarity(a, a) == 1 }
	if err := quick.Check(reflexive, nil); err != nil {
		t.Errorf("reflexivity: %v", err)
	}
}

func TestLevenshteinPropertiesQuick(t *testing.T) {
	sym := func(a, b string) bool {
		return normalizedLevenshtein(a, b) == normalizedLevenshtein(b, a)
	}
	if err := quick.Check(sym, nil); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	identity := func(a string) bool { return normalizedLevenshtein(a, a) == 0 }
	if err := quick.Check(identity, nil); err != nil {
		t.Errorf("identity: %v", err)
	}
	bounded := func(a, b string) bool {
		d := normalizedLevenshtein(a, b)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(bounded, nil); err != nil {
		t.Errorf("bounds: %v", err)
	}
}

// TestStateInvariantsQuick drives random move sequences and checks the
// partition invariants: every mention in exactly one cluster, membership
// maps consistent with the cluster array, no empty clusters.
func TestStateInvariantsQuick(t *testing.T) {
	f := func(moves []uint16) bool {
		mentions, _ := Generate(GenConfig{NumEntities: 3, MentionsPerEntity: 3, Seed: 1})
		s, _ := newState(t, mentions)
		for _, mv := range moves {
			m := int(mv>>8) % len(mentions)
			ids := s.ClusterIDs()
			target := s.nextID
			if pick := int(mv&0xff) % (len(ids) + 1); pick < len(ids) {
				target = ids[pick]
			}
			s.Move(m, target)
		}
		// Invariants.
		total := 0
		for _, c := range s.ClusterIDs() {
			ms := s.Members(c)
			if len(ms) == 0 {
				return false // empty cluster survived
			}
			total += len(ms)
			for _, m := range ms {
				if s.Cluster(m) != c {
					return false // membership map inconsistent
				}
			}
		}
		return total == len(mentions)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
