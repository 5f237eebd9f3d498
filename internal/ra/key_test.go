package ra

import (
	"testing"

	"factordb/internal/relstore"
)

// TestKeyOfInjective pins the fix for the old ambiguous key encoding,
// which concatenated value renderings with separators that string values
// could forge. Every pair below collided (or could collide) under a
// naive separator/length-digit scheme; the length-prefixed encoding must
// keep them distinct.
func TestKeyOfInjective(t *testing.T) {
	s := func(vs ...string) relstore.Tuple {
		tp := make(relstore.Tuple, len(vs))
		for i, v := range vs {
			tp[i] = relstore.String(v)
		}
		return tp
	}
	pairs := [][2]relstore.Tuple{
		// Boundary shifting between adjacent strings.
		{s("ab", "c"), s("a", "bc")},
		{s("", "abc"), s("abc", "")},
		// Strings forging a separator-based layout.
		{s("a|b"), s("a", "b")},
		{s("a\x00b"), s("a", "b")},
		// Strings forging a decimal-length-prefix layout ("1:a2:bc" etc.).
		{s("1:a"), s("a")},
		{s("2:ab"), s("ab")},
		{s("12", ":x"), s("1", "2:x")},
		// Kind confusion: a string spelling an integer vs the integer, and
		// a string carrying an int key's raw bytes.
		{s("7"), {relstore.Int(7)}},
		{s("\x00\x00\x00\x00\x00\x00\x00\x07"), {relstore.Int(7)}},
		// Int vs float vs bool of equal numeric value.
		{{relstore.Int(1)}, {relstore.Float(1)}},
		{{relstore.Int(1)}, {relstore.Bool(true)}},
		{{relstore.Int(0)}, {relstore.Bool(false)}},
	}
	for _, p := range pairs {
		a, b := p[0].Key(), p[1].Key()
		if a == b {
			t.Errorf("tuples %v and %v share key %q", p[0], p[1], a)
		}
	}

	// The indexed form must agree with the whole-tuple form.
	tp := s("ab", "c", "a|b")
	if got, want := string(AppendKeyOf(nil, tp, []int{0, 1, 2})), tp.Key(); got != want {
		t.Errorf("AppendKeyOf over all columns = %q, want Tuple.Key %q", got, want)
	}
	if string(AppendKeyOf(nil, tp, []int{0, 1})) == string(AppendKeyOf(nil, s("a", "bc"), []int{0, 1})) {
		t.Errorf("projected keys collide across shifted boundaries")
	}

	// AppendKeyOf must honor its dst prefix.
	dst := AppendKeyOf([]byte("prefix"), tp, []int{2, 0})
	if string(dst) != "prefix"+string(AppendKeyOf(nil, tp, []int{2, 0})) {
		t.Errorf("AppendKeyOf does not extend its destination buffer in place")
	}
}

// TestKeyOrderIrrelevantButPositionNot: same multiset of values at
// different positions must key differently.
func TestKeyOfPositionSensitive(t *testing.T) {
	a := relstore.Tuple{relstore.String("x"), relstore.Int(1)}
	b := relstore.Tuple{relstore.Int(1), relstore.String("x")}
	if a.Key() == b.Key() {
		t.Errorf("tuples with swapped columns share a key")
	}
}
