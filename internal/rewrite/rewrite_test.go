package rewrite

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rpq"
)

func norm(t *testing.T, query string, opts Options) Normal {
	t.Helper()
	n, err := Normalize(rpq.MustParse(query), opts)
	if err != nil {
		t.Fatalf("Normalize(%q): %v", query, err)
	}
	return n
}

func pathStrings(n Normal) []string {
	out := make([]string, len(n.Paths))
	for i, p := range n.Paths {
		out[i] = p.String()
	}
	return out
}

func TestWorkedExampleExpansion(t *testing.T) {
	// Paper Section 4: R = k ◦ (k ◦ w)^{2,4} ◦ w expands to exactly
	// kkwkww ∪ kkwkwkww ∪ kkwkwkwkww.
	n := norm(t, "k/(k/w){2,4}/w", Options{})
	want := []string{
		"k/k/w/k/w/w",
		"k/k/w/k/w/k/w/w",
		"k/k/w/k/w/k/w/k/w/w",
	}
	got := pathStrings(n)
	if len(got) != len(want) {
		t.Fatalf("got %d disjuncts %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("disjunct %d = %q, want %q", i, got[i], want[i])
		}
	}
	if n.HasEpsilon {
		t.Error("unexpected ε disjunct")
	}
}

func TestUnionPullUp(t *testing.T) {
	// a/(b|c)/d must become a/b/d ∪ a/c/d.
	n := norm(t, "a/(b|c)/d", Options{})
	got := pathStrings(n)
	want := []string{"a/b/d", "a/c/d"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestNestedUnions(t *testing.T) {
	n := norm(t, "(a|(b|c))/(d|e)", Options{})
	if len(n.Paths) != 6 {
		t.Errorf("got %d disjuncts %v, want 6", len(n.Paths), pathStrings(n))
	}
}

func TestEpsilonHandling(t *testing.T) {
	n := norm(t, "a?", Options{})
	if !n.HasEpsilon {
		t.Error("a? should have an ε disjunct")
	}
	if len(n.Paths) != 1 || n.Paths[0].String() != "a" {
		t.Errorf("a? paths = %v", pathStrings(n))
	}

	n = norm(t, "()/a/()", Options{})
	if n.HasEpsilon || len(n.Paths) != 1 || n.Paths[0].String() != "a" {
		t.Errorf("ε in concat should vanish: %v (eps=%v)", pathStrings(n), n.HasEpsilon)
	}

	n = norm(t, "()", Options{})
	if !n.HasEpsilon || len(n.Paths) != 0 {
		t.Errorf("() alone: %v (eps=%v)", pathStrings(n), n.HasEpsilon)
	}

	n = norm(t, "a{0,2}", Options{})
	if !n.HasEpsilon {
		t.Error("a{0,2} should include ε")
	}
	got := pathStrings(n)
	if len(got) != 2 || got[0] != "a" || got[1] != "a/a" {
		t.Errorf("a{0,2} = %v", got)
	}
}

func TestDeduplication(t *testing.T) {
	n := norm(t, "a|a|a", Options{})
	if len(n.Paths) != 1 {
		t.Errorf("a|a|a should dedup to one disjunct, got %v", pathStrings(n))
	}
	// (a|b){2} has a/b and b/a distinct but a/a etc. unique.
	n = norm(t, "(a|b){2}", Options{})
	if len(n.Paths) != 4 {
		t.Errorf("(a|b){2} should have 4 disjuncts, got %v", pathStrings(n))
	}
	// Overlapping repetition ranges dedup: a{1,2}|a{2,3}.
	n = norm(t, "a{1,2}|a{2,3}", Options{})
	if len(n.Paths) != 3 {
		t.Errorf("a{1,2}|a{2,3} should have 3 disjuncts, got %v", pathStrings(n))
	}
}

func TestInverseSteps(t *testing.T) {
	n := norm(t, "supervisor/worksFor^-", Options{})
	if len(n.Paths) != 1 {
		t.Fatalf("got %v", pathStrings(n))
	}
	p := n.Paths[0]
	if !p[1].Inverse || p[1].Label != "worksFor" {
		t.Errorf("second step should be worksFor^-: %v", p)
	}
}

func TestPathInverse(t *testing.T) {
	p := Path{
		{Label: "a", Inverse: false},
		{Label: "b", Inverse: true},
		{Label: "c", Inverse: false},
	}
	inv := p.Inverse()
	if inv.String() != "c^-/b/a^-" {
		t.Errorf("Inverse = %q, want c^-/b/a^-", inv.String())
	}
	if !inv.Inverse().Equal(p) {
		t.Errorf("double inverse != original: %v", inv.Inverse())
	}
}

func closureStrings(n Normal) []string {
	out := make([]string, len(n.Closures))
	for i, s := range n.Closures {
		out[i] = s.String()
	}
	return out
}

func TestStarFactoring(t *testing.T) {
	cases := []struct {
		query    string
		closures []string
		paths    []string
		epsilon  bool
	}{
		// A bare star becomes one closure factor; no ε disjunct is
		// needed because a closure's relation contains the identity.
		{"a*", []string{"(a)*"}, nil, false},
		{"(a|b)*", []string{"(a|b)*"}, nil, false},
		{"(a/b)*", []string{"(a/b)*"}, nil, false},
		// R+ = R ∘ R*.
		{"a+", []string{"a/(a)*"}, nil, false},
		{"a{2,}", []string{"a/a/(a)*"}, nil, false},
		// Closures inside compositions keep their flanks.
		{"a/(b|c)*/d", []string{"a/(b|c)*/d"}, nil, false},
		// Multiple stars in one disjunct.
		{"a*/b*", []string{"(a)*/(b)*"}, nil, false},
		// Adjacent identical stars collapse: a*/a* = a*.
		{"a*/a*", []string{"(a)*"}, nil, false},
		// Nested stars flatten: (a*)* = a*, (a|b*)* = (a|b)*.
		{"(a*)*", []string{"(a)*"}, nil, false},
		{"(a|b*)*", []string{"(a|b)*"}, nil, false},
		// (R|ε)* = R*.
		{"(a?)*", []string{"(a)*"}, nil, false},
		// ε-only stars are the identity.
		{"()*", nil, nil, true},
		// Non-flattenable nested stars stay nested.
		{"(a/b*)*", []string{"(a/(b)*)*"}, nil, false},
		// Mixed unions keep plain paths alongside closures.
		{"c|a*", []string{"(a)*"}, []string{"c"}, false},
		// Bounded repetition over closures expands over sequences.
		{"(a*/b){2}", []string{"(a)*/b/(a)*/b"}, nil, false},
	}
	for _, tc := range cases {
		n := norm(t, tc.query, Options{})
		if got := strings.Join(closureStrings(n), ";"); got != strings.Join(tc.closures, ";") {
			t.Errorf("%s closures = %v, want %v", tc.query, closureStrings(n), tc.closures)
		}
		if got := strings.Join(pathStrings(n), ";"); got != strings.Join(tc.paths, ";") {
			t.Errorf("%s paths = %v, want %v", tc.query, pathStrings(n), tc.paths)
		}
		if n.HasEpsilon != tc.epsilon {
			t.Errorf("%s epsilon = %v, want %v", tc.query, n.HasEpsilon, tc.epsilon)
		}
	}
}

func TestStarCanonicalStrings(t *testing.T) {
	equal := [][2]string{
		{"a*", "(a)*"},
		{"a*", "(a*)*"},
		{"a*/a*", "a*"},
		{"(a|b)*", "(b|a)*"},
		{"(a|b*)*", "(a|b)*"},
		{"a+", "a/a*"},
	}
	for _, pair := range equal {
		k0 := norm(t, pair[0], Options{}).String()
		k1 := norm(t, pair[1], Options{}).String()
		if k0 != k1 {
			t.Errorf("String(%q) = %q, String(%q) = %q; want equal",
				pair[0], k0, pair[1], k1)
		}
	}
	distinct := [][2]string{
		{"a*", "b*"},
		{"a*", "a+"},
		{"a*", "a"},
		{"(a/b)*", "(a|b)*"},
	}
	for _, pair := range distinct {
		k0 := norm(t, pair[0], Options{}).String()
		k1 := norm(t, pair[1], Options{}).String()
		if k0 == k1 {
			t.Errorf("String(%q) == String(%q) == %q; want distinct",
				pair[0], pair[1], k0)
		}
	}
	// Star renderings are themselves query syntax with the same normal form.
	for _, q := range []string{"a*", "(a|b^-)*", "a/(b|c)*/d", "(a/b*)*", "c|a*"} {
		key := norm(t, q, Options{}).String()
		again := norm(t, key, Options{}).String()
		if key != again {
			t.Errorf("String not a fixed point: %q -> %q -> %q", q, key, again)
		}
	}
}

func TestLimitErrorContext(t *testing.T) {
	_, err := Normalize(rpq.MustParse("x/(a|b){12}"), Options{MaxDisjuncts: 100})
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("want LimitError, got %v", err)
	}
	if le.Option != "MaxDisjuncts" {
		t.Errorf("Option = %q, want MaxDisjuncts", le.Option)
	}
	if le.Frag != "(a|b){12}" {
		t.Errorf("Frag = %q, want the offending repetition", le.Frag)
	}
	if msg := le.Error(); !strings.Contains(msg, "(a|b){12}") || !strings.Contains(msg, "MaxDisjuncts") {
		t.Errorf("error text lacks context: %q", msg)
	}

	_, err = Normalize(rpq.MustParse("a{64}"), Options{MaxPathLength: 10})
	if !errors.As(err, &le) {
		t.Fatalf("want LimitError, got %v", err)
	}
	if le.Option != "MaxPathLength" || le.Frag != "a{64}" {
		t.Errorf("path-length limit context = (%q, %q)", le.Frag, le.Option)
	}
}

// TestBoundedRepeatTotalSizeBound is the regression test for the
// bounded-repetition blowout: (a|b){1,15} expands to 65534 disjuncts —
// just under the default MaxDisjuncts — whose summed size is ~900k
// steps, enough that the downstream operator tree would reach
// gigabytes. The expansion must fail on the total-size bound, naming
// Options.MaxTotalSteps, well before any such allocation: the limit is
// checked at every accumulation point, so the expansion is abandoned as
// soon as the running total crosses DefaultMaxTotalSteps (at i = 14, a
// few MB of sequences at most).
func TestBoundedRepeatTotalSizeBound(t *testing.T) {
	_, err := Normalize(rpq.MustParse("(a|b){1,15}"), Options{})
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("(a|b){1,15} must exceed the total-size bound, got %v", err)
	}
	if le.Option != "MaxTotalSteps" {
		t.Errorf("Option = %q, want MaxTotalSteps (the disjunct count alone stays under its limit)", le.Option)
	}
	if le.Limit != DefaultMaxTotalSteps {
		t.Errorf("Limit = %d, want the default %d", le.Limit, DefaultMaxTotalSteps)
	}
	if msg := le.Error(); !strings.Contains(msg, "MaxTotalSteps") {
		t.Errorf("error text does not name the size option: %q", msg)
	}

	// Raising the bound admits the same expansion (sanity: the limit is
	// the only thing rejecting it).
	if _, err := Normalize(rpq.MustParse("(a|b){1,15}"), Options{MaxTotalSteps: 1 << 21}); err != nil {
		t.Errorf("raised MaxTotalSteps still rejects: %v", err)
	}
	// Moderate expansions stay admitted under the default.
	if _, err := Normalize(rpq.MustParse("(a|b){1,8}"), Options{}); err != nil {
		t.Errorf("moderate bounded repetition rejected: %v", err)
	}
}

func TestEpsilonOnlyRepeat(t *testing.T) {
	n := norm(t, "(){5,9}", Options{})
	if !n.HasEpsilon || len(n.Paths) != 0 {
		t.Errorf("ε{5,9}: %v (eps=%v)", pathStrings(n), n.HasEpsilon)
	}
	// ε with a huge bound must terminate fast via the fixed-point break.
	n2, err := Normalize(rpq.MustParse("(){0,1073741824}"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !n2.HasEpsilon || len(n2.Paths) != 0 {
		t.Errorf("ε*: %v", pathStrings(n2))
	}
}

func TestDisjunctLimit(t *testing.T) {
	_, err := Normalize(rpq.MustParse("(a|b){12}"), Options{MaxDisjuncts: 100})
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("want LimitError, got %v", err)
	}
	if le.What != "disjunct" {
		t.Errorf("limit kind = %q", le.What)
	}
}

func TestPathLengthLimit(t *testing.T) {
	_, err := Normalize(rpq.MustParse("a{64}"), Options{MaxPathLength: 10})
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("want LimitError, got %v", err)
	}
	if le.What != "path length" {
		t.Errorf("limit kind = %q", le.What)
	}
}

func TestDeterministicOrder(t *testing.T) {
	a := norm(t, "(b|a)/(d|c)", Options{})
	b := norm(t, "(a|b)/(c|d)", Options{})
	sa, sb := strings.Join(pathStrings(a), ";"), strings.Join(pathStrings(b), ";")
	if sa != sb {
		t.Errorf("order not canonical: %q vs %q", sa, sb)
	}
	// Shorter paths come first.
	n := norm(t, "a/a/a|b", Options{})
	if len(n.Paths[0]) != 1 {
		t.Errorf("paths not sorted by length: %v", pathStrings(n))
	}
}

func TestMatcherBasics(t *testing.T) {
	e := rpq.MustParse("a/(b|c)*/d")
	steps := func(s ...string) []rpq.Step {
		out := make([]rpq.Step, len(s))
		for i, l := range s {
			out[i] = rpq.Step{Label: l}
		}
		return out
	}
	if !Matches(e, steps("a", "d")) {
		t.Error("a,d should match")
	}
	if !Matches(e, steps("a", "b", "c", "b", "d")) {
		t.Error("a,b,c,b,d should match")
	}
	if Matches(e, steps("a")) {
		t.Error("a alone should not match")
	}
	if Matches(e, steps("a", "b")) {
		t.Error("a,b should not match")
	}
	inv := rpq.MustParse("a^-/a")
	if !Matches(inv, []rpq.Step{{Label: "a", Inverse: true}, {Label: "a"}}) {
		t.Error("inverse word should match")
	}
	if Matches(inv, steps("a", "a")) {
		t.Error("forward word should not match inverse query")
	}
}

// TestQuickNormalizeAgreesWithMatcher: the disjunct set of a random
// expression is exactly the set of short words accepted by the reference
// matcher.
func TestQuickNormalizeAgreesWithMatcher(t *testing.T) {
	labels := []string{"x", "y"}
	opts := rpq.GenOptions{
		Labels:         labels,
		MaxDepth:       3,
		MaxFanout:      2,
		MaxRepeatBound: 2,
		AllowEpsilon:   true,
		AllowInverse:   true,
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := rpq.Generate(r, opts)
		n, err := Normalize(e, Options{})
		if err != nil {
			var le *LimitError
			return errors.As(err, &le) // limits are the only allowed failure
		}
		// Every disjunct must be accepted by the matcher.
		for _, p := range n.Paths {
			if !Matches(e, p) {
				t.Logf("expr %s: disjunct %s not in language", e, p)
				return false
			}
		}
		if n.HasEpsilon != Matches(e, nil) {
			t.Logf("expr %s: ε mismatch", e)
			return false
		}
		// Every word of length ≤ 3 accepted by the matcher must be a
		// disjunct.
		inSet := map[string]bool{}
		for _, p := range n.Paths {
			inSet[p.Key()] = true
		}
		alphabet := []rpq.Step{
			{Label: "x"}, {Label: "x", Inverse: true},
			{Label: "y"}, {Label: "y", Inverse: true},
		}
		var words func(prefix Path, depth int) bool
		words = func(prefix Path, depth int) bool {
			if len(prefix) > 0 && Matches(e, prefix) != inSet[prefix.Key()] {
				t.Logf("expr %s: word %s mismatch (match=%v)", e, prefix, Matches(e, prefix))
				return false
			}
			if depth == 0 {
				return true
			}
			for _, s := range alphabet {
				if !words(append(append(Path{}, prefix...), s), depth-1) {
					return false
				}
			}
			return true
		}
		return words(Path{}, 3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestTotalSteps(t *testing.T) {
	n := norm(t, "a/b|c", Options{})
	if got := n.TotalSteps(); got != 3 {
		t.Errorf("TotalSteps = %d, want 3", got)
	}
}

func TestNormalString(t *testing.T) {
	n := norm(t, "a?|b/c", Options{})
	s := n.String()
	if !strings.Contains(s, "()") || !strings.Contains(s, "b/c") {
		t.Errorf("Normal.String() = %q", s)
	}
}

func TestCanonicalString(t *testing.T) {
	equal := [][2]string{
		{"a/b|c", "c|a/b"},
		{"a|b|a", "b|a"},
		{"(a|b)/c", "a/c|b/c"},
		{"a{0,2}", "()|a|a/a"},
		{"a/b | c", "c|a/b"}, // whitespace is insignificant
	}
	for _, pair := range equal {
		k0 := norm(t, pair[0], Options{}).String()
		k1 := norm(t, pair[1], Options{}).String()
		if k0 != k1 {
			t.Errorf("String(%q) = %q, String(%q) = %q; want equal",
				pair[0], k0, pair[1], k1)
		}
	}
	distinct := [][2]string{
		{"a/b", "b/a"},
		{"a|b", "a"},
		{"a?", "a"},
		{"a^-", "a"},
	}
	for _, pair := range distinct {
		k0 := norm(t, pair[0], Options{}).String()
		k1 := norm(t, pair[1], Options{}).String()
		if k0 == k1 {
			t.Errorf("String(%q) == String(%q) == %q; want distinct",
				pair[0], pair[1], k0)
		}
	}
}

func TestCanonicalStringReparses(t *testing.T) {
	// The canonical rendering is itself query syntax and a fixed point:
	// normalizing it yields it again.
	for _, q := range []string{"a/b|c", "a{0,2}/b", "(a|b^-)/c?", "a?"} {
		key := norm(t, q, Options{}).String()
		again := norm(t, key, Options{}).String()
		if key != again {
			t.Errorf("String not a fixed point: %q -> %q -> %q", q, key, again)
		}
	}
}
