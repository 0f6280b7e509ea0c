package pathindex

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/graph"
)

// pushBatches applies the batch in nChunks sequential tiers over the
// base index and returns the resulting stack.
func pushBatches(t *testing.T, base *graph.Graph, batch []graph.LabeledEdge, k, nChunks int) *Levels {
	t.Helper()
	ix, err := Build(base, k, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return pushChunks(t, ix, batch, nChunks)
}

// compacted folds ls in one call, failing t on a fold error.
func compacted(t testing.TB, ls *Levels) Storage {
	t.Helper()
	s, err := ls.Compacted()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// pushChunks applies the batch over cur in nChunks sequential tiers
// tagged with sequence numbers 1..nChunks.
func pushChunks(t testing.TB, cur Storage, batch []graph.LabeledEdge, nChunks int) *Levels {
	t.Helper()
	for i := 0; i < nChunks; i++ {
		lo, hi := i*len(batch)/nChunks, (i+1)*len(batch)/nChunks
		g2, err := cur.Graph().ExtendFrozen(batch[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		d, err := BuildDelta(cur, g2)
		if err != nil {
			t.Fatal(err)
		}
		seq := uint64(i + 1)
		ls, err := PushTier(cur, NewTier(d, seq, seq))
		if err != nil {
			t.Fatal(err)
		}
		cur = ls
	}
	return cur.(*Levels)
}

func TestLevelsMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		base, full, batch := extendRandom(r, 30, 80, []string{"a", "b"}, 0.2)
		for _, k := range []int{1, 2, 3} {
			oracle, err := Build(full, k, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, chunks := range []int{1, 3, 5} {
				ls := pushBatches(t, base, batch, k, chunks)
				if got := len(ls.Tiers()); got != chunks {
					t.Fatalf("stack has %d tiers, pushed %d", got, chunks)
				}
				checkStorageEqual(t, ls, oracle)
				// Tier runs must stay disjoint from the base and from
				// each other: counts would double otherwise, and
				// checkStorageEqual already compared them. Spot-check
				// the base side of the contract directly.
				checkTiersDisjoint(t, ls)
			}
		}
	}
}

func TestLevelsMergeOnce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	base, full, batch := extendRandom(r, 30, 80, []string{"a", "b"}, 0.3)
	k := 2
	oracle, err := Build(full, k, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ls := pushBatches(t, base, batch, k, 4)
	for {
		merged, ok := ls.MergeOnce()
		if !ok {
			break
		}
		if len(merged.Tiers()) != len(ls.Tiers())-1 {
			t.Fatalf("MergeOnce went from %d to %d tiers", len(ls.Tiers()), len(merged.Tiers()))
		}
		ls = merged
		checkStorageEqual(t, ls, oracle)
	}
	// Equal-sized adjacent batches always qualify, so the stack must
	// have collapsed all the way.
	if len(ls.Tiers()) != 1 {
		t.Fatalf("merging stopped at %d tiers", len(ls.Tiers()))
	}
	lo, hi := ls.Tiers()[0].SeqLo(), ls.Tiers()[0].SeqHi()
	if lo != 1 || hi != 4 {
		t.Fatalf("merged tier covers [%d,%d], want [1,4]", lo, hi)
	}
}

// TestLevelsFoldIncremental: a budgeted fold must take multiple steps,
// make bounded progress per step, and produce an index equal to the
// stack (and thus to the rebuild oracle).
func TestLevelsFoldIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	base, full, batch := extendRandom(r, 30, 120, []string{"a", "b", "c"}, 0.2)
	k := 2
	oracle, err := Build(full, k, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ls := pushBatches(t, base, batch, k, 3)

	f := ls.StartFold()
	steps := 0
	for !f.Step(500) {
		steps++
		if steps > 1_000_000 {
			t.Fatal("fold makes no progress")
		}
	}
	if steps < 2 {
		t.Fatalf("fold with a 500-entry budget finished in %d steps over %d entries", steps+1, ls.NumEntries())
	}
	out := f.Result().(*Index)
	checkStorageEqual(t, out, oracle)
	if out.PathsKCount() != ls.PathsKCount() {
		t.Fatalf("fold PathsKCount %d != stack's %d", out.PathsKCount(), ls.PathsKCount())
	}
	// Compacted (the one-call convenience) and the generic Materialize
	// must agree too.
	checkStorageEqual(t, compacted(t, ls).(*Index), oracle)
	mat, err := Materialize(ls)
	if err != nil {
		t.Fatal(err)
	}
	checkStorageEqual(t, mat, oracle)

	// Zero/negative budgets still make progress (one path per step).
	f2 := ls.StartFold()
	for i := 0; !f2.Step(0); i++ {
		if i > ls.NumLabelPaths()+1 {
			t.Fatal("zero-budget fold exceeded one path per step")
		}
	}
}

// TestTierSpillRoundTrip: spill a tier to an index file, reload it against
// the same graph, and rebuild the stack from the spilled tier — it must
// serve identically.
func TestTierSpillRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	base, full, batch := extendRandom(r, 25, 60, []string{"a", "b"}, 0.25)
	k := 2
	oracle, err := Build(full, k, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ls := pushBatches(t, base, batch, k, 1)
	tier := ls.Tiers()[0]

	path := filepath.Join(t.TempDir(), "spill-1-1.pix")
	if err := tier.WriteSpill(path); err != nil {
		t.Fatalf("WriteSpill: %v", err)
	}
	tier.SetSpill("spill-1-1.pix")
	if tier.Spill() != "spill-1-1.pix" {
		t.Fatalf("Spill() = %q", tier.Spill())
	}

	// Reload against the tier's graph (recovery reconstructs an
	// identical graph by deterministic replay).
	g2 := ls.Graph()
	loaded, err := Load(path, g2)
	if err != nil {
		t.Fatalf("loading spill: %v", err)
	}
	if loaded.NumEntries() != tier.Entries() {
		t.Fatalf("spill holds %d entries, tier has %d", loaded.NumEntries(), tier.Entries())
	}
	rt := NewSpilledTier(loaded, 1, 1, "spill-1-1.pix")
	if rt.SeqLo() != 1 || rt.SeqHi() != 1 || rt.Spill() != "spill-1-1.pix" {
		t.Fatalf("recovered tier metadata: [%d,%d] %q", rt.SeqLo(), rt.SeqHi(), rt.Spill())
	}
	ls2, err := NewLevels(ls.Base(), []*Tier{rt})
	if err != nil {
		t.Fatal(err)
	}
	checkStorageEqual(t, ls2, oracle)
	// The file carries the tier's pair count, so the stack's |paths_k|
	// survives the round trip.
	if rt.ix.PathsKCount() != tier.ix.PathsKCount() || ls2.PathsKCount() != ls.PathsKCount() {
		t.Fatalf("reloaded tier counts %d pairs (stack %d), spilled tier %d (stack %d)",
			rt.ix.PathsKCount(), ls2.PathsKCount(), tier.ix.PathsKCount(), ls.PathsKCount())
	}
}

// TestLevelsDeltaRatio: the compaction trigger is tier entries over base
// entries.
func TestLevelsDeltaRatio(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	base, _, batch := extendRandom(r, 25, 60, []string{"a", "b"}, 0.2)
	ls := pushBatches(t, base, batch, 2, 2)
	if ls.DeltaEntries() <= 0 {
		t.Fatalf("DeltaEntries = %d", ls.DeltaEntries())
	}
	want := float64(ls.DeltaEntries()) / float64(ls.BaseEntries())
	if got := ls.DeltaRatio(); got != want {
		t.Fatalf("DeltaRatio = %v, want %v", got, want)
	}
}

// BenchmarkPushTier times one PushTier onto a stack already T-1 tiers
// deep, for 16-edge batches over a k=3 index. The pushed tier is made
// (and its pairs counted) outside the loop: that cost is the tier's own.
// |paths_k| is a sum of per-tier counts and the directory is shared, so
// no older tier is re-read and the push must not grow with T.
func BenchmarkPushTier(b *testing.B) {
	const batchEdges = 16
	r := rand.New(rand.NewSource(1))
	base, _, batch := extendRandom(r, 300, 600, []string{"a", "b", "c"}, 0.35)
	ix, err := Build(base, 3, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, depth := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("T=%d", depth), func(b *testing.B) {
			var cur Storage = ix
			if depth > 1 {
				cur = pushChunks(b, ix, batch[:(depth-1)*batchEdges], depth-1)
			}
			last := batch[(depth-1)*batchEdges : depth*batchEdges]
			g2, err := cur.Graph().ExtendFrozen(last)
			if err != nil {
				b.Fatal(err)
			}
			d, err := BuildDelta(cur, g2)
			if err != nil {
				b.Fatal(err)
			}
			tier := NewTier(d, uint64(depth), uint64(depth))
			for b.Loop() {
				if _, err := PushTier(cur, tier); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(d.NumEntries()), "tier-entries")
		})
	}
}

// TestPathsKAdditive runs random sequences of pushes, tier merges, spill
// round trips and budgeted folds — each fold grafting the tiers pushed
// while it ran back over its result, as core's compaction does — and
// checks at every step that the stack's |paths_k| equals the reference
// (the base count plus, per batch, the nodes it added and the distinct
// non-identity pairs of its delta), is never below the exact count of a
// rebuild, and that every fold's result carries the value of the stack
// it folded. Every state must also serve exactly like the rebuild, and
// pushes must leave the stack they extend, and each other, untouched.
func TestPathsKAdditive(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := 1 + int(seed%3)
		g, _, _ := extendRandom(r, 24, 20, []string{"a", "b"}, 0)
		ix, err := Build(g, k, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := ix.PathsKCount()
		var cur Storage = ix
		seq := uint64(0)

		// push applies one random batch (new nodes and, rarely, a new
		// label included) over s and returns the stack with the batch's
		// reference share of |paths_k|.
		push := func(s Storage) (*Levels, int) {
			var batch []graph.LabeledEdge
			for range 1 + r.Intn(4) {
				node := func() string {
					if r.Intn(8) == 0 {
						return fmt.Sprintf("new%d", r.Intn(40))
					}
					return s.Graph().NodeName(graph.NodeID(r.Intn(s.Graph().NumNodes())))
				}
				label := []string{"a", "b", "a", "b", "c"}[r.Intn(5)]
				batch = append(batch, graph.LabeledEdge{Src: node(), Label: label, Dst: node()})
			}
			g2, err := s.Graph().ExtendFrozen(batch)
			if err != nil {
				t.Fatal(err)
			}
			d, err := BuildDelta(s, g2)
			if err != nil {
				t.Fatal(err)
			}
			pairs := map[Packed]bool{}
			for _, rel := range d.relations {
				for _, pr := range rel {
					if pr.Src() != pr.Dst() {
						pairs[pr] = true
					}
				}
			}
			seq++
			ls, err := PushTier(s, NewTier(d, seq, seq))
			if err != nil {
				t.Fatal(err)
			}
			return ls, g2.NumNodes() - s.Graph().NumNodes() + len(pairs)
		}
		check := func(step string, s Storage) {
			t.Helper()
			if got := s.PathsKCount(); got != want {
				t.Fatalf("seed %d %s: PathsKCount = %d, reference %d", seed, step, got, want)
			}
			oracle, err := Build(s.Graph(), k, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if s.PathsKCount() < oracle.PathsKCount() {
				t.Fatalf("seed %d %s: PathsKCount = %d, below the rebuild's %d", seed, step, s.PathsKCount(), oracle.PathsKCount())
			}
			checkStorageEqual(t, s.(dirStorage), oracle)
		}

		for step := range 16 {
			ls, stacked := cur.(*Levels)
			switch op := r.Intn(4); {
			case op == 0 || !stacked:
				// A sibling pushed onto the same stack must disturb
				// neither the stack nor the first push.
				next, share := push(cur)
				push(cur)
				check(fmt.Sprintf("step %d, the stack under two pushes", step), cur)
				cur, want = next, want+share
			case op == 1:
				cur, _ = ls.MergeOnce()
			case op == 2:
				i := r.Intn(len(ls.Tiers()))
				tier := ls.Tiers()[i]
				path := filepath.Join(dir, fmt.Sprintf("spill-%d-%d.pix", seed, step))
				if err := tier.WriteSpill(path); err != nil {
					t.Fatal(err)
				}
				loaded, err := Load(path, tier.ix.Graph())
				if err != nil {
					t.Fatal(err)
				}
				tiers := slices.Clone(ls.Tiers())
				tiers[i] = NewSpilledTier(loaded, tier.SeqLo(), tier.SeqHi(), path)
				if cur, err = NewLevels(ls.Base(), tiers); err != nil {
					t.Fatal(err)
				}
			default:
				f := ls.StartFold()
				foldWant := want
				live := ls
				for !f.Step(1 + r.Intn(200)) {
					if r.Intn(3) == 0 {
						var share int
						live, share = push(live)
						want += share
					}
				}
				if got := f.Result().PathsKCount(); got != foldWant {
					t.Fatalf("seed %d step %d: fold result PathsKCount = %d, stack's %d", seed, step, got, foldWant)
				}
				rest := live.Tiers()[len(ls.Tiers()):]
				cur = f.Result()
				if len(rest) > 0 {
					var err error
					if cur, err = NewLevels(f.Result(), slices.Clone(rest)); err != nil {
						t.Fatal(err)
					}
				}
			}
			check(fmt.Sprintf("step %d", step), cur)
		}
	}
}
