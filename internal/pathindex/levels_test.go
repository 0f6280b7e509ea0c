package pathindex

import (
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

// pushChunks applies the batch over cur in nChunks sequential tiers
// tagged with sequence numbers 1..nChunks.
func pushChunks(t *testing.T, cur Storage, batch []graph.LabeledEdge, nChunks int) *Levels {
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
				// RunPair's disjointness contract directly.
				oracle.AllPaths(func(id uint32, p Path, count int) {
					b, d := ls.RunPair(p)
					for _, pr := range d {
						if _, found := slices.BinarySearch(b, pr); found {
							t.Fatalf("k=%d path %v: delta pair %v also in base run", k, p, pr)
						}
					}
				})
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
	checkStorageEqual(t, ls.Compacted().(*Index), oracle)
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

// TestTierSpillRoundTrip: spill a tier to a v3 file, reload it against
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
	rt := NewSpilledTier(loaded, g2, 1, 1, "spill-1-1.pix")
	if rt.SeqLo() != 1 || rt.SeqHi() != 1 || rt.Spill() != "spill-1-1.pix" {
		t.Fatalf("recovered tier metadata: [%d,%d] %q", rt.SeqLo(), rt.SeqHi(), rt.Spill())
	}
	ls2, err := NewLevels(ls.Base(), []*Tier{rt})
	if err != nil {
		t.Fatal(err)
	}
	checkStorageEqual(t, ls2, oracle)
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
