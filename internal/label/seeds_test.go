package label

import (
	"math"
	"math/rand"
	"testing"
)

// seedFlat is a random labeling with long runs (several compressed
// blocks at small block sizes), some empty runs (pairs with no common
// hub), and a mix of integer and fractional distances (both compressed
// distance planes).
func seedFlat(n int, seed int64) *FlatIndex {
	rng := rand.New(rand.NewSource(seed))
	ix := NewIndex(n)
	for v := 0; v < n; v++ {
		if v%11 == 0 {
			continue // empty run
		}
		hubs := rng.Perm(n)[:1+rng.Intn(40)]
		fractional := v%3 == 0
		s := make(Set, 0, len(hubs))
		for _, h := range hubs {
			d := float64(rng.Intn(500))
			if fractional {
				d = rng.Float64() * 333
			}
			s = append(s, L{Hub: uint32(h), Dist: d})
		}
		s.Sort()
		ix.SetLabels(v, s)
	}
	return Freeze(ix)
}

// TestSeedTableMatchesPairwiseJoins: one seed-table scan of a run gives,
// for every slot, the bits JoinPacked returns for that pair — and the
// compressed scan the bits JoinCompressed returns, at block sizes that
// split runs into many blocks.
func TestSeedTableMatchesPairwiseJoins(t *testing.T) {
	const n = 150
	f := seedFlat(n, 5)
	slots := []int{0, 1, 3, 7, 22, 33, 64, 99, 120, 149} // 0, 33, 99 have empty runs
	runs := make([][]uint64, len(slots))
	for i, p := range slots {
		runs[i] = f.PackedRun(p)
	}
	tab := NewSeedTable(n, runs)
	dst := make([]float64, len(slots))
	unreachable := 0
	for x := 0; x < n; x++ {
		tab.Seeds(dst, f.PackedRun(x))
		for i, p := range slots {
			want, _, _ := JoinPacked(f.PackedRun(x), f.PackedRun(p))
			if math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("Seeds(%d)[slot %d = vertex %d] = %v, JoinPacked = %v", x, i, p, dst[i], want)
			}
			if want == Infinity {
				unreachable++
			}
		}
	}
	if unreachable == 0 {
		t.Fatal("no pair without a common hub was checked")
	}
	for _, bs := range []int{1, 3, CompressedBlockEntries} {
		c, err := CompressBlocks(f, bs)
		if err != nil {
			t.Fatal(err)
		}
		for x := 0; x < n; x++ {
			tab.SeedsCompressed(dst, c.Run(x))
			for i, p := range slots {
				want, _, _ := JoinCompressed(c.Run(x), c.Run(p))
				if math.Float64bits(dst[i]) != math.Float64bits(want) {
					t.Fatalf("block size %d: SeedsCompressed(%d)[vertex %d] = %v, JoinCompressed = %v", bs, x, p, dst[i], want)
				}
			}
		}
	}
}
