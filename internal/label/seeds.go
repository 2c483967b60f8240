package label

import "math"

// Patch-seed kernel: a read under a live edge patch needs, besides the
// pair's own distance, the frozen distances from u to every patch vertex
// p and from every p to v — 2|P| hub joins per read if done pairwise. A
// SeedTable turns them into two label scans. It transposes the patch
// vertices' packed runs hub-major (hub h → every (slot, d(h,p_slot))
// pair), once per patch batch; a read then walks L(u) once, and each of
// its hubs contributes d(u,h) + d(h,p) to the seeds of exactly the patch
// vertices that carry h. The work per read is |L(u)| plus the number of
// common hubs, instead of Σ_p (|L(u)| + |L(p)|).
//
// Each seed is the minimum over common hubs of the same float32→float64
// sum JoinPacked forms (float64 addition is commutative, so the order of
// the two terms does not matter), which makes the seeds bit-identical to
// pairwise JoinPacked / FlatIndex.Query / JoinCompressed answers on the
// same labels.

// SeedTable is the hub-major transpose of a small set of packed label
// runs — one per slot — over a hub space [0, n). It is immutable after
// construction and safe for concurrent readers.
type SeedTable struct {
	off    []uint32 // len n+1: postings of hub h are post[off[h]:off[h+1]]
	post   []uint64 // slot<<32 | float32 distance bits, ascending slot per hub
	maxHub uint64   // largest hub with a posting; entries past it never match
}

// NewSeedTable transposes runs (runs[i] is the packed run of slot i,
// hub-sorted as every packed run is) over the hub space [0, n). Every
// hub must be below n; runs fetched from an n-vertex index always are.
func NewSeedTable(n int, runs [][]uint64) *SeedTable {
	t := &SeedTable{off: make([]uint32, n+1)}
	total := 0
	for _, run := range runs {
		for _, e := range run {
			t.off[e>>32+1]++
		}
		total += len(run)
	}
	for h := 1; h <= n; h++ {
		t.off[h] += t.off[h-1]
	}
	t.post = make([]uint64, total)
	fill := append([]uint32(nil), t.off[:n]...)
	for i, run := range runs {
		for _, e := range run {
			h := e >> 32
			t.post[fill[h]] = uint64(i)<<32 | e&0xffffffff
			fill[h]++
			if h > t.maxHub {
				t.maxHub = h
			}
		}
	}
	return t
}

// Seeds writes into dst[i] the hub join of run with the run of slot i:
// the minimum of d(x,h) + d(h,slot) over their common hubs, Infinity
// when they share none. dst has one entry per run the table was built
// from. run is the label run of the other endpoint: its forward run
// when the table holds backward runs (seeds d(u,p)), its backward run
// when the table holds forward runs (seeds d(p,v)).
func (t *SeedTable) Seeds(dst []float64, run []uint64) {
	for i := range dst {
		dst[i] = Infinity
	}
	maxEntry := t.maxHub<<32 | 0xffffffff
	for _, e := range run {
		if e > maxEntry {
			break
		}
		t.scan(dst, e)
	}
}

// SeedsCompressed is Seeds over a compressed run: blocks past the
// table's largest hub end the scan without decoding, the rest decode
// into a stack buffer and scan as in Seeds. Answers are bit-identical
// to Seeds on the decompressed run.
func (t *SeedTable) SeedsCompressed(dst []float64, r CRun) {
	for i := range dst {
		dst[i] = Infinity
	}
	maxEntry := t.maxHub<<32 | 0xffffffff
	var buf compBlockBuf
	for b, nb := 0, len(r.heads)/4; b < nb; b++ {
		if uint64(r.heads[4*b]) > t.maxHub {
			return
		}
		cnt := r.decodeBlock(b, &buf)
		for _, e := range buf[:cnt] {
			if e > maxEntry {
				return
			}
			t.scan(dst, e)
		}
	}
}

// scan folds one label entry (hub h, d(x,h)), h ≤ maxHub, into the
// seeds of every slot that carries h.
func (t *SeedTable) scan(dst []float64, e uint64) {
	h := e >> 32
	d := entryDist(e)
	for _, p := range t.post[t.off[h]:t.off[h+1]] {
		if s := d + float64(math.Float32frombits(uint32(p))); s < dst[p>>32] {
			dst[p>>32] = s
		}
	}
}
