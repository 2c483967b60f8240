// Package delta layers a mutable edge-patch overlay over a frozen hub
// labeling. The frozen index answers exact distances for the graph it
// was built from; the overlay tracks edges inserted, deleted, or
// reweighted since, and corrects queries so every answer is exact for
// the *patched* graph — without rebuilding labels.
//
// The scheme: a patch log of edge operations reduces (against the base
// graph) to a set R of removed edges and a set I of inserted edges; the
// patch vertices P are the endpoints of R ∪ I. Any shortest path in the
// patched graph G' = G − R + I decomposes into inserted edges and
// maximal segments that avoid every patched edge — and each such
// segment runs between members of {u} ∪ P ∪ {v}, so its length is the
// G−R distance between its endpoints. When no G-shortest path between a
// segment's endpoints threads a removed edge (the "safety" test below),
// that G−R distance equals the frozen label distance, and the corrected
// query is a Dijkstra over a tiny graph of |P|+2 nodes whose arcs are
// frozen distances plus inserted edges. When safety cannot be shown the
// overlay falls back to an exact Dijkstra on the materialized patched
// graph. Untouched pairs under an empty overlay never leave the frozen
// path, so their answers stay bit-identical.
//
// Safety test: a frozen value d(a,b) is possibly compromised iff some
// removal (x,y,w) satisfies d(a,x) + w + d(y,b) == d(a,b) (both
// orientations for undirected graphs) — i.e. a G-shortest a→b path may
// cross the removed edge. All the distances the test needs are between
// members of {a} ∪ P ∪ {b}, which are exactly the seeds the correction
// already has. Since a→x→(edge)→y→b is a real G-walk, the sum can never
// be below d(a,b); the test uses <= so float noise errs toward the
// exact fallback, never toward a wrong answer.
package delta

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/graph"
	"repro/internal/sssp"
)

// OpKind discriminates the three patch operations.
type OpKind uint8

const (
	// OpAdd inserts an edge that does not exist in the current state.
	OpAdd OpKind = iota
	// OpDel deletes an existing edge.
	OpDel
	// OpSet reweights an existing edge.
	OpSet
)

// Op is one edge operation in a patch log. U and V are original vertex
// ids; W is the new weight for OpAdd and OpSet (ignored for OpDel).
type Op struct {
	Kind OpKind
	U, V int
	W    float64
}

// String renders the op in patch-log line format.
func (op Op) String() string {
	switch op.Kind {
	case OpDel:
		return fmt.Sprintf("del %d %d", op.U, op.V)
	case OpSet:
		return fmt.Sprintf("set %d %d %s", op.U, op.V, strconv.FormatFloat(op.W, 'g', -1, 64))
	default:
		return fmt.Sprintf("add %d %d %s", op.U, op.V, strconv.FormatFloat(op.W, 'g', -1, 64))
	}
}

// ParsePatchLog parses the text patch-log format: one op per line —
// "add u v w", "del u v", "set u v w" — with blank lines and '#'
// comments ignored. Vertex ids must be non-negative (range checking
// against a concrete graph happens at apply time); weights must be
// positive and finite. The parser is fuzzed; it must never panic on
// hostile input.
func ParsePatchLog(b []byte) ([]Op, error) {
	var ops []Op
	for ln, line := range strings.Split(string(b), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		var (
			op   Op
			want int
		)
		switch f[0] {
		case "add":
			op.Kind, want = OpAdd, 4
		case "del":
			op.Kind, want = OpDel, 3
		case "set":
			op.Kind, want = OpSet, 4
		default:
			return nil, fmt.Errorf("delta: line %d: unknown op %q (want add|del|set)", ln+1, f[0])
		}
		if len(f) != want {
			return nil, fmt.Errorf("delta: line %d: %s takes %d fields, got %d", ln+1, f[0], want-1, len(f)-1)
		}
		u, err1 := strconv.Atoi(f[1])
		v, err2 := strconv.Atoi(f[2])
		if err1 != nil || err2 != nil || u < 0 || v < 0 {
			return nil, fmt.Errorf("delta: line %d: bad vertex ids %q %q", ln+1, f[1], f[2])
		}
		if u == v {
			return nil, fmt.Errorf("delta: line %d: self loop (%d,%d)", ln+1, u, v)
		}
		op.U, op.V = u, v
		if want == 4 {
			w, err := strconv.ParseFloat(f[3], 64)
			if err != nil || !(w > 0) || w > 1e308 {
				return nil, fmt.Errorf("delta: line %d: bad weight %q (want positive finite)", ln+1, f[3])
			}
			op.W = w
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// FormatPatchLog renders ops in the text format ParsePatchLog reads;
// Format∘Parse is the identity on valid logs modulo comments and
// whitespace.
func FormatPatchLog(ops []Op) []byte {
	var b bytes.Buffer
	for _, op := range ops {
		b.WriteString(op.String())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// LogHash returns a 53-bit, never-zero FNV-1a hash of the canonical
// text rendering of ops — the patch half of a patched snapshot's
// identity. Two processes that replay the same journal over the same
// index file agree on it.
func LogHash(ops []Op) uint64 {
	h := fnv.New64a()
	h.Write(FormatPatchLog(ops))
	s := h.Sum64() & (1<<53 - 1)
	if s == 0 {
		s = 1
	}
	return s
}

// AppendJournal appends ops to the patch journal at path (creating it
// if needed) and syncs, so an accepted /update batch survives a crash.
func AppendJournal(path string, ops []Op) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(FormatPatchLog(ops)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadJournal parses the journal at path; a missing file is an empty
// journal, not an error.
func ReadJournal(path string) ([]Op, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return ParsePatchLog(b)
}

// TruncateJournal empties the journal after a compaction folded its ops
// into a fresh snapshot. A missing file is fine.
func TruncateJournal(path string) error {
	err := os.Truncate(path, 0)
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// edgeKey identifies one edge: ordered for directed graphs, normalized
// u<v for undirected ones.
type edgeKey struct{ u, v int }

// removal is one edge of R in patch-vertex slot space.
type removal struct {
	x, y int // slots of the removed edge's endpoints
	w    float64
}

// insArc is one inserted arc out of a patch vertex, in slot space.
type insArc struct {
	to int
	w  float64
}

// Reduction is the patch log reduced against a base graph: the final
// edge state of every touched key, the removal/insertion diff, and the
// patch-vertex universe. It is the cheap, shard-free half of overlay
// construction — building the Overlay on top additionally needs frozen
// distances between patch vertices (a PairQuerier).
type Reduction struct {
	base     *graph.Graph
	directed bool
	verts    []int       // sorted patch vertex ids (endpoints of R ∪ I)
	slot     map[int]int // vertex id -> index into verts
	removals []removal
	inserts  [][]insArc          // slot -> inserted arcs out of it
	override map[edgeKey]float64 // final weight of touched keys still present
	touched  map[edgeKey]bool
	nRem     int
	nIns     int
}

func (r *Reduction) key(u, v int) edgeKey {
	if !r.directed && u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

// Reduce validates ops in order against base (add requires the edge
// absent, del/set require it present — each judged against the state
// left by the preceding ops) and diffs the final state against base
// into removals and insertions. A reweight is a removal of the old
// weight plus an insertion of the new one; ops that cancel out vanish.
func Reduce(base *graph.Graph, ops []Op) (*Reduction, error) {
	if base == nil {
		return nil, fmt.Errorf("delta: nil base graph")
	}
	n := base.NumVertices()
	r := &Reduction{
		base:     base,
		directed: base.Directed(),
		slot:     map[int]int{},
		override: map[edgeKey]float64{},
		touched:  map[edgeKey]bool{},
	}
	// Final edge state per touched key, carried op to op.
	type state struct {
		w       float64
		present bool
	}
	cur := map[edgeKey]state{}
	lookup := func(k edgeKey) state {
		if st, ok := cur[k]; ok {
			return st
		}
		w, has := base.HasEdge(k.u, k.v)
		return state{w: w, present: has}
	}
	for i, op := range ops {
		if op.U < 0 || op.U >= n || op.V < 0 || op.V >= n {
			return nil, fmt.Errorf("delta: op %d (%s): vertex out of range [0,%d)", i, op.String(), n)
		}
		if op.U == op.V {
			return nil, fmt.Errorf("delta: op %d (%s): self loop", i, op.String())
		}
		k := r.key(op.U, op.V)
		st := lookup(k)
		switch op.Kind {
		case OpAdd:
			if st.present {
				return nil, fmt.Errorf("delta: op %d (%s): edge exists (use set)", i, op.String())
			}
			if !(op.W > 0) {
				return nil, fmt.Errorf("delta: op %d (%s): non-positive weight", i, op.String())
			}
			cur[k] = state{w: op.W, present: true}
		case OpDel:
			if !st.present {
				return nil, fmt.Errorf("delta: op %d (%s): edge does not exist", i, op.String())
			}
			cur[k] = state{present: false}
		case OpSet:
			if !st.present {
				return nil, fmt.Errorf("delta: op %d (%s): edge does not exist (use add)", i, op.String())
			}
			if !(op.W > 0) {
				return nil, fmt.Errorf("delta: op %d (%s): non-positive weight", i, op.String())
			}
			cur[k] = state{w: op.W, present: true}
		default:
			return nil, fmt.Errorf("delta: op %d: unknown kind %d", i, op.Kind)
		}
	}
	// Deterministic order: maps must not leak iteration order into the
	// overlay (its hash, vertex numbering, and journal replay all
	// depend on determinism).
	keys := make([]edgeKey, 0, len(cur))
	for k := range cur {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].u != keys[j].u {
			return keys[i].u < keys[j].u
		}
		return keys[i].v < keys[j].v
	})
	type diffEdge struct {
		u, v int
		w    float64
	}
	var rem, ins []diffEdge
	seen := map[int]bool{}
	for _, k := range keys {
		st := cur[k]
		r.touched[k] = true
		if st.present {
			r.override[k] = st.w
		}
		bw, bhas := base.HasEdge(k.u, k.v)
		if bhas && (!st.present || st.w != bw) {
			rem = append(rem, diffEdge{k.u, k.v, bw})
			seen[k.u], seen[k.v] = true, true
		}
		if st.present && (!bhas || st.w != bw) {
			ins = append(ins, diffEdge{k.u, k.v, st.w})
			seen[k.u], seen[k.v] = true, true
		}
	}
	for v := range seen {
		r.verts = append(r.verts, v)
	}
	sort.Ints(r.verts)
	for i, v := range r.verts {
		r.slot[v] = i
	}
	r.inserts = make([][]insArc, len(r.verts))
	for _, e := range rem {
		r.removals = append(r.removals, removal{x: r.slot[e.u], y: r.slot[e.v], w: e.w})
	}
	for _, e := range ins {
		su, sv := r.slot[e.u], r.slot[e.v]
		r.inserts[su] = append(r.inserts[su], insArc{to: sv, w: e.w})
		if !r.directed {
			r.inserts[sv] = append(r.inserts[sv], insArc{to: su, w: e.w})
		}
	}
	r.nRem, r.nIns = len(rem), len(ins)
	return r, nil
}

// Verts returns the sorted patch vertex ids.
func (r *Reduction) Verts() []int { return r.verts }

// Slot returns v's index in Verts, and whether v is a patch vertex.
func (r *Reduction) Slot(v int) (int, bool) {
	i, ok := r.slot[v]
	return i, ok
}

// Empty reports whether the reduction changes nothing: every op
// cancelled out, so queries can stay on the frozen path.
func (r *Reduction) Empty() bool { return r.nRem == 0 && r.nIns == 0 }

// Materialize builds the patched graph G' = base − R + I.
func (r *Reduction) Materialize() (*graph.Graph, error) {
	b := graph.NewBuilder(r.base.NumVertices(), r.directed)
	for u := 0; u < r.base.NumVertices(); u++ {
		heads, wts := r.base.Neighbors(u)
		for i, h := range heads {
			v := int(h)
			if !r.directed && u > v {
				continue // each undirected edge once; the builder mirrors it
			}
			if r.touched[r.key(u, v)] {
				continue
			}
			b.AddEdge(u, v, wts[i])
		}
	}
	for k, w := range r.override {
		b.AddEdge(k.u, k.v, w)
	}
	return b.Finish()
}

// ApplyPatch applies a patch log to a graph and returns the patched
// graph — the reference mutation tests and compaction both build on.
func ApplyPatch(base *graph.Graph, ops []Op) (*graph.Graph, error) {
	red, err := Reduce(base, ops)
	if err != nil {
		return nil, err
	}
	return red.Materialize()
}

// PairQuerier returns the frozen (label) shortest distance between two
// original vertex ids, graph.Infinity when unreachable. The overlay
// build calls it O(|P|²) times to pin inter-patch-vertex distances.
type PairQuerier func(u, v int) float64

// Overlay is one immutable patch generation: a Reduction plus the
// distance tables the seeded correction needs — frozen inter-patch
// distances for the safety test, exact patched inter-patch distances
// (|P| build-time Dijkstras) for the correction graph's arcs. Build a
// new one per accepted batch; queries against an old one stay
// consistent with the snapshot it was built over.
type Overlay struct {
	*Reduction
	ops   []Op
	epoch uint64
	hash  uint64
	dpq   [][]float64 // frozen d_G(verts[i], verts[j]) — safety test only
	dpp   [][]float64 // exact patched d'(verts[i], verts[j]) — correction arcs

	patchedOnce sync.Once
	patched     *graph.Graph
	patchedErr  error

	scratch sync.Pool // *corrScratch for Correct
}

// NewOverlay builds the overlay for ops (already reduced to red) with
// frozen distances supplied by q. epoch tags the patch generation for
// cache keying; ops is the full accumulated log (its LogHash becomes
// the overlay's identity contribution). Construction runs one Dijkstra
// per patch vertex on the materialized patched graph — the one-time
// cost that makes per-query corrections exact without any inter-patch
// safety caveat.
func NewOverlay(red *Reduction, ops []Op, epoch uint64, q PairQuerier) (*Overlay, error) {
	o := &Overlay{Reduction: red, ops: ops, epoch: epoch, hash: LogHash(ops)}
	k := len(red.verts)
	o.dpq = make([][]float64, k)
	for i := 0; i < k; i++ {
		o.dpq[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			switch {
			case i == j:
				o.dpq[i][j] = 0
			case !red.directed && j < i:
				o.dpq[i][j] = o.dpq[j][i]
			default:
				o.dpq[i][j] = q(red.verts[i], red.verts[j])
			}
		}
	}
	pg, err := o.Patched()
	if err != nil {
		return nil, err
	}
	o.dpp = make([][]float64, k)
	for i := 0; i < k; i++ {
		row := sssp.Dijkstra(pg, red.verts[i])
		o.dpp[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			o.dpp[i][j] = row[red.verts[j]]
		}
	}
	return o, nil
}

// Epoch returns the patch generation this overlay was applied at.
func (o *Overlay) Epoch() uint64 { return o.epoch }

// Hash returns the 53-bit identity of the accumulated patch log.
func (o *Overlay) Hash() uint64 { return o.hash }

// Ops returns the accumulated patch log the overlay was built from.
func (o *Overlay) Ops() []Op { return o.ops }

// Stats describes the overlay's size for /stats and logs.
type Stats struct {
	Epoch    uint64 `json:"epoch"`
	Ops      int    `json:"ops"`
	Vertices int    `json:"patch_vertices"`
	Removals int    `json:"removed_edges"`
	Inserts  int    `json:"inserted_edges"`
	LogHash  uint64 `json:"log_hash"`
}

// Stat returns the overlay's shape.
func (o *Overlay) Stat() Stats {
	return Stats{
		Epoch:    o.epoch,
		Ops:      len(o.ops),
		Vertices: len(o.verts),
		Removals: o.nRem,
		Inserts:  o.nIns,
		LogHash:  o.hash,
	}
}

// compromised reports whether the frozen value dab for a pair (a,b) may
// count a removed edge: some removal (x,y,w) with d(a,x)+w+d(y,b) <=
// dab means a G-shortest a→b path may thread it, so dab is not provably
// the G−R distance. dax[x] must hold the frozen d(a, verts[x]); dyb(y)
// the frozen d(verts[y], b). Unreachable pairs are always safe —
// removing edges cannot create paths.
func (o *Overlay) compromised(dab float64, dax []float64, dyb func(int) float64) bool {
	if dab >= graph.Infinity {
		return false
	}
	for _, rm := range o.removals {
		if dax[rm.x]+rm.w+dyb(rm.y) <= dab {
			return true
		}
		if !o.directed && dax[rm.y]+rm.w+dyb(rm.x) <= dab {
			return true
		}
	}
	return false
}

// Correct computes the patched distance for one pair from its frozen
// seeds: d0 is the frozen pair distance, du[i] the frozen d(u,
// verts[i]), dv[i] the frozen d(verts[i], v) (all graph.Infinity when
// unreachable). It runs Dijkstra over the |P|+2-node correction graph:
// seed arcs u→p and p→v, the frozen u→v arc, and exact patched
// distances between patch vertices. A patched shortest path decomposes
// at its first and last patch-vertex visit — the prefix and suffix
// cross no patched edge (any patched edge would visit a patch vertex
// first), so safe frozen seeds cover them exactly, and the build-time
// dpp table covers the middle exactly.
//
// The exactness argument runs through a bracket. A frozen seed is
// always d_G ≤ d_{G−R}, so the correction Dijkstra over ALL frozen
// seeds is a lower bound L ≤ d'. A seed that passes the safety test
// equals d_{G−R} and is realizable in G', so the correction Dijkstra
// over only the SAFE seeds is an upper bound C ≥ d'. When L == C the
// answer is pinned exactly.
//
// Most reads close the bracket without computing C: the all-seeds
// Dijkstra records predecessors, and its arg-min path uses at most two
// seed arcs — the first (u→p, or the direct u→v arc) and the last
// (p→v); the arcs between patch vertices are exact. Only those arcs are
// safety-tested. When they pass, the arg-min path is itself a path of
// safe arcs, so C ≤ L and the bracket closes at L. Dijkstra over
// float sums is exact for the fold-left path length (addition of a
// non-negative weight is monotone and never decreasing), so this is
// the same L == C a full bracket computes, bit for bit. Only when an
// arc on the arg-min path is compromised does Correct run the full
// two-Dijkstra bracket (every seed safety-tested, then C) — so
// ubiquitous shortest-path ties in small integer-weighted graphs do
// not force everything onto the fallback path either way.
//
// exact=false means the bracket did not close and the caller must fall
// back to Dist/Row on the materialized patched graph. When exact,
// frozen reports whether the corrected distance equals a safe d0 — the
// license to keep serving the frozen witness hub.
func (o *Overlay) Correct(d0 float64, du, dv []float64) (dist float64, frozen, exact bool) {
	k := len(o.verts)
	sc := o.getScratch()
	defer o.scratch.Put(sc)
	lower := o.correctionDijkstra(sc, d0, du, dv, false, nil, nil)
	if lower >= graph.Infinity {
		// Removing edges cannot create paths, and safe seeds are a
		// subset: C ≥ L = ∞.
		return graph.Infinity, false, true
	}
	last := int(sc.pred[k+1])
	if last == 0 {
		// The direct arc is the arg-min: it relaxed v first, and later
		// arcs replace it only when strictly shorter, so lower == d0.
		if !o.d0Compromised(d0, du, dv) {
			return lower, true, true
		}
	} else {
		first := last
		for sc.pred[first] != 0 {
			first = int(sc.pred[first])
		}
		// lower < d0 here (see above), so the frozen answer is gone.
		if !o.duCompromised(first-1, du) && !o.dvCompromised(last-1, dv) {
			return lower, false, true
		}
	}
	return o.bracket(sc, lower, d0, du, dv)
}

// bracket is the rest of the full two-Dijkstra form of Correct, given
// the all-seeds lower bound: safety-test every seed, rerun the
// correction over the safe ones only (the upper bound C), and accept
// when it meets the lower bound.
func (o *Overlay) bracket(sc *corrScratch, lower, d0 float64, du, dv []float64) (dist float64, frozen, exact bool) {
	k := len(o.verts)
	d0Bad := o.d0Compromised(d0, du, dv)
	var duBad, dvBad []bool
	for j := 0; j < k; j++ {
		if o.duCompromised(j, du) {
			if duBad == nil {
				duBad = make([]bool, k)
			}
			duBad[j] = true
		}
		if o.dvCompromised(j, dv) {
			if dvBad == nil {
				dvBad = make([]bool, k)
			}
			dvBad[j] = true
		}
	}
	upper := o.correctionDijkstra(sc, d0, du, dv, d0Bad, duBad, dvBad)
	if upper != lower {
		return 0, false, false
	}
	return upper, !d0Bad && upper == d0, true
}

// d0Compromised, duCompromised and dvCompromised are the safety test
// for the three kinds of seed arc: the direct u→v arc, u→verts[j] and
// verts[i]→v.
func (o *Overlay) d0Compromised(d0 float64, du, dv []float64) bool {
	return o.compromised(d0, du, func(y int) float64 { return dv[y] })
}

func (o *Overlay) duCompromised(j int, du []float64) bool {
	return o.compromised(du[j], du, func(y int) float64 { return o.dpq[y][j] })
}

func (o *Overlay) dvCompromised(i int, dv []float64) bool {
	return o.compromised(dv[i], o.dpq[i], func(y int) float64 { return dv[y] })
}

// corrScratch is one correction Dijkstra's working state over the
// |P|+2 nodes, pooled per overlay.
type corrScratch struct {
	d    []float64
	done []bool
	pred []int32
}

func (o *Overlay) getScratch() *corrScratch {
	if sc, ok := o.scratch.Get().(*corrScratch); ok {
		return sc
	}
	k := len(o.verts) + 2
	return &corrScratch{d: make([]float64, k), done: make([]bool, k), pred: make([]int32, k)}
}

// correctionDijkstra runs the dense Dijkstra over nodes {0:u, 1..k:
// patch verts, k+1: v} and returns d(u,v) on that graph; sc.pred
// records each reached node's predecessor. Skip flags drop the
// corresponding frozen seed arc (nil = keep all).
func (o *Overlay) correctionDijkstra(sc *corrScratch, d0 float64, du, dv []float64, skipD0 bool, skipU, skipV []bool) float64 {
	const inf = graph.Infinity
	k := len(o.verts)
	t := k + 1
	d, done, pred := sc.d, sc.done, sc.pred
	for i := range d {
		d[i] = inf
		done[i] = false
		pred[i] = -1
	}
	d[0] = 0
	for {
		at, best := -1, inf
		for i, dd := range d {
			if !done[i] && dd < best {
				at, best = i, dd
			}
		}
		if at < 0 || at == t {
			break
		}
		done[at] = true
		relax := func(to int, w float64) {
			if w < inf && best+w < d[to] {
				d[to] = best + w
				pred[to] = int32(at)
			}
		}
		switch {
		case at == 0:
			for j := 0; j < k; j++ {
				if skipU == nil || !skipU[j] {
					relax(j+1, du[j])
				}
			}
			if !skipD0 {
				relax(t, d0)
			}
		default:
			i := at - 1
			for j := 0; j < k; j++ {
				relax(j+1, o.dpp[i][j])
			}
			if skipV == nil || !skipV[i] {
				relax(t, dv[i])
			}
		}
	}
	return d[t]
}

// Patched returns the lazily materialized patched graph, shared by
// every fallback path of this overlay.
func (o *Overlay) Patched() (*graph.Graph, error) {
	o.patchedOnce.Do(func() {
		o.patched, o.patchedErr = o.Materialize()
	})
	return o.patched, o.patchedErr
}

// Row returns the full single-source distance row from u on the patched
// graph — the exact fallback when a frozen seed is unsafe, and the
// source of /knn and /matrix rows under an overlay.
func (o *Overlay) Row(u int) ([]float64, error) {
	g, err := o.Patched()
	if err != nil {
		return nil, err
	}
	return sssp.Dijkstra(g, u), nil
}

// Dist returns the exact patched distance for one pair via the fallback
// Dijkstra on the patched graph, stopped as soon as v settles
// (sssp.DijkstraTo — bit-identical to Row(u)[v], at the cost of the
// ball around u out to d'(u,v) rather than the whole graph).
func (o *Overlay) Dist(u, v int) (float64, error) {
	g, err := o.Patched()
	if err != nil {
		return 0, err
	}
	return sssp.DijkstraTo(g, u, v), nil
}

// ShortestPath returns an exact shortest u→v vertex walk on the patched
// graph (nil when unreachable) and its length — the /paths workload
// under an overlay, where witness-hub expansion is unavailable.
func (o *Overlay) ShortestPath(u, v int) ([]int, float64, error) {
	g, err := o.Patched()
	if err != nil {
		return nil, 0, err
	}
	dist, pred := dijkstraPred(g, u)
	if dist[v] >= graph.Infinity {
		return nil, graph.Infinity, nil
	}
	var path []int
	for at := v; ; at = pred[at] {
		path = append(path, at)
		if at == u {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, dist[v], nil
}

// dijkstraPred is Dijkstra with predecessor tracking, on a lazy-deletion
// binary heap like the sssp package's kernels.
func dijkstraPred(g *graph.Graph, source int) (dist []float64, pred []int) {
	n := g.NumVertices()
	dist = make([]float64, n)
	pred = make([]int, n)
	for i := range dist {
		dist[i] = graph.Infinity
		pred[i] = -1
	}
	dist[source] = 0
	type qitem struct {
		d float64
		v int
	}
	h := []qitem{{0, source}}
	push := func(it qitem) {
		h = append(h, it)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p].d <= h[i].d {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() qitem {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < last && h[l].d < h[small].d {
				small = l
			}
			if r < last && h[r].d < h[small].d {
				small = r
			}
			if small == i {
				break
			}
			h[small], h[i] = h[i], h[small]
			i = small
		}
		return top
	}
	for len(h) > 0 {
		it := pop()
		if it.d > dist[it.v] {
			continue
		}
		heads, wts := g.Neighbors(it.v)
		for i, hd := range heads {
			nd := it.d + wts[i]
			if nd < dist[hd] {
				dist[hd] = nd
				pred[hd] = it.v
				push(qitem{nd, int(hd)})
			}
		}
	}
	return dist, pred
}
