package chl

import (
	"fmt"
	"sort"

	"repro/internal/delta"
	"repro/internal/label"
)

// Dynamic edge updates at the router tier. The shards stay frozen —
// they serve the mmap'd index files they were built from and never see
// a patch — so the router owns the whole correction: it keeps the
// accumulated patch log, builds a delta overlay against the base graph
// (RouterConfig.BaseGraph), fetches the label rows of every patch
// vertex at patch-apply time and transposes them into the batch's seed
// tables, and corrects each query locally from the endpoints' fetched
// rows. The read path is the engine's: the same patchSeeder turns one
// scan of each endpoint row into the seed vectors and runs
// delta.Overlay.Correct with the same fallback (see ARCHITECTURE.md
// "Dynamic updates"). Only where the rows come from differs: the
// engine reads its own store, the router packed runs fetched over the
// shard protocol, and the router joins the pair itself with
// label.JoinPacked where the engine calls FlatIndex.QueryHub.
//
// The overlay rides the routerState pointer, so a patch batch swaps
// overlay and answer cache in one atomic publish, and the overlay epoch
// discriminates singleflight keys (flightKey.pepoch): a flight computed
// before a batch can never feed a query arriving after it.
//
// Pinned rows assume the cluster keeps serving the index built from
// BaseGraph. A shard /reload that changes content while updates are
// outstanding invalidates them — the same operator contract as the flat
// server, which refuses to reload under outstanding patches; the router
// cannot refuse (shards reload out from under it), so this is a
// documented operator rule instead.

// errRouterUpdatesDisabled refuses updates on a router without a base
// graph (409, not the 400 of a bad patch).
const errRouterUpdatesDisabled = updatesDisabledError("chl: router updates disabled — configure RouterConfig.BaseGraph (cmd/chlrouter: -graph) to accept /update")

// ensurePatch replays the update journal once, lazily, on the first
// query or update after construction — NewRouter must never contact
// shards, and replay pins patch-vertex rows. Failed replays are
// retried by the next caller; nothing is marked loaded until the
// journal has been applied in full.
func (r *Router) ensurePatch() error {
	if r.journalLoaded.Load() {
		return nil
	}
	r.patchMu.Lock()
	defer r.patchMu.Unlock()
	if r.journalLoaded.Load() {
		return nil
	}
	ops, err := delta.ReadJournal(r.journal)
	if err != nil {
		return fmt.Errorf("chl: replaying update journal %s: %w", r.journal, err)
	}
	if len(ops) > 0 {
		if _, err := r.applyPatchOpsLocked(ops, false); err != nil {
			return fmt.Errorf("chl: replaying update journal %s: %w", r.journal, err)
		}
	}
	r.journalLoaded.Store(true)
	return nil
}

// Update applies one batch of edge operations to the cluster's served
// graph without touching the shards, journaling it first when a
// journal is configured. The returned stats describe the accumulated
// overlay after the batch.
func (r *Router) Update(ops []EdgeOp) (delta.Stats, error) {
	if r.baseGraph == nil {
		return delta.Stats{}, errRouterUpdatesDisabled
	}
	if len(ops) == 0 {
		return delta.Stats{}, fmt.Errorf("chl: empty patch")
	}
	if err := r.ensurePatch(); err != nil {
		return delta.Stats{}, err
	}
	r.patchMu.Lock()
	defer r.patchMu.Unlock()
	return r.applyPatchOpsLocked(ops, true)
}

// applyPatchOpsLocked validates ops against the accumulated log, builds
// the new overlay (fetching and pinning patch-vertex rows from the
// shards), journals, and publishes the new state. Callers hold patchMu.
// The journal append happens after validation but before any state
// changes — a batch is observable iff it is durable.
func (r *Router) applyPatchOpsLocked(ops []EdgeOp, journal bool) (delta.Stats, error) {
	combined := make([]EdgeOp, 0, len(r.patchOps)+len(ops))
	combined = append(append(combined, r.patchOps...), ops...)
	red, err := delta.Reduce(r.baseGraph, combined)
	if err != nil {
		return delta.Stats{}, err
	}
	fwd, bwd, err := r.fetchPatchRows(red.Verts())
	if err != nil {
		return delta.Stats{}, err
	}
	q := func(a, b int) float64 {
		d, _, ok := label.JoinPacked(fwd[a], bwd[b])
		if !ok {
			return Infinity
		}
		return d
	}
	ov, err := delta.NewOverlay(red, combined, r.patchBatches+1, q)
	if err != nil {
		return delta.Stats{}, err
	}
	if journal && r.journal != "" {
		if err := delta.AppendJournal(r.journal, ops); err != nil {
			return delta.Stats{}, fmt.Errorf("chl: journaling update: %w", err)
		}
	}
	r.patchOps = combined
	r.patchBatches++
	var rp *patchSeeder
	if !ov.Empty() {
		rp = newPatchSeeder(ov, r.n, r.directed,
			func(v int) []uint64 { return fwd[v] }, func(v int) []uint64 { return bwd[v] })
	}
	for {
		st := r.state.Load()
		next := &routerState{
			idents: make([][]genObs, len(st.idents)),
			cache:  r.newAnswerCache(), // the patch batch retires every pre-patch answer
			patch:  rp,
		}
		for i, group := range st.idents {
			next.idents[i] = append([]genObs(nil), group...)
		}
		if r.state.CompareAndSwap(st, next) {
			break
		}
	}
	r.cacheResets.Add(1)
	r.updates.Add(1)
	return ov.Stat(), nil
}

// fetchPatchRows fetches the packed label rows of every patch vertex —
// forward always, backward too on directed clusters — one /shardquery
// per owning shard. On undirected clusters the returned bwd map aliases
// fwd (symmetric labels, one copy).
func (r *Router) fetchPatchRows(verts []int) (fwd, bwd map[int][]uint64, err error) {
	byShard := map[int][]int{}
	for _, v := range verts {
		sid := r.part.Owner(v)
		byShard[sid] = append(byShard[sid], v)
	}
	sids := make([]int, 0, len(byShard))
	for sid := range byShard {
		sids = append(sids, sid)
	}
	sort.Ints(sids)
	fwd = make(map[int][]uint64, len(verts))
	bwd = fwd
	if r.directed {
		bwd = make(map[int][]uint64, len(verts))
	}
	for _, sid := range sids {
		vs := byShard[sid]
		var bvs []int
		if r.directed {
			bvs = vs
		}
		gotF, gotB, rep, o, serr := r.fetchRows(sid, vs, bvs)
		if serr != nil {
			return nil, nil, &ClusterError{Failed: []*ShardError{serr}}
		}
		for v, run := range gotF {
			fwd[v] = run
		}
		for v, run := range gotB {
			bwd[v] = run
		}
		r.noteGenerations(map[repRef]genObs{{sid, rep.id}: o})
	}
	return fwd, bwd, nil
}

// routePatchedQueryHub is the leader's half of queryHub under a delta
// overlay: fetch the endpoints' rows, join them against each other,
// scan each once against the batch's seed tables for the correction
// seeds, and run the same Correct/fallback the engine tier runs. Even
// same-shard pairs take this path — the shard's own /dist would answer
// from frozen labels, which is exactly what the overlay must correct.
// The witness hub is served only when the overlay certifies the frozen
// answer intact (frozen); a corrected distance has no label witness and
// reports hub -1 (see BatchEngine.queryHubPatched — same contract).
func (r *Router) routePatchedQueryHub(st *routerState, u, v int, needHub bool) flightResult {
	p := st.patch
	su, sv := r.part.Owner(u), r.part.Owner(v)
	obs := map[repRef]genObs{}

	// Fetch u's forward row and v's backward (directed) or forward
	// (undirected) row — one /shardquery when one shard owns everything.
	needF := map[int][]int{su: {u}}
	needB := map[int][]int{}
	if r.directed {
		needB[sv] = []int{v}
	} else if v != u {
		needF[sv] = append(needF[sv], v)
	}
	rowShards := map[int]struct{}{su: {}, sv: {}}
	rowsF := map[int][]uint64{}
	rowsB := map[int][]uint64{}
	var repU *replica
	for sid := range rowShards {
		fvs, bvs := needF[sid], needB[sid]
		sort.Ints(fvs)
		gotF, gotB, rep, o, serr := r.fetchRows(sid, fvs, bvs)
		if serr != nil {
			return flightResult{err: &ClusterError{Failed: []*ShardError{serr}}}
		}
		for vert, run := range gotF {
			rowsF[vert] = run
		}
		for vert, run := range gotB {
			rowsB[vert] = run
		}
		if sid == su {
			repU = rep
		}
		obs[repRef{sid, rep.id}] = o
	}
	rowU := rowsF[u]
	rowV := rowsF[v]
	if r.directed {
		rowV = rowsB[v]
	}

	d0, rank0, ok0 := label.JoinPacked(rowU, rowV)
	if !ok0 {
		d0 = Infinity
	}
	if u == v {
		d0, ok0 = 0, true
	}
	b := p.buf()
	p.toP.Seeds(b.du, rowU)
	p.fromP.Seeds(b.dv, rowV)
	dist, frozen := p.correct(b, u, v, d0)
	if dist >= Infinity {
		r.cachePut(st, obs, u, v, Answer{Dist: Infinity, Hub: hubUnknown, Reachable: false})
		return flightResult{dist: Infinity, hub: 0, ok: false}
	}
	// Hub contract: -1 (no label witness) unless the overlay certified
	// the frozen answer, in which case the frozen witness still lies on
	// a patched shortest path. Its rank is resolved to an original id
	// only when the caller needs it; hub-less answers cache under
	// hubUnknown (== -1) so a later hub-needing query recomputes — the
	// same collision the engine tier documents on its cache.
	hub := -1
	if frozen && ok0 {
		switch {
		case u == v:
			hub = u
		case needHub:
			h, o, serr := r.resolveRankOn(repU, int(rank0))
			if serr != nil {
				return flightResult{err: &ClusterError{Failed: []*ShardError{serr}}}
			}
			key := repRef{repU.shard, repU.id}
			if prev, seen := obs[key]; seen && prev != o {
				// The shard reloaded between the row fetch and the rank
				// resolution; the hub is not attributable to the rows that
				// produced the distance.
				return flightResult{err: &ClusterError{Failed: []*ShardError{{
					Shard: repU.shard, Replica: repU.id, Addr: repU.addr,
					Err: fmt.Errorf("snapshot changed during witness resolution"),
				}}}}
			}
			obs[key] = o
			hub = h
		}
	}
	r.cachePut(st, obs, u, v, Answer{Dist: dist, Hub: hub, Reachable: true})
	return flightResult{dist: dist, hub: hub, ok: true}
}
