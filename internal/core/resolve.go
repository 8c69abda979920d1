package core

import (
	"sync"

	"dynnoffload/internal/pilot"
)

// ResolutionMemo remembers the pilot resolution of served requests. Entries
// are keyed by sample ID and record the example, the resolving pilot
// instance and its weight version (pilot.Version); a lookup hits only when
// all three match. So an entry answers only for the exact weights that
// produced it: a Refine or Train bumps the version and makes every older
// entry of that pilot miss, a clone is a different pilot, and a sample
// resolved through several pilots (per-tenant adapters) keeps one entry per
// pilot. Two examples that share a sample ID (pools built from different
// sample sets or model contexts) never answer for each other.
//
// Resolution is a pure function of (pilot weights, example), so a hit
// reproduces every field a fresh Resolve would except the wall-clock InferNS
// and MapNS, which are 0 on a hit because no inference ran. The memo is safe
// for concurrent use, so the replica engines of one serving run can share it
// (Config.Resolutions).
type ResolutionMemo struct {
	mu      sync.Mutex
	entries map[int][]memoEntry
}

// memoEntry is one example's resolution under one pilot version. Its
// Resolution has InferNS and MapNS zeroed; its Output is shared by every hit
// and must not be mutated.
type memoEntry struct {
	ex      *pilot.Example
	pilot   *pilot.Pilot
	version uint64
	res     pilot.Resolution
}

// NewResolutionMemo returns an empty memo.
func NewResolutionMemo() *ResolutionMemo {
	return &ResolutionMemo{entries: map[int][]memoEntry{}}
}

// lookup returns ex's resolution under pilot p at version v.
func (m *ResolutionMemo) lookup(ex *pilot.Example, p *pilot.Pilot, v uint64) (pilot.Resolution, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.entries[ex.Sample.ID] {
		if e.ex == ex && e.pilot == p && e.version == v {
			return e.res, true
		}
	}
	return pilot.Resolution{}, false
}

// store records ex's resolution under pilot p at version v, replacing the
// entry of an older version of p.
func (m *ResolutionMemo) store(ex *pilot.Example, p *pilot.Pilot, v uint64, res pilot.Resolution) {
	res.InferNS, res.MapNS = 0, 0
	ent := memoEntry{ex: ex, pilot: p, version: v, res: res}
	m.mu.Lock()
	defer m.mu.Unlock()
	ents := m.entries[ex.Sample.ID]
	for i := range ents {
		if ents[i].ex == ex && ents[i].pilot == p {
			ents[i] = ent
			return
		}
	}
	m.entries[ex.Sample.ID] = append(ents, ent)
}

// resolveAll is phase 1 of the sample pipeline (run): pilot inference and output→path mapping for exs, sample
// i through pilotFor(opts, i), with per-index errors. With the resolution
// memo on (Config.MemoizeSamples), a serial prologue answers every request
// whose (sample, pilot, version) is memoized, only the misses fan out
// across workers, and a serial epilogue memoizes them. Hits still count in
// the recorder's pilot and mapping histograms, at 0 ns.
func (e *Engine) resolveAll(exs []*pilot.Example, opts *EpochOptions, workers int) ([]pilot.Resolution, []error) {
	resolutions := make([]pilot.Resolution, len(exs))
	errs := make([]error, len(exs))
	rec := opts.Recorder
	memo := e.resolved
	miss := make([]int, 0, len(exs))
	for i, ex := range exs {
		if memo != nil && ex.Sample != nil {
			p := e.pilotFor(opts, i)
			if res, ok := memo.lookup(ex, p, p.Version()); ok {
				resolutions[i] = res
				if rec != nil {
					rec.ObservePhase(PhasePilot, 0)
					rec.ObservePhase(PhaseMapping, 0)
				}
				continue
			}
		}
		miss = append(miss, i)
	}
	fanOut(len(miss), min(workers, len(miss)), func(k int) {
		i := miss[k]
		resolutions[i], errs[i] = e.pilotFor(opts, i).Resolve(exs[i])
		if rec != nil && errs[i] == nil {
			rec.ObservePhase(PhasePilot, resolutions[i].InferNS)
			rec.ObservePhase(PhaseMapping, resolutions[i].MapNS)
		}
	})
	if memo == nil {
		return resolutions, errs
	}
	for _, i := range miss {
		if errs[i] == nil && exs[i].Sample != nil {
			p := e.pilotFor(opts, i)
			memo.store(exs[i], p, p.Version(), resolutions[i])
		}
	}
	return resolutions, errs
}
