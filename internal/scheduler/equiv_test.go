package scheduler

import (
	"slices"
	"testing"

	"mccp/internal/cryptocore"
)

// The reference policies below are the earlier implementations, kept
// verbatim in shape: they build a map per pair search and RoundRobin
// rotates a copy of the views. TestPolicyEquivalence holds the
// table-backed policies to them.

func refPickPair(cores []CoreView, want string) []int {
	byID := make(map[int]CoreView, len(cores))
	for _, c := range cores {
		byID[c.ID] = c
	}
	for _, c := range cores {
		if c.ID%2 != 0 {
			continue
		}
		mate, ok := byID[c.ID+1]
		if ok && usable(c, want) && usable(mate, want) {
			return []int{c.ID, mate.ID}
		}
	}
	return nil
}

func refPickFirst(cores []CoreView, want string) []int {
	for _, c := range cores {
		if usable(c, want) {
			return []int{c.ID}
		}
	}
	return nil
}

func refFirstIdle(r Request, cores []CoreView) []int {
	want := engineFor(r.Family)
	if r.Family == cryptocore.FamilyCCM && r.WantSplit {
		if p := refPickPair(cores, want); p != nil {
			return p
		}
	}
	return refPickFirst(cores, want)
}

type refRoundRobin struct{ next int }

func (p *refRoundRobin) pick(r Request, cores []CoreView) []int {
	n := len(cores)
	if n == 0 {
		return nil
	}
	want := engineFor(r.Family)
	rot := make([]CoreView, 0, n)
	for i := 0; i < n; i++ {
		rot = append(rot, cores[(p.next+i)%n])
	}
	var ids []int
	if r.Family == cryptocore.FamilyCCM && r.WantSplit {
		ids = refPickPair(rot, want)
	}
	if ids == nil {
		ids = refPickFirst(rot, want)
	}
	if ids != nil {
		p.next = (ids[len(ids)-1] + 1) % n
	}
	return ids
}

func refKeyAffinity(r Request, cores []CoreView) []int {
	want := engineFor(r.Family)
	if r.Family == cryptocore.FamilyCCM && r.WantSplit {
		byID := make(map[int]CoreView, len(cores))
		for _, c := range cores {
			byID[c.ID] = c
		}
		for _, c := range cores {
			if c.ID%2 != 0 {
				continue
			}
			mate, ok := byID[c.ID+1]
			if ok && usable(c, want) && usable(mate, want) && c.HasKey && mate.HasKey {
				return []int{c.ID, mate.ID}
			}
		}
		if p := refPickPair(cores, want); p != nil {
			return p
		}
	}
	for _, c := range cores {
		if usable(c, want) && c.HasKey {
			return []int{c.ID}
		}
	}
	best := -1
	bestLoad := 1 << 30
	for _, c := range cores {
		if usable(c, want) && c.CachedKeys < bestLoad {
			best, bestLoad = c.ID, c.CachedKeys
		}
	}
	if best < 0 {
		return nil
	}
	return []int{best}
}

func refQoSPriority(p QoSPriority, r Request, cores []CoreView) []int {
	minPrio := p.MinPriority
	if minPrio <= 0 {
		minPrio = HighPriorityMin
	}
	if r.Priority >= minPrio {
		return refKeyAffinity(r, cores)
	}
	reserve := p.Reserve
	if reserve <= 0 {
		reserve = len(cores) / 4
		if reserve < 1 {
			reserve = 1
		}
	}
	if reserve >= len(cores) {
		reserve = len(cores) - 1
	}
	want := engineFor(r.Family)
	idle := 0
	for _, c := range cores {
		if usable(c, want) {
			idle++
		}
	}
	if r.Family == cryptocore.FamilyCCM && r.WantSplit && idle-2 >= reserve {
		if pr := refPickPair(cores, want); pr != nil {
			return pr
		}
	}
	if idle-1 >= reserve {
		return refPickFirst(cores, want)
	}
	return nil
}

// sweep calls visit for every request shape on the 4 cores of vs: each
// busy, engine and has-key mask, two Key Cache occupancy patterns (all
// equal, and falling with the core ID, so KeyAffinity's emptiest-cache
// choice both ties and decides), every family, split or not, and
// priorities 0 to 3.
func sweep(vs []CoreView, visit func(Request, []CoreView)) {
	const n = 4
	families := []cryptocore.Family{cryptocore.FamilyGCM, cryptocore.FamilyCCM,
		cryptocore.FamilyCTR, cryptocore.FamilyCBCMAC, cryptocore.FamilyHash}
	for busy := 0; busy < 1<<n; busy++ {
		for engine := 0; engine < 1<<n; engine++ {
			for key := 0; key < 1<<n; key++ {
				for load := 0; load < 2; load++ {
					for i := range vs {
						vs[i] = CoreView{ID: i, Busy: busy>>i&1 == 1, HasKey: key>>i&1 == 1,
							Engine: EngineAES, CachedKeys: 2 + load*(n-2*i)}
						if engine>>i&1 == 1 {
							vs[i].Engine = EngineHash
						}
					}
					for _, f := range families {
						for _, split := range []bool{false, true} {
							for prio := 0; prio < 4; prio++ {
								visit(Request{Family: f, WantSplit: split, KeyID: 7, Priority: prio}, vs)
							}
						}
					}
				}
			}
		}
	}
}

// TestPolicyEquivalence: every policy picks exactly what its reference
// picks, over every request shape sweep generates — round-robin over the
// whole sequence, so its rotation state is compared too — and a full sweep
// through each policy allocates nothing.
func TestPolicyEquivalence(t *testing.T) {
	rr := &refRoundRobin{}
	vs := make([]CoreView, 4)
	policies := []struct {
		p   Policy
		ref func(Request, []CoreView) []int
	}{
		{FirstIdle{}, refFirstIdle},
		{&RoundRobin{}, rr.pick},
		{KeyAffinity{}, refKeyAffinity},
		{QoSPriority{}, func(r Request, vs []CoreView) []int { return refQoSPriority(QoSPriority{}, r, vs) }},
		{QoSPriority{Reserve: 2, MinPriority: 3}, func(r Request, vs []CoreView) []int {
			return refQoSPriority(QoSPriority{Reserve: 2, MinPriority: 3}, r, vs)
		}},
	}
	for _, pc := range policies {
		bad, picks := 0, 0
		sweep(vs, func(r Request, vs []CoreView) {
			got, want := pc.p.Pick(r, vs), pc.ref(r, vs)
			if got != nil {
				picks++
			}
			if !slices.Equal(got, want) || (got == nil) != (want == nil) {
				if bad++; bad <= 5 {
					t.Errorf("%s: Pick(%+v, %+v) = %v, reference %v", pc.p.Name(), r, vs, got, want)
				}
			}
		})
		if bad > 0 {
			t.Errorf("%s: %d picks differ from the reference", pc.p.Name(), bad)
		}
		if picks == 0 {
			t.Errorf("%s: the sweep never picked a core", pc.p.Name())
		}
		if allocs := testing.AllocsPerRun(1, func() { sweep(vs, func(r Request, vs []CoreView) { pc.p.Pick(r, vs) }) }); allocs != 0 {
			t.Errorf("%s: a sweep allocates %.0f times, want 0", pc.p.Name(), allocs)
		}
	}
}
