// Package scheduler provides the core-dispatch policies of the MCCP Task
// Scheduler. The paper ships the simplest one — "an incoming packet is
// forwarded to the first idle core found. If no core is available, it
// returns an error flag" (§III.C) — and calls for smarter mappings in §VIII
// (stream priorities, quality-of-service, key/program affinity); those are
// implemented here as alternative policies and evaluated by the scheduling
// benches.
package scheduler

import (
	"fmt"
	"strings"

	"mccp/internal/cryptocore"
)

// EngineAES and EngineHash identify what currently occupies a core's
// reconfigurable region.
const (
	EngineAES  = "AES"
	EngineHash = "WHIRLPOOL"
)

// Names lists the selectable policies, in documentation order.
func Names() []string {
	return []string{"first-idle", "round-robin", "key-affinity", "qos-priority"}
}

// ByName returns a fresh policy instance for a policy name. The empty
// string selects the paper's first-idle behaviour. Every caller gets its
// own instance, so stateful policies (round-robin) are never shared
// between devices.
func ByName(name string) (Policy, error) {
	switch name {
	case "", "first-idle":
		return FirstIdle{}, nil
	case "round-robin":
		return &RoundRobin{}, nil
	case "key-affinity":
		return KeyAffinity{}, nil
	case "qos-priority":
		return QoSPriority{}, nil
	}
	return nil, fmt.Errorf("scheduler: unknown policy %q (have %s)", name, strings.Join(Names(), ", "))
}

// CoreView is the scheduler's snapshot of one core.
type CoreView struct {
	ID     int
	Busy   bool
	HasKey bool   // requested key already in this core's Key Cache
	Engine string // EngineAES or EngineHash
	// CachedKeys is the core's Key Cache occupancy; placement policies use
	// it to spread first-touch keys instead of piling onto core 0.
	CachedKeys int
}

// Request describes a dispatch decision's inputs.
type Request struct {
	Family    cryptocore.Family
	WantSplit bool // two-core CCM preferred
	KeyID     int
	Priority  int // higher first (QoS extension)
}

// Policy picks the core (or adjacent core pair, for split CCM) to run a
// request. It returns nil when no suitable resources are idle. The IDs it
// returns are a read-only view of a table shared by every call: the caller
// copies what it keeps and never writes through it.
type Policy interface {
	Name() string
	Pick(r Request, cores []CoreView) []int
}

// coreIDs is the table Pick's results are cut from: core id alone is
// coreIDs[id:id+1], the shared-register pair (2k, 2k+1) coreIDs[2k:2k+2].
// A dispatch decision therefore allocates nothing.
var coreIDs = func() (t [256]int) {
	for i := range t {
		t[i] = i
	}
	return t
}()

// idsOf returns the n consecutive core IDs from first, from the table when
// they are in it.
func idsOf(first, n int) []int {
	if first >= 0 && first+n <= len(coreIDs) {
		return coreIDs[first : first+n : first+n]
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = first + i
	}
	return ids
}

func engineFor(f cryptocore.Family) string {
	if f == cryptocore.FamilyHash {
		return EngineHash
	}
	return EngineAES
}

func usable(c CoreView, want string) bool { return !c.Busy && c.Engine == want }

// Paired reports whether two core IDs share a shift register: cores are
// paired (0,1), (2,3), ... matching the paper's pairwise-shared resources.
func Paired(a, b int) bool { return a/2 == b/2 && a != b }

// viewOf returns core id's view (the last one, should an ID repeat).
func viewOf(cores []CoreView, id int) (v CoreView, ok bool) {
	for _, c := range cores {
		if c.ID == id {
			v, ok = c, true
		}
	}
	return v, ok
}

// pickPair returns the first idle shared-register pair (2k, 2k+1), scanning
// the views from index start on and around; with keyed set, both halves
// must also hold the request's key.
func pickPair(cores []CoreView, want string, start int, keyed bool) []int {
	n := len(cores)
	for i := 0; i < n; i++ {
		c := cores[(start+i)%n]
		if c.ID%2 != 0 || !usable(c, want) || (keyed && !c.HasKey) {
			continue
		}
		if mate, ok := viewOf(cores, c.ID+1); ok && usable(mate, want) && (!keyed || mate.HasKey) {
			return idsOf(c.ID, 2)
		}
	}
	return nil
}

// pickFirst returns the first idle core, scanning from index start on and
// around.
func pickFirst(cores []CoreView, want string, start int) []int {
	n := len(cores)
	for i := 0; i < n; i++ {
		if c := cores[(start+i)%n]; usable(c, want) {
			return idsOf(c.ID, 1)
		}
	}
	return nil
}

// FirstIdle is the paper's policy: the first idle core wins; a split CCM
// request takes the first adjacent idle pair and falls back to one core.
type FirstIdle struct{}

// Name implements Policy.
func (FirstIdle) Name() string { return "first-idle" }

// Pick implements Policy.
func (FirstIdle) Pick(r Request, cores []CoreView) []int {
	want := engineFor(r.Family)
	if r.Family == cryptocore.FamilyCCM && r.WantSplit {
		if p := pickPair(cores, want, 0, false); p != nil {
			return p
		}
	}
	return pickFirst(cores, want, 0)
}

// RoundRobin rotates the starting core between dispatches, spreading wear
// and key-cache pressure evenly.
type RoundRobin struct{ next int }

// Name implements Policy.
func (*RoundRobin) Name() string { return "round-robin" }

// Pick implements Policy.
func (p *RoundRobin) Pick(r Request, cores []CoreView) []int {
	n := len(cores)
	if n == 0 {
		return nil
	}
	want := engineFor(r.Family)
	var ids []int
	if r.Family == cryptocore.FamilyCCM && r.WantSplit {
		ids = pickPair(cores, want, p.next, false)
	}
	if ids == nil {
		ids = pickFirst(cores, want, p.next)
	}
	if ids != nil {
		p.next = (ids[len(ids)-1] + 1) % n
	}
	return ids
}

// HighPriorityMin is the default priority tag from which a request counts
// as high-priority for QoSPriority (the qos package's video and voice
// classes; data and background fall below it).
const HighPriorityMin = 2

// QoSPriority is the §VIII quality-of-service dispatch policy: it keeps
// Reserve cores free for high-priority traffic. A high-priority request
// (Priority >= MinPriority) dispatches first-idle over every core, so a
// voice frame arriving at a device saturated with bulk transfers still
// finds its reserved core instantly. A low-priority request may only
// dispatch if at least Reserve suitable cores would stay idle afterwards;
// otherwise it queues (or draws the error flag), trading a fraction of
// bulk capacity for bounded high-priority latency.
type QoSPriority struct {
	// Reserve is the number of cores kept free for high-priority requests
	// (default max(1, cores/4) — one of the paper's four cores).
	Reserve int
	// MinPriority is the priority tag from which a request counts as
	// high-priority (default HighPriorityMin).
	MinPriority int
}

// Name implements Policy.
func (QoSPriority) Name() string { return "qos-priority" }

// Pick implements Policy.
func (p QoSPriority) Pick(r Request, cores []CoreView) []int {
	minPrio := p.MinPriority
	if minPrio <= 0 {
		minPrio = HighPriorityMin
	}
	if r.Priority >= minPrio {
		// Key-affine placement keeps a voice stream on the core that
		// already holds its round keys, so the reserved capacity is not
		// spent re-expanding keys on whichever core happens to be free.
		return KeyAffinity{}.Pick(r, cores)
	}
	reserve := p.Reserve
	if reserve <= 0 {
		reserve = len(cores) / 4
		if reserve < 1 {
			reserve = 1
		}
	}
	// Never reserve the whole device: a single-core MCCP must still serve
	// background traffic.
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
		if pr := pickPair(cores, want, 0, false); pr != nil {
			return pr
		}
	}
	if idle-1 >= reserve {
		return pickFirst(cores, want, 0)
	}
	return nil
}

// KeyAffinity prefers an idle core that already holds the request's round
// keys in its Key Cache, avoiding the Key Scheduler's expansion latency;
// it degrades to first-idle otherwise. This is the §VIII observation that
// assignment must cover "loading of the correct Cryptographic Core program
// and Cryptographic Unit configuration".
type KeyAffinity struct{}

// Name implements Policy.
func (KeyAffinity) Name() string { return "key-affinity" }

// Pick implements Policy.
func (KeyAffinity) Pick(r Request, cores []CoreView) []int {
	want := engineFor(r.Family)
	if r.Family == cryptocore.FamilyCCM && r.WantSplit {
		// Prefer a pair that already holds the key on both halves.
		if p := pickPair(cores, want, 0, true); p != nil {
			return p
		}
		if p := pickPair(cores, want, 0, false); p != nil {
			return p
		}
	}
	for _, c := range cores {
		if usable(c, want) && c.HasKey {
			return idsOf(c.ID, 1)
		}
	}
	// First touch (or the holding core is busy): place on the idle core
	// with the emptiest Key Cache, spreading keys so future packets find
	// their core idle more often. A first-idle fallback would pile every
	// key onto core 0 and defeat the affinity.
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
	return idsOf(best, 1)
}
