// Package faults is the deterministic fault-injection plane: seeded
// schedules of shard crashes, stalls and session churn, a brownout
// planner that decides which traffic classes to shed when serving
// capacity drops below offered load, and a wire-level injector that
// wraps net.Conn with connection drops, truncated writes and stalled
// reads.
//
// Everything here is a plan, not a mechanism: internal/cluster executes
// shard faults as events on the victim shard's own discrete-event engine
// (ArmShardCrash/ArmShardStall), internal/fleet's heal controller arms
// them and runs detection, the load generator executes churn, and
// internal/qos executes the brownout mask. Schedules are
// drawn from the same splittable SplitMix64 PRNG discipline as
// internal/arrivals, so a schedule is a pure function of its seed — the
// E16 fault curves replay bit-identically.
package faults

import (
	"fmt"
	"sort"
	"strings"

	"mccp/internal/arrivals"
	"mccp/internal/qos"
	"mccp/internal/sim"
)

// Kind classifies a scheduled fault event.
type Kind int

const (
	// ShardCrash kills a shard's service permanently at the scheduled
	// point: queued and future packets fail, the heartbeat freezes, and
	// recovery is quarantine + voice-first re-home on the survivors.
	ShardCrash Kind = iota
	// ShardStall freezes a shard's dispatch for Dur cycles; queued
	// packets age and expire in place, then service resumes. A stalled
	// shard is not dead and must not be quarantined.
	ShardStall
	// SessionChurn closes and re-opens Count sessions at a window
	// boundary (the open/close storm, load-generator side).
	SessionChurn
)

func (k Kind) String() string {
	switch k {
	case ShardCrash:
		return "crash"
	case ShardStall:
		return "stall"
	case SessionChurn:
		return "churn"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled fault.
type Event struct {
	Kind Kind
	// Window indexes the open-loop measurement window (load-generator
	// barrier sequence) in which the event fires; shard faults arm at the
	// window's start and fire Offset cycles into the victim's next batch.
	Window int
	// Shard is the victim (ShardCrash/ShardStall).
	Shard int
	// Offset is the virtual-time offset into the batch at which the
	// fault fires.
	Offset sim.Time
	// Dur is the stall length (ShardStall only).
	Dur sim.Time
	// Count is the sessions churned (SessionChurn only).
	Count int
}

func (e Event) String() string {
	switch e.Kind {
	case SessionChurn:
		return fmt.Sprintf("w%d %v x%d", e.Window, e.Kind, e.Count)
	case ShardStall:
		return fmt.Sprintf("w%d %v shard %d +%d for %d", e.Window, e.Kind, e.Shard, e.Offset, e.Dur)
	default:
		return fmt.Sprintf("w%d %v shard %d +%d", e.Window, e.Kind, e.Shard, e.Offset)
	}
}

// Schedule is a deterministic fault plan: events sorted by window.
type Schedule struct {
	Seed   uint64
	Events []Event
}

// Empty reports whether the schedule injects nothing.
func (s Schedule) Empty() bool { return len(s.Events) == 0 }

// ForWindow returns the events scheduled for one window.
func (s Schedule) ForWindow(w int) []Event {
	var out []Event
	for _, e := range s.Events {
		if e.Window == w {
			out = append(out, e)
		}
	}
	return out
}

func (s Schedule) String() string {
	if s.Empty() {
		return "no faults"
	}
	parts := make([]string, 0, len(s.Events))
	for _, e := range s.Events {
		parts = append(parts, e.String())
	}
	return strings.Join(parts, "; ")
}

// PlanConfig parameterizes Plan.
type PlanConfig struct {
	// Seed drives the schedule's splittable PRNG.
	Seed uint64
	// Shards is the cluster size; Windows the measurement length.
	Shards, Windows int
	// Crashes is the number of distinct shards to crash; FaultWindow the
	// window the first crash lands in (later crashes land in successive
	// windows). At least one shard always survives.
	Crashes     int
	FaultWindow int
	// Stalls schedules that many transient freezes of StallCycles each on
	// surviving shards, after the crashes.
	Stalls      int
	StallCycles sim.Time
	// ChurnPerWindow closes and re-opens that many sessions at every
	// window boundary from FaultWindow on.
	ChurnPerWindow int
	// WindowCycles bounds the in-window fault offsets: each shard fault
	// fires between 1/4 and 3/4 of a window in.
	WindowCycles sim.Time
}

// Plan draws a deterministic schedule from the config's seed. Crash
// victims are distinct shards chosen by the PRNG (never all of them),
// offsets land mid-window, and the event list is sorted by window then
// shard so the schedule prints and replays stably.
func Plan(cfg PlanConfig) (Schedule, error) {
	if cfg.Shards <= 0 || cfg.Windows <= 0 {
		return Schedule{}, fmt.Errorf("faults: plan needs positive shards and windows")
	}
	if cfg.Crashes >= cfg.Shards {
		return Schedule{}, fmt.Errorf("faults: %d crashes would kill all %d shards (at least one must survive)", cfg.Crashes, cfg.Shards)
	}
	if cfg.WindowCycles <= 0 {
		cfg.WindowCycles = 8192
	}
	if cfg.FaultWindow <= 0 {
		cfg.FaultWindow = cfg.Windows / 3
		if cfg.FaultWindow == 0 {
			cfg.FaultWindow = 1
		}
	}
	s := Schedule{Seed: cfg.Seed}
	rng := arrivals.NewRand(cfg.Seed ^ 0xFA17)
	crashRng := rng.Split()
	stallRng := rng.Split()
	offset := func(r *arrivals.Rand) sim.Time {
		span := uint64(cfg.WindowCycles) / 2
		return sim.Time(uint64(cfg.WindowCycles)/4 + r.Uint64()%span)
	}
	victims := map[int]bool{}
	for i := 0; i < cfg.Crashes; i++ {
		v := int(crashRng.Uint64() % uint64(cfg.Shards))
		for victims[v] {
			v = (v + 1) % cfg.Shards
		}
		victims[v] = true
		s.Events = append(s.Events, Event{
			Kind:   ShardCrash,
			Window: cfg.FaultWindow + i,
			Shard:  v,
			Offset: offset(crashRng),
		})
	}
	for i := 0; i < cfg.Stalls; i++ {
		v := int(stallRng.Uint64() % uint64(cfg.Shards))
		for victims[v] { // never stall a corpse
			v = (v + 1) % cfg.Shards
		}
		s.Events = append(s.Events, Event{
			Kind:   ShardStall,
			Window: cfg.FaultWindow + cfg.Crashes + i,
			Shard:  v,
			Offset: offset(stallRng),
			Dur:    cfg.StallCycles,
		})
	}
	if cfg.ChurnPerWindow > 0 {
		for w := cfg.FaultWindow; w < cfg.Windows; w++ {
			s.Events = append(s.Events, Event{Kind: SessionChurn, Window: w, Count: cfg.ChurnPerWindow})
		}
	}
	sort.SliceStable(s.Events, func(i, j int) bool {
		if s.Events[i].Window != s.Events[j].Window {
			return s.Events[i].Window < s.Events[j].Window
		}
		return s.Events[i].Shard < s.Events[j].Shard
	})
	return s, nil
}

// BrownoutDeny plans graceful degradation: given the offered load, the
// remaining serving capacity and each class's share of the offered load
// (all in Mbps, or any one consistent unit), it sheds whole classes in
// strict reverse-priority order — background first, then data, then
// video — until the load the mask still admits fits the capacity. Voice
// is never shed: if capacity cannot even carry voice, the mask still
// admits it and the shaper's own queues arbitrate. The zero mask (admit
// everything) comes back whenever capacity covers the full offered load.
func BrownoutDeny(offered, capacity float64, share [qos.NumClasses]float64) [qos.NumClasses]bool {
	var deny [qos.NumClasses]bool
	if capacity >= offered || offered <= 0 {
		return deny
	}
	admitted := offered
	// Shed lowest class first: Background has the lowest class value.
	for _, c := range []qos.Class{qos.Background, qos.Data, qos.Video} {
		if admitted <= capacity {
			break
		}
		deny[c] = true
		admitted -= offered * share[c]
	}
	return deny
}
