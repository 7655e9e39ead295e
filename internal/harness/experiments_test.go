package harness

import (
	"reflect"
	"testing"
)

// TestGates runs every registered CI gate the way `benchjson -gates all`
// does: each must pass on a healthy tree, and each deterministic gate
// must report the same thing twice. A WallClock gate's host-time clause
// is logged rather than asserted — under a loaded test host it may dip,
// and benchjson is where it is enforced.
func TestGates(t *testing.T) {
	gates := Gates()
	if len(gates) != 6 {
		t.Fatalf("%d gates registered, want one each for E13-E18", len(gates))
	}
	for _, g := range gates {
		t.Run(g.Name, func(t *testing.T) {
			r := g.Check()
			t.Logf("%s\n%s", r.Summary, g.Doc)
			if len(r.Violations) > 0 {
				t.Fatalf("gate failed: %q", r.Violations)
			}
			if r.Summary == "" || len(r.Details) == 0 {
				t.Fatalf("gate reported nothing: %+v", r)
			}
			if g.WallClock {
				t.Logf("wall-clock clauses (not asserted here): %q", r.HostViolations)
				return
			}
			if len(r.HostViolations) > 0 {
				t.Fatalf("deterministic gate carries wall-clock violations: %q", r.HostViolations)
			}
			if again := g.Check(); !reflect.DeepEqual(r, again) {
				t.Fatalf("gate not reproducible:\n%+v\n%+v", r, again)
			}
		})
	}
}
