package harness

import (
	"testing"

	"mccp/internal/cluster"
	"mccp/internal/qos"
)

// TestClassRecordContract holds every open-loop driver to the one
// per-class record: at twice saturation, where all of them drop packets,
// each cell's verdicts must account for every arrival, and the expired
// and aged drops must be counted inside Shed (qos.ClassStats documents
// them as its subsets), whether the counters came from one shaper, a
// merge across shards or the wire client's response statuses.
func TestClassRecordContract(t *testing.T) {
	const offered = 2.0
	sat := SaturationMbps(LoadMix, 8)
	drivers := []struct {
		name  string
		cells func() []qos.ClassCell
	}{
		{"LoadPointRun", func() []qos.ClassCell {
			return LoadPointRun("qos-priority", offered, sat, LoadCurveConfig{BackgroundPackets: 200}).Classes
		}},
		{"cluster.RunOpenLoop", func() []qos.ClassCell {
			res, err := cluster.RunOpenLoop(cluster.OpenLoopConfig{
				Shards: 2, Policy: "qos-priority", Offered: offered,
				SatMbpsPerShard: sat, Horizon: 300000, Seed: 7, Profiles: LoadMix,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res.Classes
		}},
		{"WirePointRun", func() []qos.ClassCell {
			cfg := WireConfig{Sessions: 64, Windows: 24}
			return WirePointRun(offered, cfg.saturation(), cfg).Classes
		}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			cells := d.cells()
			if len(cells) == 0 {
				t.Fatal("no class cells")
			}
			for _, c := range cells {
				if got := c.Completed + c.Shed + c.Rejected + c.Failed; got != c.Submitted {
					t.Errorf("%v: submitted %d, but completed %d + shed %d + rejected %d + failed %d = %d",
						c.Class, c.Submitted, c.Completed, c.Shed, c.Rejected, c.Failed, got)
				}
				if c.Expired+c.Aged > c.Shed {
					t.Errorf("%v: expired %d + aged %d counted outside shed %d",
						c.Class, c.Expired, c.Aged, c.Shed)
				}
			}
		})
	}
}
