package qos

import (
	"fmt"
	"io"

	"mccp/internal/sim"
)

// ClassCell is one class's summary over one measurement window: the
// verdict counters plus the rates, loss fraction and latency percentiles
// every experiment table and load report prints. It is the one per-class
// row above the shaper — harness points, cluster open-loop windows and
// the CLIs all carry it, whether the counters came from a shaper, a
// merge across shards or the wire client's status tallies.
type ClassCell struct {
	// ClassStats holds the window's counters (Completed is delivered
	// packets; Shed includes Expired and Aged).
	ClassStats
	// OfferedMbps and DeliveredMbps are the Submitted and Completed
	// packets, at the class's fixed packet size, over the window at the
	// modeled clock.
	OfferedMbps, DeliveredMbps float64
	// LossFrac is (Submitted-Completed)/Submitted — every packet that
	// arrived but was never delivered.
	LossFrac float64
	// P50 and P99 are nearest-rank latency percentiles in cycles.
	P50, P99 sim.Time
	// Samples optionally keeps the (sorted) latency samples behind the
	// percentiles, so a caller can merge distributions across windows
	// instead of comparing per-window percentiles.
	Samples []sim.Time
}

// MbpsOver converts a byte count over a span of cycles to Mbps at the
// modeled clock (0 for an empty span).
func MbpsOver(bytes uint64, cycles sim.Time) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(bytes*8) / float64(cycles) * sim.DefaultFreqHz / 1e6
}

// NewClassCell summarises one class over a window of horizon cycles from
// its counters and latency samples (sorted in place, not retained).
// packetBytes is the class's fixed packet size, the rate numerator.
func NewClassCell(st ClassStats, samples []sim.Time, packetBytes int, horizon sim.Time) ClassCell {
	c := ClassCell{
		ClassStats:    st,
		OfferedMbps:   MbpsOver(st.Submitted*uint64(packetBytes), horizon),
		DeliveredMbps: MbpsOver(st.Completed*uint64(packetBytes), horizon),
		P50:           PercentileOf(samples, 50),
		P99:           PercentileOf(samples, 99),
	}
	if st.Submitted > 0 {
		c.LossFrac = float64(st.Submitted-st.Completed) / float64(st.Submitted)
	}
	return c
}

// CellOf returns the cell for a class (a zero cell if absent).
func CellOf(cells []ClassCell, c Class) ClassCell {
	for _, cell := range cells {
		if cell.Class == c {
			return cell
		}
	}
	return ClassCell{ClassStats: ClassStats{Class: c}}
}

// WriteClassCells prints one aligned row per cell under a header — the
// per-class report of the open-loop CLIs.
func WriteClassCells(w io.Writer, cells []ClassCell) {
	fmt.Fprintf(w, "%-12s %10s %10s %8s %8s %8s %8s %8s %10s %10s\n",
		"class", "off Mbps", "del Mbps", "loss%", "shed", "expired", "aged", "misses", "p50 cyc", "p99 cyc")
	for _, c := range cells {
		fmt.Fprintf(w, "%-12s %10.0f %10.0f %7.2f%% %8d %8d %8d %8d %10d %10d\n",
			c.Class, c.OfferedMbps, c.DeliveredMbps, 100*c.LossFrac,
			c.Shed, c.Expired, c.Aged, c.DeadlineMisses, c.P50, c.P99)
	}
}
