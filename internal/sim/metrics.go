package sim

import (
	"fmt"
	"math"

	"repro/internal/roadnet"
)

// Metrics aggregates every quantity the paper's evaluation reports, both
// city-wide and per hourly slot.
type Metrics struct {
	// Orders.
	TotalOrders int
	Delivered   int
	Rejected    int
	Stranded    int // orders whose route became unreachable mid-flight (failure injection)

	// XDTSec is Σ extra delivery time over delivered orders (Problem 1's
	// objective without the rejection term); RejectionPenaltySec adds Ω per
	// rejection.
	XDTSec              float64
	RejectionPenaltySec float64
	// DeliverySec is Σ realised delivery times (for mean delivery time).
	DeliverySec float64

	// WaitSec is Σ vehicle idle time at restaurants (the WT metric).
	WaitSec float64

	// SLAViolations counts deliveries that exceeded SimOptions.SLASec
	// (0 when the threshold is disabled).
	SLAViolations int

	// DistM is total metres driven; LoadDistM[k] metres driven while
	// carrying k orders (k ≤ MAXO), the O/Km ingredients.
	DistM     float64
	LoadDistM []float64

	// Reassignments counts reshuffle events where an assigned-but-unpicked
	// order moved to a different vehicle.
	Reassignments int

	// Windows.
	Windows          int
	OverflownWindows int
	AssignSecTotal   float64 // wall-clock seconds spent in policy.Assign
	AssignSecMax     float64

	// Per-slot series (index = hour of day).
	SlotXDTSec       [roadnet.SlotsPerDay]float64
	SlotRejectionSec [roadnet.SlotsPerDay]float64 // Ω attributed to the placement slot
	SlotWaitSec      [roadnet.SlotsPerDay]float64
	SlotDistM        [roadnet.SlotsPerDay]float64
	SlotLoadDistM    [roadnet.SlotsPerDay]float64 // Σ k·distance for O/Km per slot
	SlotDelivered    [roadnet.SlotsPerDay]int
	SlotOrders       [roadnet.SlotsPerDay]int
	SlotWindows      [roadnet.SlotsPerDay]int
	SlotOverflown    [roadnet.SlotsPerDay]int
	SlotAssignSecSum [roadnet.SlotsPerDay]float64
}

// NewMetrics allocates a metrics sink for vehicles carrying up to maxO
// orders.
func NewMetrics(maxO int) *Metrics {
	return &Metrics{LoadDistM: make([]float64, maxO+1)}
}

// XDTHours returns total extra delivery time in hours (the Fig. 6(c) unit).
func (m *Metrics) XDTHours() float64 { return m.XDTSec / 3600 }

// ObjectiveHours returns the Problem 1 objective (XDT + Ω per rejection) in
// hours.
func (m *Metrics) ObjectiveHours() float64 {
	return (m.XDTSec + m.RejectionPenaltySec) / 3600
}

// WaitHours returns total restaurant waiting time in hours (Fig. 6(e)).
func (m *Metrics) WaitHours() float64 { return m.WaitSec / 3600 }

// OrdersPerKm returns Σ k·D_k / Σ D_k (Section V-B's O/Km definition).
func (m *Metrics) OrdersPerKm() float64 {
	num, den := 0.0, 0.0
	for k, d := range m.LoadDistM {
		num += float64(k) * d
		den += d
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// SLAViolationRate returns the fraction of delivered orders that breached
// the SimOptions.SLASec threshold.
func (m *Metrics) SLAViolationRate() float64 {
	if m.Delivered == 0 {
		return 0
	}
	return float64(m.SLAViolations) / float64(m.Delivered)
}

// RejectionRate returns the fraction of orders rejected.
func (m *Metrics) RejectionRate() float64 {
	if m.TotalOrders == 0 {
		return 0
	}
	return float64(m.Rejected) / float64(m.TotalOrders)
}

// MeanDeliveryMin returns the average realised delivery time in minutes.
func (m *Metrics) MeanDeliveryMin() float64 {
	if m.Delivered == 0 {
		return 0
	}
	return m.DeliverySec / float64(m.Delivered) / 60
}

// MeanXDTMin returns the average per-order XDT in minutes.
func (m *Metrics) MeanXDTMin() float64 {
	if m.Delivered == 0 {
		return 0
	}
	return m.XDTSec / float64(m.Delivered) / 60
}

// OverflowRate returns the fraction of windows whose assignment exceeded the
// compute budget (Fig. 6(f)).
func (m *Metrics) OverflowRate() float64 {
	if m.Windows == 0 {
		return 0
	}
	return float64(m.OverflownWindows) / float64(m.Windows)
}

// PeakOverflowRate restricts OverflowRate to the lunch (12–15) and dinner
// (19–22) slots (Fig. 6(g)).
func (m *Metrics) PeakOverflowRate() float64 {
	wins, over := 0, 0
	for s := 0; s < roadnet.SlotsPerDay; s++ {
		if isPeakSlot(s) {
			wins += m.SlotWindows[s]
			over += m.SlotOverflown[s]
		}
	}
	if wins == 0 {
		return 0
	}
	return float64(over) / float64(wins)
}

// MeanAssignSec returns the average wall-clock seconds per window spent in
// the assignment policy (Fig. 6(h)).
func (m *Metrics) MeanAssignSec() float64 {
	if m.Windows == 0 {
		return 0
	}
	return m.AssignSecTotal / float64(m.Windows)
}

// SlotObjectiveSec returns the per-slot Problem 1 objective: delivered XDT
// plus Ω per rejection, attributed to the placement slot (Fig. 6(i)).
func (m *Metrics) SlotObjectiveSec(slot int) float64 {
	return m.SlotXDTSec[slot] + m.SlotRejectionSec[slot]
}

// SlotOrdersPerKm returns the per-slot O/Km series (Fig. 6(j) ingredient).
func (m *Metrics) SlotOrdersPerKm(slot int) float64 {
	if m.SlotDistM[slot] == 0 {
		return 0
	}
	return m.SlotLoadDistM[slot] / m.SlotDistM[slot]
}

// isPeakSlot marks the lunch and dinner hours the paper calls peak.
func isPeakSlot(s int) bool {
	return (s >= 12 && s <= 14) || (s >= 19 && s <= 21)
}

// Improvement computes the paper's Eq. 9 improvement of `ours` over `base`
// for a lower-is-better metric, in percent.
func Improvement(base, ours float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - ours) / base * 100
}

// ImprovementHigherBetter is Eq. 9 with the numerator flipped, for
// higher-is-better metrics such as O/Km.
func ImprovementHigherBetter(base, ours float64) float64 {
	if base == 0 {
		return 0
	}
	return (ours - base) / base * 100
}

// Summary renders a one-line digest for logs.
func (m *Metrics) Summary() string {
	return fmt.Sprintf(
		"orders=%d delivered=%d rejected=%d xdt=%.1fh wt=%.1fh o/km=%.3f overflow=%.0f%% assign=%.0fms/window",
		m.TotalOrders, m.Delivered, m.Rejected, m.XDTHours(), m.WaitHours(),
		m.OrdersPerKm(), 100*m.OverflowRate(), 1000*m.MeanAssignSec())
}

// Validate performs internal consistency checks (used by integration tests).
func (m *Metrics) Validate() error {
	if m.Delivered+m.Rejected+m.Stranded > m.TotalOrders {
		return fmt.Errorf("metrics: delivered %d + rejected %d + stranded %d exceeds total %d",
			m.Delivered, m.Rejected, m.Stranded, m.TotalOrders)
	}
	sum := 0.0
	for _, d := range m.LoadDistM {
		sum += d
	}
	if math.Abs(sum-m.DistM) > 1e-3 {
		return fmt.Errorf("metrics: Σ LoadDistM %.3f != DistM %.3f", sum, m.DistM)
	}
	if m.OverflownWindows > m.Windows {
		return fmt.Errorf("metrics: overflown %d > windows %d", m.OverflownWindows, m.Windows)
	}
	return nil
}
