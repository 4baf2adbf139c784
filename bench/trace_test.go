package main

import (
	"math"
	"testing"

	foodmatch "repro"
	"repro/internal/roadnet"
)

func TestSelfTimeArithmetic(t *testing.T) {
	// step [0,100] has two assign children that overlap ([10,50] and
	// [30,70]: parallel shards) — covered 60, self 40. The first assign has
	// stage children [10,20] and [20,45] — self 5; the second has none.
	spans := []span{
		{ID: 0, Parent: -1, Name: spanStep, Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: spanAssign, Start: 10, End: 50},
		{ID: 2, Parent: 0, Name: spanAssign, Start: 30, End: 70},
		{ID: 3, Parent: 1, Name: spanBatching, Start: 10, End: 20},
		{ID: 4, Parent: 1, Name: spanFoodgraph, Start: 20, End: 45},
	}
	self := selfTimes(spans)
	want := map[int32]int64{0: 40, 1: 5, 2: 40, 3: 10, 4: 25}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	// A child reaching past its parent is clipped to the parent's interval.
	if got := unionLen([][2]int64{{-5, 10}, {90, 120}}, 0, 100); got != 20 {
		t.Errorf("clipped union = %d, want 20", got)
	}
	// With one shard the shares add up to the whole step.
	tr := &tracer{spans: []span{spans[0], spans[1], spans[3], spans[4]}}
	if sum := tr.sharesSum(); math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum = %v, want 100", sum)
	}
}

func TestWrappedRoutersReturnInnerValuesBitForBit(t *testing.T) {
	city, err := foodmatch.LoadCity("CityB", 0.01, citySeed)
	if err != nil {
		t.Fatal(err)
	}
	g := city.G
	inner := roadnet.NewDijkstraRouter(g)
	// A tiny bound makes most bounded answers +Inf: those must pass through
	// (and be counted) too.
	bounded := roadnet.NewBoundedRouter(g, 120)
	at := 19.5 * 3600
	n := roadnet.NodeID(g.NumNodes())
	var targets []roadnet.NodeID
	for v := roadnet.NodeID(0); v < n; v += 7 {
		targets = append(targets, v)
	}
	for _, tc := range []struct {
		name  string
		inner roadnet.Router
	}{{"dijkstra", inner}, {"bounded", bounded}} {
		counting := &countingRouter{inner: tc.inner}
		meter := &meterRouter{inner: tc.inner}
		var infs int64
		for u := roadnet.NodeID(0); u < n; u += 13 {
			want := roadnet.TravelMany(tc.inner, u, targets, at)
			for _, wrapped := range []roadnet.Router{counting, meter} {
				got := roadnet.TravelMany(wrapped, u, targets, at)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s %T TravelMany(%d→%d) = %v, inner %v", tc.name, wrapped, u, targets[i], got[i], want[i])
					}
				}
			}
			for i, v := range targets[:8] {
				for _, wrapped := range []roadnet.Router{counting, meter} {
					if got := wrapped.Travel(u, v, at); math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Fatalf("%s %T Travel(%d→%d) = %v, inner %v", tc.name, wrapped, u, v, got, want[i])
					}
				}
				if math.IsInf(want[i], 1) {
					infs++
				}
			}
			for _, d := range want {
				if math.IsInf(d, 1) {
					infs++
				}
			}
		}
		if counting.travel != meter.travelCalls || counting.many != meter.manyCalls || counting.targets != meter.manyTargets {
			t.Errorf("%s: counters disagree: counting %+v, meter %+v", tc.name, counting, meter)
		}
		if counting.queries() != counting.travel+counting.targets {
			t.Errorf("%s: queries() = %d", tc.name, counting.queries())
		}
		if meter.infs != infs {
			t.Errorf("%s: meter counted %d +Inf answers, want %d", tc.name, meter.infs, infs)
		}
		if meter.sampledCalls != meter.travelCalls/meterStride {
			t.Errorf("%s: sampled %d of %d point queries", tc.name, meter.sampledCalls, meter.travelCalls)
		}
	}
}
