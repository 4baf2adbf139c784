package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestOpenLoopTimesFromDueTimeAndReportsLateness(t *testing.T) {
	// The stub acknowledges at once, except the first request, which it holds
	// for 200 ms. With one connection everything due in that window queues
	// behind it: an open loop charges them the wait and reports it as
	// generator lateness; a closed loop would have hidden both.
	const stall = 200 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			time.Sleep(stall)
		}
		if r.URL.Path == "/orders" {
			w.WriteHeader(http.StatusAccepted)
			_, _ = w.Write([]byte(`{"order":7}`))
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	schedule := []request{
		{due: 300 * time.Millisecond, path: "/orders"}, // after the stall: on time
		{due: 0, path: "/orders"},                      // stalled
		{due: 50 * time.Millisecond, path: "/orders"},  // queued behind the stall
		{due: 100 * time.Millisecond, path: "/vehicles/1/ping", ping: true},
	}
	acks := openLoop(srv.URL, schedule, 1)
	if len(acks) != 4 {
		t.Fatalf("%d acks, want 4", len(acks))
	}
	// acks are in due order.
	stalled, queued, ping, onTime := acks[0], acks[1], acks[2], acks[3]
	if stalled.latency < stall || stalled.late > 50*time.Millisecond {
		t.Errorf("stalled request: latency %v late %v", stalled.latency, stalled.late)
	}
	if queued.late < stall-60*time.Millisecond || queued.latency < queued.late {
		t.Errorf("queued request must carry the stall: late %v latency %v", queued.late, queued.latency)
	}
	if !ping.ping || ping.status != http.StatusServiceUnavailable || ping.late < stall-110*time.Millisecond {
		t.Errorf("ping: %+v", ping)
	}
	if onTime.late > 50*time.Millisecond || onTime.latency > 100*time.Millisecond {
		t.Errorf("on-time request: late %v latency %v", onTime.late, onTime.latency)
	}
	if onTime.status != http.StatusAccepted || onTime.orderID != 7 {
		t.Errorf("order ack not decoded: %+v", onTime)
	}
}

func TestIngestScheduleRatesAndPhases(t *testing.T) {
	d, err := generateDay(daemonCity, quickScale, 3, daemonStartHour*3600, daemonStartHour*3600+1200)
	if err != nil {
		t.Fatal(err)
	}
	const length = 4 * time.Second
	sched := ingestSchedule(d, daemonStartHour*3600, daemonTimescale, length, daemonPingSim)
	orders, pings := 0, 0
	perVehicle := map[string]int{}
	for _, rq := range sched {
		if rq.due < 0 || rq.due >= length {
			t.Fatalf("request due at %v outside the load", rq.due)
		}
		if rq.ping {
			pings++
			perVehicle[rq.path]++
		} else {
			orders++
		}
	}
	// 120 simulated seconds at 120x is one ping per vehicle per second.
	if want := 4 * len(d.fleet); pings != want {
		t.Errorf("%d pings, want %d", pings, want)
	}
	for path, n := range perVehicle {
		if n != 4 {
			t.Errorf("%s pinged %d times, want 4", path, n)
		}
	}
	want := 0
	for _, o := range d.orders {
		if o.PlacedAt < daemonStartHour*3600+4*daemonTimescale {
			want++
		}
	}
	if orders != want {
		t.Errorf("%d orders scheduled, want %d", orders, want)
	}
}
