package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// request is one scheduled ingest call of the open loop.
type request struct {
	due  time.Duration // offset from the start of the load
	path string
	body []byte
	ping bool
}

// ack is what happened to one request.
type ack struct {
	ping    bool
	status  int           // 0 = transport failure
	late    time.Duration // how long after its due time the send started
	latency time.Duration // due time → response read
	done    time.Time     // when the response arrived
	orderID int64         // order acks only
}

// openLoop sends the schedule against base on its own clock: every request
// goes out at its due time whether or not earlier ones have returned, and is
// timed from that due time, so a stall shows up as latency on everything
// queued behind it. It uses `conns` goroutines, each with one keep-alive
// connection; when they cannot keep up, the lateness it reports says so.
func openLoop(base string, schedule []request, conns int) []ack {
	sort.SliceStable(schedule, func(i, j int) bool { return schedule[i].due < schedule[j].due })
	acks := make([]ack, len(schedule))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One transport per goroutine pins one connection to it.
			client := &http.Client{
				Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
				Timeout:   10 * time.Second,
			}
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(schedule) {
					return
				}
				rq := schedule[i]
				due := start.Add(rq.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				a := ack{ping: rq.ping, late: max(time.Since(due), 0)}
				resp, err := client.Post(base+rq.path, "application/json", bytes.NewReader(rq.body))
				if err == nil {
					a.status = resp.StatusCode
					if !rq.ping && resp.StatusCode == http.StatusAccepted {
						var body struct {
							Order int64 `json:"order"`
						}
						if json.NewDecoder(resp.Body).Decode(&body) == nil {
							a.orderID = body.Order
						}
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				a.done = time.Now()
				a.latency = a.done.Sub(due)
				acks[i] = a
			}
		}()
	}
	wg.Wait()
	return acks
}

// ingestSchedule lays out a daemon-ingest load: the day's orders at their
// placement offsets compressed by timescale, plus one home-node ping per
// vehicle every pingEverySim simulated seconds, vehicles phased evenly across
// the period so the ping rate is flat.
func ingestSchedule(d *day, startSim, timescale float64, length time.Duration, pingEverySim float64) []request {
	var out []request
	for _, o := range d.orders {
		due := time.Duration((o.PlacedAt - startSim) / timescale * float64(time.Second))
		if due < 0 || due >= length {
			continue
		}
		body, _ := json.Marshal(map[string]any{
			"restaurant_node": int64(o.Restaurant),
			"customer_node":   int64(o.Customer),
			"items":           o.Items,
			"prep_sec":        o.Prep,
		})
		out = append(out, request{due: due, path: "/orders", body: body})
	}
	period := time.Duration(pingEverySim / timescale * float64(time.Second))
	for i, v := range d.fleet {
		body, _ := json.Marshal(map[string]any{"node": int64(v.Node)})
		path := fmt.Sprintf("/vehicles/%d/ping", v.ID)
		phase := period * time.Duration(i) / time.Duration(len(d.fleet))
		for due := phase; due < length; due += period {
			out = append(out, request{due: due, path: path, body: body, ping: true})
		}
	}
	return out
}
