package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	foodmatch "repro"
)

// testHarness builds one engine+server pair for the validation and fuzz
// tests (city generation dominates otherwise).
type testHarness struct {
	city    *foodmatch.City
	fleet   []*foodmatch.Vehicle
	eng     *foodmatch.Engine
	learner *foodmatch.StreamLearner
	srv     *Server
}

var harnessOnce sync.Once
var harness *testHarness

func getHarness(t testing.TB) *testHarness {
	harnessOnce.Do(func() {
		city, err := foodmatch.LoadCity("CityA", foodmatch.DefaultScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := foodmatch.ExperimentConfig("CityA", foodmatch.DefaultScale)
		fleet := city.Fleet(0.5, cfg.MaxO, 1)
		learner := foodmatch.NewStreamLearner(city.G, foodmatch.StreamLearnerOptions{ChunkSize: 4})
		eng, err := foodmatch.NewEngine(city.G, fleet, foodmatch.EngineConfig{
			Pipeline: cfg,
			Shards:   2,
			Learner:  learner,
		})
		if err != nil {
			t.Fatal(err)
		}
		harness = &testHarness{
			city: city, fleet: fleet, eng: eng, learner: learner,
			srv: NewServer(eng, city, ServerOptions{Learner: learner, Scenario: "rain:1.3"}),
		}
	})
	return harness
}

func do(t testing.TB, h *testHarness, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rr := httptest.NewRecorder()
	h.srv.ServeHTTP(rr, req)
	return rr
}

// TestOrderValidation pins the satellite fix: NaN/Inf and out-of-bounds
// payloads get 400 instead of poisoning the learner and FoodGraph.
func TestOrderValidation(t *testing.T) {
	h := getHarness(t)
	bad := []string{
		`{"restaurant_node":1,"customer_node":2,"prep_sec":NaN}`,   // invalid JSON too
		`{"restaurant_node":1,"customer_node":2,"prep_sec":1e999}`, // overflows to +Inf... rejected by decoder
		`{"restaurant":{"lat":91,"lon":77},"customer_node":2}`,     // lat out of range
		`{"restaurant":{"lat":12.9,"lon":181},"customer_node":2}`,  // lon out of range
		`{"restaurant_node":1,"customer_node":2,"placed_at":9e99}`, // beyond horizon
		`{"restaurant_node":1,"customer_node":2,"prep_sec":1e9}`,   // prep ceiling
		`{"restaurant_node":1,"customer_node":2,"items":-3}`,       // negative items
		`{"restaurant_node":1,"customer_node":2,"items":5000}`,     // absurd items
		`{"restaurant_node":-1,"customer_node":2}`,                 // node id
		`{"restaurant_node":99999999999,"customer_node":2}`,        // node id overflow
		`{"customer_node":2}`, // missing restaurant
	}
	for _, body := range bad {
		if rr := do(t, h, "POST", "/orders", body); rr.Code != http.StatusBadRequest {
			t.Errorf("POST /orders %s -> %d, want 400", body, rr.Code)
		}
	}
	ok := fmt.Sprintf(`{"restaurant_node":%d,"customer_node":2,"items":2,"prep_sec":480}`,
		h.city.Restaurants[0])
	if rr := do(t, h, "POST", "/orders", ok); rr.Code != http.StatusAccepted {
		t.Fatalf("valid order -> %d: %s", rr.Code, rr.Body)
	}
}

func TestPingValidation(t *testing.T) {
	h := getHarness(t)
	vid := h.fleet[0].ID
	path := fmt.Sprintf("/vehicles/%d/ping", vid)
	bad := []string{
		`{"at":{"lat":1e999,"lon":77.5}}`, // decoder rejects overflow
		`{"at":{"lat":-95,"lon":77.5}}`,   // out of envelope
		`{"at":{"lat":12.9,"lon":-200}}`,  // out of envelope
		`{"active_from":1e999}`,           // decoder rejects overflow
		`{not json`,                       // malformed
	}
	for _, body := range bad {
		if rr := do(t, h, "POST", path, body); rr.Code != http.StatusBadRequest {
			t.Errorf("POST %s %s -> %d, want 400", path, body, rr.Code)
		}
	}
	pt := h.city.G.Point(3)
	good := fmt.Sprintf(`{"at":{"lat":%f,"lon":%f}}`, pt.Lat, pt.Lon)
	before := h.learner.Stats().Pings
	if rr := do(t, h, "POST", path, good); rr.Code != http.StatusAccepted {
		t.Fatalf("valid coordinate ping -> %d: %s", rr.Code, rr.Body)
	}
	if after := h.learner.Stats().Pings; after != before+1 {
		t.Fatalf("raw ping did not reach the learner (%d -> %d)", before, after)
	}
	// Shift update with explicit values works; omitted fields stay.
	if rr := do(t, h, "POST", path, `{"active_from":64800,"active_to":79200}`); rr.Code != http.StatusAccepted {
		t.Fatalf("shift update -> %d", rr.Code)
	}
}

func TestRoadnetEndpoint(t *testing.T) {
	h := getHarness(t)
	rr := do(t, h, "GET", "/roadnet", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /roadnet -> %d", rr.Code)
	}
	var resp roadnetResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad /roadnet payload %s: %v", rr.Body, err)
	}
	if !resp.Dynamic {
		t.Fatal("/roadnet reports static despite an attached learner")
	}
	if resp.Scenario != "rain:1.3" {
		t.Fatalf("/roadnet scenario %q", resp.Scenario)
	}
	if resp.Learner == nil {
		t.Fatal("/roadnet carries no learner stats")
	}
	if resp.Slot < 0 || resp.Slot >= 24 {
		t.Fatalf("/roadnet slot %d", resp.Slot)
	}
}
