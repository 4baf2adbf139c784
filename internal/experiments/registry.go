package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Generator produces one or more tables for an experiment id.
type Generator func(Setup) ([]*Table, error)

// wrap1 lifts a single-table driver.
func wrap1(f func(Setup) (*Table, error)) Generator {
	return func(st Setup) ([]*Table, error) {
		t, err := f(st)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
}

// registry maps experiment group ids to their drivers. Groups correspond to
// the paper's figures; multi-panel figures regenerate together because they
// share simulation runs.
var registry = map[string]Generator{
	"T2":     wrap1(Table2),
	"F4a":    wrap1(Fig4a),
	"F6a":    wrap1(Fig6a),
	"F6b":    wrap1(Fig6b),
	"F6cde":  Fig6cde,
	"F6fgh":  Fig6fgh,
	"F6ijk":  Fig6ijk,
	"F7a":    wrap1(Fig7a),
	"F7bcde": Fig7bcde,
	"F8ac":   Fig8ac,
	"F8dg":   Fig8dg,
	"F8hk":   Fig8hk,
	"F9ac":   Fig9ac,
	"F9d":    wrap1(Fig9d),
	// Beyond-paper ablations (DESIGN.md 2.10-2.11 design choices).
	"X1": wrap1(X1SupplyCalibration),
	"X2": wrap1(X2AgeNeutral),
	"X3": wrap1(X3BatchRadius),
	"X4": wrap1(X4SPEngines),
	"X5": wrap1(X5HeuristicPlanner),
	"X6": wrap1(X6TimeDependence),
	"X7": wrap1(X7LearnedWeights),
}

// IDs returns the registered experiment group ids in stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Generate runs one experiment group by id (case-insensitive).
func Generate(id string, st Setup) ([]*Table, error) {
	for key, gen := range registry {
		if strings.EqualFold(key, id) {
			return gen(st)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (available: %s)", id, strings.Join(IDs(), ", "))
}
