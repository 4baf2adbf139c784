// Package workload synthesises the paper's experimental substrate: road
// networks of Indian metropolitan cities, restaurant and customer
// geographies, per-restaurant Gaussian preparation times and the daily
// order stream with its lunch/dinner peaks (Table II, Fig. 6(a)).
//
// The real Swiggy logs and OpenStreetMap extracts are not redistributable,
// so every dataset is generated deterministically from a seed; the presets
// scale Table II's node/vehicle/order counts down to laptop size while
// preserving the ratios that drive the paper's results (order-to-vehicle
// ratio peaks, restaurant density, prep-time averages). See DESIGN.md §2.9
// for the substitution rationale.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/roadnet"
)

// CityParams drives the synthetic city generator.
type CityParams struct {
	Name string
	// Rows × Cols street grid; BlockM metres per block.
	Rows, Cols int
	BlockM     float64
	// ArterialEvery inserts a faster arterial every k-th row/column.
	ArterialEvery int
	// LocalSpeedMS / ArterialSpeedMS are free-flow speeds.
	LocalSpeedMS, ArterialSpeedMS float64
	// DiagonalFrac adds this fraction of extra one-way diagonal shortcuts.
	DiagonalFrac float64
	// Hotspots is the number of restaurant clusters.
	Hotspots int
	// Restaurants / Vehicles / OrdersPerDay set the city's scale.
	Restaurants  int
	Vehicles     int
	OrdersPerDay int
	// PrepMeanMin is the city-wide average food preparation time (minutes),
	// matching Table II's "Food prep. time (avg/min)".
	PrepMeanMin float64
	// Hourly is the relative order-rate profile over 24 slots (normalised
	// internally); zero value uses DefaultHourlyProfile.
	Hourly [24]float64
	// CustomerSpreadM is the Gaussian radius customers are drawn around
	// restaurants.
	CustomerSpreadM float64
	// TargetPeakRatio is the peak-hour order-to-vehicle ratio of Fig. 6(a)
	// that the shift plan aims for (City B ≈ 2.9); 0 defaults to 1.5.
	TargetPeakRatio float64
	// Seed makes the city reproducible.
	Seed int64
}

// City is a generated city: road network, restaurants with popularity and
// prep-time models, and a spatial index for coordinate snapping.
type City struct {
	Params      CityParams
	G           *roadnet.Graph
	Restaurants []roadnet.NodeID
	// Popularity are unnormalised Zipf-like sampling weights per restaurant.
	Popularity []float64
	popCum     []float64
	// PrepMeanSec / PrepStdSec are per-restaurant, per-slot Gaussian
	// parameters (Section V-A's N(μ_R,T, σ_R,T)).
	PrepMeanSec [][roadnet.SlotsPerDay]float64
	PrepStdSec  [][roadnet.SlotsPerDay]float64
	// Hourly is the normalised order-rate profile.
	Hourly [24]float64

	grid *nodeGrid
}

// DefaultHourlyProfile is shaped after Fig. 6(a): quiet overnight, a small
// breakfast bump, a pronounced lunch peak (12:00–14:59) and the day's
// highest dinner peak (19:00–21:59).
func DefaultHourlyProfile() [24]float64 {
	return [24]float64{
		0.4, 0.25, 0.15, 0.1, 0.1, 0.2, // 00–05
		0.5, 0.9, 1.3, 1.6, 1.8, 2.6, // 06–11
		4.4, 4.8, 3.4, 2.0, 1.7, 1.9, // 12–17
		2.6, 4.6, 5.4, 4.4, 2.6, 1.1, // 18–23
	}
}

// Generate builds the deterministic city for the parameters.
func Generate(p CityParams) (*City, error) {
	if p.Rows < 2 || p.Cols < 2 {
		return nil, fmt.Errorf("workload: grid %dx%d too small", p.Rows, p.Cols)
	}
	if p.Restaurants < 1 || p.Vehicles < 1 {
		return nil, fmt.Errorf("workload: need at least one restaurant and vehicle")
	}
	if p.BlockM <= 0 {
		p.BlockM = 220
	}
	if p.ArterialEvery <= 0 {
		p.ArterialEvery = 5
	}
	if p.LocalSpeedMS <= 0 {
		p.LocalSpeedMS = 7.5
	}
	if p.ArterialSpeedMS <= 0 {
		p.ArterialSpeedMS = 12.0
	}
	if p.Hotspots <= 0 {
		p.Hotspots = 1 + p.Restaurants/40
	}
	if p.CustomerSpreadM <= 0 {
		p.CustomerSpreadM = 2200
	}
	zero := [24]float64{}
	if p.Hourly == zero {
		p.Hourly = DefaultHourlyProfile()
	}

	rng := rand.New(rand.NewSource(p.Seed))
	c := &City{Params: p}

	if err := c.buildGraph(rng); err != nil {
		return nil, err
	}
	c.placeRestaurants(rng)
	c.buildPrepModels(rng)

	total := 0.0
	for _, h := range p.Hourly {
		total += h
	}
	for i, h := range p.Hourly {
		c.Hourly[i] = h / total
	}
	c.grid = newNodeGrid(c.G, p.BlockM)
	return c, nil
}

// buildGraph lays out the perturbed grid with arterials, one-way diagonal
// shortcuts and congestion zones.
func (c *City) buildGraph(rng *rand.Rand) error {
	p := c.Params
	b := roadnet.NewBuilder()
	origin := geo.Point{Lat: 12.90, Lon: 77.50}

	// Congestion zones: centre vs periphery × local vs arterial. Peak-hour
	// multipliers are strongest for central locals, mirroring metropolitan
	// congestion patterns.
	centreLocal := b.AddZone(congestionRow(1.9, 1.6))
	centreArterial := b.AddZone(congestionRow(1.6, 1.45))
	periphLocal := b.AddZone(congestionRow(1.45, 1.25))
	periphArterial := b.AddZone(congestionRow(1.3, 1.15))

	id := func(r, col int) roadnet.NodeID { return roadnet.NodeID(r*p.Cols + col) }
	pts := make([]geo.Point, p.Rows*p.Cols)
	for r := 0; r < p.Rows; r++ {
		for col := 0; col < p.Cols; col++ {
			jitterN := (rng.Float64() - 0.5) * 0.3 * p.BlockM
			jitterE := (rng.Float64() - 0.5) * 0.3 * p.BlockM
			pt := geo.Offset(origin, float64(r)*p.BlockM+jitterN, float64(col)*p.BlockM+jitterE)
			pts[int(id(r, col))] = pt
			b.AddNode(pt)
		}
	}

	central := func(r, col int) bool {
		return r > p.Rows/4 && r < 3*p.Rows/4 && col > p.Cols/4 && col < 3*p.Cols/4
	}
	addRoad := func(u, v roadnet.NodeID, arterial bool, r, col int) {
		lenM := geo.Haversine(pts[u], pts[v])
		speed := p.LocalSpeedMS
		zone := periphLocal
		if arterial {
			speed = p.ArterialSpeedMS
			zone = periphArterial
		}
		if central(r, col) {
			if arterial {
				zone = centreArterial
			} else {
				zone = centreLocal
			}
		}
		baseSec := lenM / speed
		if baseSec < 1 {
			baseSec = 1
		}
		b.AddEdge(u, v, lenM, baseSec, zone)
		b.AddEdge(v, u, lenM, baseSec, zone)
	}

	for r := 0; r < p.Rows; r++ {
		for col := 0; col < p.Cols; col++ {
			if col+1 < p.Cols {
				addRoad(id(r, col), id(r, col+1), r%p.ArterialEvery == 0, r, col)
			}
			if r+1 < p.Rows {
				addRoad(id(r, col), id(r+1, col), col%p.ArterialEvery == 0, r, col)
			}
		}
	}

	// One-way diagonal shortcuts (extra connectivity, directed asymmetry).
	nDiag := int(p.DiagonalFrac * float64(p.Rows*p.Cols))
	for i := 0; i < nDiag; i++ {
		r := rng.Intn(p.Rows - 1)
		col := rng.Intn(p.Cols - 1)
		u, v := id(r, col), id(r+1, col+1)
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		lenM := geo.Haversine(pts[u], pts[v])
		b.AddEdge(u, v, lenM, lenM/p.LocalSpeedMS, periphLocal)
	}

	g, err := b.Build()
	if err != nil {
		return err
	}
	if !roadnet.StronglyConnected(g) {
		return fmt.Errorf("workload: generated graph not strongly connected")
	}
	c.G = g
	return nil
}

// congestionRow builds a slot-multiplier row with the given lunch and
// evening peak factors over a 1.0 free-flow baseline.
func congestionRow(peakLunch, morning float64) [roadnet.SlotsPerDay]float64 {
	var row [roadnet.SlotsPerDay]float64
	for s := range row {
		switch {
		case s >= 8 && s <= 10: // morning commute
			row[s] = morning
		case s >= 12 && s <= 14: // lunch
			row[s] = peakLunch
		case s >= 17 && s <= 21: // evening commute + dinner
			row[s] = peakLunch*0.5 + morning*0.5 + 0.2
		case s >= 23 || s <= 5: // night
			row[s] = 0.85
		default:
			row[s] = 1.0
		}
	}
	return row
}

// placeRestaurants samples restaurant nodes clustered around hotspots with
// Zipf-like popularity weights.
func (c *City) placeRestaurants(rng *rand.Rand) {
	p := c.Params
	n := c.G.NumNodes()
	hot := make([]roadnet.NodeID, p.Hotspots)
	for i := range hot {
		hot[i] = roadnet.NodeID(rng.Intn(n))
	}
	seen := make(map[roadnet.NodeID]bool)
	for len(c.Restaurants) < p.Restaurants {
		h := hot[rng.Intn(len(hot))]
		pt := c.G.Point(h)
		cand := geo.Offset(pt, rng.NormFloat64()*1200, rng.NormFloat64()*1200)
		node := c.nearest(cand)
		if seen[node] {
			// Dense cities run out of distinct nodes; allow duplicates once
			// saturated.
			if len(seen) >= n || rng.Float64() < 0.3 {
				c.Restaurants = append(c.Restaurants, node)
			}
			continue
		}
		seen[node] = true
		c.Restaurants = append(c.Restaurants, node)
	}
	// Zipf-like popularity: weight_i ∝ 1 / rank^0.8.
	c.Popularity = make([]float64, p.Restaurants)
	for i := range c.Popularity {
		c.Popularity[i] = 1.0 / math.Pow(float64(i+1), 0.8)
	}
	rng.Shuffle(len(c.Popularity), func(i, j int) {
		c.Popularity[i], c.Popularity[j] = c.Popularity[j], c.Popularity[i]
	})
	c.popCum = make([]float64, len(c.Popularity))
	sum := 0.0
	for i, w := range c.Popularity {
		sum += w
		c.popCum[i] = sum
	}
}

// buildPrepModels draws the per-restaurant, per-slot Gaussian prep-time
// parameters around the city average.
func (c *City) buildPrepModels(rng *rand.Rand) {
	p := c.Params
	base := p.PrepMeanMin * 60
	c.PrepMeanSec = make([][roadnet.SlotsPerDay]float64, len(c.Restaurants))
	c.PrepStdSec = make([][roadnet.SlotsPerDay]float64, len(c.Restaurants))
	for i := range c.Restaurants {
		// Restaurant-level speed factor: some kitchens are simply slower.
		rf := math.Exp(rng.NormFloat64() * 0.25)
		for s := 0; s < roadnet.SlotsPerDay; s++ {
			busy := 1.0
			if s >= 12 && s <= 14 || s >= 19 && s <= 21 {
				busy = 1.25 // kitchens slow down at peak
			}
			mean := base * rf * busy
			c.PrepMeanSec[i][s] = mean
			c.PrepStdSec[i][s] = 0.3 * mean
		}
	}
}

// nearest snaps a coordinate to the closest road node via the spatial grid
// (falls back to linear scan before the grid exists, during generation).
func (c *City) nearest(pt geo.Point) roadnet.NodeID {
	if c.grid != nil {
		return c.grid.nearest(pt)
	}
	return c.G.NearestNode(pt)
}

// NearestNode snaps an arbitrary coordinate to the road network.
func (c *City) NearestNode(pt geo.Point) roadnet.NodeID { return c.nearest(pt) }

// sampleRestaurant draws a restaurant index by popularity.
func (c *City) sampleRestaurant(rng *rand.Rand) int {
	total := c.popCum[len(c.popCum)-1]
	x := rng.Float64() * total
	lo, hi := 0, len(c.popCum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.popCum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Fleet creates the city's vehicle fleet with rider shifts.
//
// Table II's vehicle counts are distinct riders over the whole day, not
// concurrent riders: Fig. 6(a)'s order-to-vehicle ratios only reach ~3 at
// peak because supply is a fraction of the roster at any instant. Fleet
// therefore synthesises a shift plan whose concurrent-active curve tracks
// the demand profile scaled to the city's TargetPeakRatio: the number of
// active vehicles in slot s is (expected orders in s) / ratio(s), riders
// starting and ending contiguous shifts as the target rises and falls.
//
// frac ∈ (0,1] subsamples the roster uniformly (Fig. 7's fleet sweeps),
// preserving the shift-shape. Vehicles park at deterministic random nodes —
// the paper seats riders at their first GPS ping.
func (c *City) Fleet(frac float64, maxO int, seed int64) []*model.Vehicle {
	if frac <= 0 {
		frac = 1
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	roster := c.Params.Vehicles

	// Target concurrent-active per slot.
	peakRatio := c.Params.TargetPeakRatio
	if peakRatio <= 0 {
		peakRatio = 1.5
	}
	maxH := 0.0
	for _, h := range c.Hourly {
		if h > maxH {
			maxH = h
		}
	}
	active := make([]int, 24)
	for s := 0; s < 24; s++ {
		ratio := peakRatio * c.Hourly[s] / maxH
		if ratio < 0.25 {
			ratio = 0.25
		}
		want := int(math.Ceil(c.Hourly[s] * float64(c.Params.OrdersPerDay) / ratio))
		if want < 1 {
			want = 1
		}
		if want > roster {
			want = roster
		}
		active[s] = want
	}

	// Synthesise contiguous shifts: activate new riders when the target
	// rises, retire the earliest-started when it falls, and rotate shifts
	// longer than maxShift while the roster allows — real fleets achieve
	// their distinct-rider counts through turnover, not marathon shifts.
	const maxShiftSec = 4.5 * 3600
	fleet := make([]*model.Vehicle, 0, roster)
	var live []int // indices into fleet, in activation order
	activate := func(s int) bool {
		if len(fleet) >= roster {
			return false
		}
		node := roadnet.NodeID(rng.Intn(c.G.NumNodes()))
		v := model.NewVehicle(model.VehicleID(len(fleet)+1), node, maxO)
		v.ActiveFrom = float64(s)*3600 - rng.Float64()*900
		if v.ActiveFrom < 0 {
			v.ActiveFrom = 0
		}
		v.ActiveTo = roadnet.SecondsPerDay + 3600
		fleet = append(fleet, v)
		live = append(live, len(fleet)-1)
		return true
	}
	retire := func(s int) {
		v := fleet[live[0]]
		v.ActiveTo = float64(s)*3600 + rng.Float64()*900
		live = live[1:]
	}
	for s := 0; s < 24; s++ {
		for len(live) > active[s] {
			retire(s)
		}
		// Rotate over-long shifts while replacements exist.
		for len(live) > 0 && len(fleet) < roster &&
			float64(s)*3600-fleet[live[0]].ActiveFrom > maxShiftSec {
			retire(s)
			activate(s)
		}
		for len(live) < active[s] {
			if !activate(s) {
				break // roster exhausted: demand goes unmet, scarcity rises
			}
		}
	}
	// Riders never retired work to end of day (already set).

	// Uniform subsample for fleet-size sweeps.
	if frac < 1 {
		n := int(math.Round(frac * float64(len(fleet))))
		if n < 1 {
			n = 1
		}
		rng.Shuffle(len(fleet), func(i, j int) { fleet[i], fleet[j] = fleet[j], fleet[i] })
		fleet = fleet[:n]
		for i, v := range fleet {
			v.ID = model.VehicleID(i + 1)
		}
	}
	return fleet
}

// ActiveAt counts fleet vehicles on shift at time t.
func ActiveAt(fleet []*model.Vehicle, t float64) int {
	n := 0
	for _, v := range fleet {
		if v.Active(t) {
			n++
		}
	}
	return n
}

// nodeGrid is a uniform spatial hash over node coordinates.
type nodeGrid struct {
	g          *roadnet.Graph
	minLat     float64
	minLon     float64
	cellLat    float64
	cellLon    float64
	rows, cols int
	cells      [][]roadnet.NodeID
}

func newNodeGrid(g *roadnet.Graph, blockM float64) *nodeGrid {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	minLat, minLon := math.Inf(1), math.Inf(1)
	maxLat, maxLon := math.Inf(-1), math.Inf(-1)
	for i := 0; i < n; i++ {
		pt := g.Point(roadnet.NodeID(i))
		minLat = math.Min(minLat, pt.Lat)
		maxLat = math.Max(maxLat, pt.Lat)
		minLon = math.Min(minLon, pt.Lon)
		maxLon = math.Max(maxLon, pt.Lon)
	}
	// Aim for ~2 blocks per cell.
	cellDeg := 2 * blockM / 111_000
	rows := int((maxLat-minLat)/cellDeg) + 1
	cols := int((maxLon-minLon)/cellDeg) + 1
	gr := &nodeGrid{
		g: g, minLat: minLat, minLon: minLon,
		cellLat: cellDeg, cellLon: cellDeg,
		rows: rows, cols: cols,
		cells: make([][]roadnet.NodeID, rows*cols),
	}
	for i := 0; i < n; i++ {
		pt := g.Point(roadnet.NodeID(i))
		ci := gr.cellIdx(pt)
		gr.cells[ci] = append(gr.cells[ci], roadnet.NodeID(i))
	}
	return gr
}

func (gr *nodeGrid) cellIdx(pt geo.Point) int {
	r := int((pt.Lat - gr.minLat) / gr.cellLat)
	c := int((pt.Lon - gr.minLon) / gr.cellLon)
	if r < 0 {
		r = 0
	}
	if r >= gr.rows {
		r = gr.rows - 1
	}
	if c < 0 {
		c = 0
	}
	if c >= gr.cols {
		c = gr.cols - 1
	}
	return r*gr.cols + c
}

// nearest searches outward ring by ring until a node is found.
func (gr *nodeGrid) nearest(pt geo.Point) roadnet.NodeID {
	r0 := int((pt.Lat - gr.minLat) / gr.cellLat)
	c0 := int((pt.Lon - gr.minLon) / gr.cellLon)
	best := roadnet.Invalid
	bestD := math.Inf(1)
	for ring := 0; ring < gr.rows+gr.cols; ring++ {
		found := false
		for r := r0 - ring; r <= r0+ring; r++ {
			if r < 0 || r >= gr.rows {
				continue
			}
			for c := c0 - ring; c <= c0+ring; c++ {
				if c < 0 || c >= gr.cols {
					continue
				}
				// Only the ring boundary.
				if ring > 0 && r != r0-ring && r != r0+ring && c != c0-ring && c != c0+ring {
					continue
				}
				for _, node := range gr.cells[r*gr.cols+c] {
					found = true
					if d := geo.Haversine(pt, gr.g.Point(node)); d < bestD {
						bestD = d
						best = node
					}
				}
			}
		}
		// One extra ring after the first hit guarantees correctness at cell
		// boundaries.
		if found && ring > 0 {
			break
		}
		if found && ring == 0 {
			continue
		}
	}
	if best == roadnet.Invalid {
		return gr.g.NearestNode(pt)
	}
	return best
}
