package main

import (
	"fmt"

	"haccs/internal/core"
	"haccs/internal/fl"
	"haccs/internal/fleet"
	"haccs/internal/rounds"
	"haccs/internal/stats"
	"haccs/internal/telemetry"
)

// fleet10k-async: the buffered async driver over 10,000 simulated
// clients whose updates are instant, on a 1k-parameter model. Virtual
// latencies are heavy-tailed; the fleet and metrics registries are on,
// as an operator's coordinator runs them. Most clients hold one of ten
// majority-label distributions; a fast cohort of 20 clients moves to a
// new distribution every driftEvery cycles and reports it through
// OnSummary, which empties its old cluster and so triggers a
// re-clustering once per drift epoch.
const (
	fleetClients     = 10000
	fleetDim         = 1000
	fleetClasses     = 10
	fleetConcurrency = 100
	fleetBufferK     = 50
	fleetMaxStale    = 4
	cohortEvery      = 500 // every 500th client belongs to the drifting cohort
	driftEvery       = 100
)

// simClient is one in-process client: a label distribution, which the
// cohort's clients change on schedule, and an update rule cheap enough
// that the driver, not the client, is what gets measured.
type simClient struct {
	id       int
	major    int
	samples  float64
	cohort   bool
	latency  float64
	reported int         // drift epoch of the last summary the server has
	out      [][]float64 // update buffers by selection slot, shared by the fleet
}

// labelCounts is the client's label histogram in drift epoch ep: 75% on
// its majority label and 12/7/6% on the next three (the §V-A split) for
// the bulk of the fleet; for the cohort, a 40/30/30 mix that shifts
// with every epoch.
func (c *simClient) labelCounts(ep int) []float64 {
	out := make([]float64, fleetClasses)
	if c.cohort {
		out[ep%fleetClasses] += 0.4 * c.samples
		out[(ep+3)%fleetClasses] += 0.3 * c.samples
		out[(ep+7)%fleetClasses] += 0.3 * c.samples
		return out
	}
	for k, frac := range []float64{0.75, 0.12, 0.07, 0.06} {
		out[(c.major+k)%fleetClasses] = frac * c.samples
	}
	return out
}

// Train returns its update in the buffer of its selection slot: the
// driver copies an update out before it dispatches the next job.
func (c *simClient) Train(round, worker, slot int, params []float64, _ telemetry.SpanContext) (rounds.Result, error) {
	out := c.out[slot]
	for j, p := range params {
		out[j] = 0.9*p + 0.1*float64((c.id+j)%17)/17
	}
	res := rounds.Result{ClientID: c.id, Params: out, NumSamples: int(c.samples), Loss: 2 / (1 + 0.01*float64(round)) * (1 + 0.01*float64(c.major))}
	if ep := round / driftEvery; c.cohort && ep != c.reported {
		res.Summary = c.labelCounts(ep)
		c.reported = ep
	}
	return res, nil
}

func (c *simClient) Latency() float64 { return c.latency }

// fleetTransport dispatches serially: the clients cost next to nothing,
// so parallel fan-out would only add scheduling noise.
type fleetTransport struct{ proxies []rounds.Proxy }

func (t fleetTransport) Proxies() []rounds.Proxy { return t.proxies }
func (t fleetTransport) Parallelism() int        { return 1 }

type fleetSystem struct {
	driver *rounds.AsyncDriver
	sched  *schedProbe
	// Client jobs since round 0, for the conservation check.
	dispatched, aggregated, stale int
}

func buildFleet(e env) (system, error) {
	rng := stats.NewRNG(stats.DeriveSeed(e.seed, 1))
	sums := make([]core.Summary, fleetClients)
	infos := make([]fl.ClientInfo, fleetClients)
	proxies := make([]rounds.Proxy, fleetClients)
	out := make([][]float64, fleetConcurrency)
	for i := range out {
		out[i] = make([]float64, fleetDim)
	}
	for i := range proxies {
		c := &simClient{id: i, major: i % fleetClasses, cohort: i%cohortEvery == 0,
			samples: float64(100 + rng.Intn(300)), out: out}
		// Heavy tail: the clients of two majority labels run on devices
		// ten times slower, so every cluster the scheduler samples from
		// them brings back stale updates. The cohort is fast, so the
		// scheduler picks its members and hears their drift.
		c.latency = 1 + 4*rng.Float64()
		if c.major >= fleetClasses-2 {
			c.latency *= 10
		}
		if c.cohort {
			c.latency = 1 + 0.5*rng.Float64()
		}
		sums[i] = core.Summary{Kind: core.PY, Label: &stats.Histogram{Counts: c.labelCounts(0)}}
		infos[i] = fl.ClientInfo{ID: i, Latency: c.latency, NumSamples: int(c.samples)}
		proxies[i] = proxyProbe{Proxy: c, rec: e.rec}
	}
	reg := telemetry.NewRegistry()
	sched := &schedProbe{Scheduler: core.NewScheduler(core.Config{
		Kind: core.PY, Rho: 0.75, Backend: core.SketchBackend, Metrics: reg,
	}, sums), rec: e.rec}
	sched.Init(infos, stats.NewRNG(stats.DeriveSeed(e.seed, 2)))
	health := fleet.NewRegistry(fleetClients, fleet.Options{Metrics: reg, Source: sched})
	driver := rounds.NewAsyncDriver(rounds.Config{
		ClientsPerRound: fleetConcurrency,
		Spans:           e.rec.spanTracer(),
		Metrics:         reg,
		OnSummary:       sched.onSummary,
		Fleet:           health,
	}, rounds.AsyncConfig{BufferK: fleetBufferK, MaxStaleness: fleetMaxStale},
		fleetTransport{proxies}, sched, make([]float64, fleetDim))
	return &fleetSystem{driver: driver, sched: sched}, nil
}

func (s *fleetSystem) round(r int) (roundStats, error) {
	out := s.driver.RunRound(r)
	st := roundStats{dispatched: len(out.Selected), aggregated: len(out.Reporters), failed: len(out.Failed), stale: len(out.Cut)}
	s.dispatched += st.dispatched
	s.aggregated += st.aggregated
	s.stale += st.stale
	if len(out.Failed) > 0 || !out.Aggregated {
		return st, fmt.Errorf("%d failed clients, aggregated=%v", len(out.Failed), out.Aggregated)
	}
	return st, nil
}

func (s *fleetSystem) params() []float64 { return s.driver.Global() }

// finish checks that every dispatched update was aggregated, dropped
// as stale, or is still in flight.
func (s *fleetSystem) finish() (quality, error) {
	q := quality{clusters: s.sched.NumClusters()}
	if sk := s.sched.SelectionState().Sketch; sk != nil {
		q.reclusters = sk.Reclusters - 1
	}
	if lost := s.dispatched - s.aggregated - s.stale - s.driver.InFlight(); lost != 0 {
		return q, fmt.Errorf("%d dispatched updates neither aggregated, dropped stale nor in flight", lost)
	}
	return q, nil
}

func (s *fleetSystem) close() error { return nil }
