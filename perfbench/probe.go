package main

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"haccs/internal/core"
	"haccs/internal/fl"
	"haccs/internal/fleet"
	"haccs/internal/flnet"
	"haccs/internal/rounds"
	"haccs/internal/stats"
	"haccs/internal/telemetry"
)

// The probes in this file time calls into the program from outside:
// each wraps one interface the program hands in or gets handed and
// records a span around the call. A nil *recorder turns every probe
// into a plain pass-through, which is how the untraced runs use them.

// span is one timed call, on the recorder's clock.
type span struct {
	name   string
	round  int
	client int
	start  time.Duration // since the recorder was created; -1 if unknown
	dur    time.Duration
}

// recorder keeps spans in memory until the run ends. Probes on the
// driver goroutine and on client goroutines record concurrently.
type recorder struct {
	t0  time.Time
	cur atomic.Int64 // round the driver is running; -1 during set-up

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.cur.Store(-1)
	return r
}

// record stores a span that started at start and ends now.
func (r *recorder) record(name string, round, client int, start time.Time) {
	if r == nil {
		return
	}
	now := time.Now()
	r.add(span{name: name, round: round, client: client, start: start.Sub(r.t0), dur: now.Sub(start)})
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) round() int {
	if r == nil {
		return -1
	}
	return int(r.cur.Load())
}

// Emit implements telemetry.Tracer: the program's own span tracer
// writes its completed spans here. Only the span kind is kept; its
// start offset is on the program tracer's clock, so it is dropped.
func (r *recorder) Emit(e telemetry.Event) {
	if e.Kind != telemetry.KindSpan {
		return
	}
	name, round := "rounds."+e.Span, e.Round
	switch e.Span {
	case "checkpoint":
		// The saver names its span after the rounds completed.
		name, round = "checkpoint.save", e.Round-1
	case "client_train":
		name = "flnet.client_train"
	}
	r.add(span{name: name, round: round, client: e.Client, start: -1, dur: time.Duration(e.WallSec * float64(time.Second))})
}

// spanTracer returns the program's span tracer recording into r, or
// nil (tracing off) for a nil recorder.
func (r *recorder) spanTracer() *telemetry.SpanTracer {
	if r == nil {
		return nil
	}
	return telemetry.NewSpanTracer(r, nil)
}

// schedProbe wraps the HACCS scheduler. It is handed to the program as
// its Strategy, as the fleet registry's ClusterSource and, through
// onSummary, as the OnSummary callback. Embedding forwards everything
// else (Name, checkpointing, SelectionState) untouched.
type schedProbe struct {
	*core.Scheduler
	rec *recorder
}

func (p *schedProbe) Init(clients []fl.ClientInfo, rng *stats.RNG) {
	start := time.Now()
	p.Scheduler.Init(clients, rng)
	p.rec.record("core.init", -1, -1, start)
}

func (p *schedProbe) Select(round int, available []bool, k int) []int {
	start := time.Now()
	out := p.Scheduler.Select(round, available, k)
	p.rec.record("core.select", round, -1, start)
	return out
}

func (p *schedProbe) Update(round int, selected []int, losses []float64) {
	start := time.Now()
	p.Scheduler.Update(round, selected, losses)
	p.rec.record("core.update", round, -1, start)
}

func (p *schedProbe) FleetClusterState() fleet.ClusterTargets {
	start := time.Now()
	out := p.Scheduler.FleetClusterState()
	p.rec.record("core.fleet_state", p.rec.round(), -1, start)
	return out
}

// onSummary is the OnSummary callback: a refreshed P(y) summary goes
// to the scheduler's UpdateSummaries, as an operator's coordinator
// wires it.
func (p *schedProbe) onSummary(id int, counts []float64) {
	start := time.Now()
	p.Scheduler.UpdateSummaries(map[int]core.Summary{id: {Kind: core.PY, Label: &stats.Histogram{Counts: counts}}})
	p.rec.record("core.summary_update", p.rec.round(), id, start)
}

// clientProbe sits on one TCP client. It is the net.Conn handed to
// flnet.Client.Serve, counting every byte read and written, and it is
// the client's flnet.Trainer. Together the two views split a client's
// exchange into receive+decode (first request byte to Train), train,
// and encode+send (Train return to the reply written).
type clientProbe struct {
	net.Conn
	trainer flnet.Trainer
	rec     *recorder
	id      int

	read, written atomic.Int64

	// Exchange timestamps, touched only by the client's Serve goroutine.
	round                           int
	recvStart, trainStart, trainEnd time.Time
}

func (c *clientProbe) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.read.Add(int64(n))
	if c.rec != nil && n > 0 && c.recvStart.IsZero() {
		c.recvStart = time.Now()
	}
	return n, err
}

func (c *clientProbe) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.written.Add(int64(n))
	if c.rec != nil && !c.trainEnd.IsZero() {
		// The reply is on the wire: the exchange is complete.
		end := time.Now()
		r := c.rec
		r.add(span{"flnet.decode", c.round, c.id, c.recvStart.Sub(r.t0), c.trainStart.Sub(c.recvStart)})
		r.add(span{"fl.train", c.round, c.id, c.trainStart.Sub(r.t0), c.trainEnd.Sub(c.trainStart)})
		r.add(span{"flnet.encode", c.round, c.id, c.trainEnd.Sub(r.t0), end.Sub(c.trainEnd)})
		r.add(span{"flnet.exchange", c.round, c.id, c.recvStart.Sub(r.t0), end.Sub(c.recvStart)})
		c.recvStart, c.trainEnd = time.Time{}, time.Time{}
	}
	return n, err
}

func (c *clientProbe) Train(round int, params []float64) ([]float64, int, float64) {
	c.round = round
	c.trainStart = time.Now()
	out, n, loss := c.trainer.Train(round, params)
	c.trainEnd = time.Now()
	return out, n, loss
}

// proxyProbe wraps an in-process rounds.Proxy (the fleet workload's
// simulated clients) with the same fl.train span a TCP client records.
type proxyProbe struct {
	rounds.Proxy
	rec *recorder
}

func (p proxyProbe) Train(round, worker, slot int, params []float64, sc telemetry.SpanContext) (rounds.Result, error) {
	start := time.Now()
	res, err := p.Proxy.Train(round, worker, slot, params, sc)
	p.rec.record("fl.train", round, res.ClientID, start)
	return res, err
}

// memStats is the allocation state at one instant.
type memStats struct {
	mallocs, bytes uint64
	gc             uint32
}

func readMem() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{mallocs: m.Mallocs, bytes: m.TotalAlloc, gc: m.NumGC}
}

// sub returns the allocations and GC cycles between o and m.
func (m memStats) sub(o memStats) memStats {
	return memStats{mallocs: m.mallocs - o.mallocs, bytes: m.bytes - o.bytes, gc: m.gc - o.gc}
}
