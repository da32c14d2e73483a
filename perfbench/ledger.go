package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The traced run. It first runs an untraced copy of the system for half
// the budget, set up as the timed run sets it up, then a copy with every
// probe recording and the program's own span tracer on, and splits each
// traced round's wall time into the modules it passed through. The
// difference between the two copies over the same rounds is the tracing
// overhead.

// ledgerKind says which spans a workload produces and so how its round
// splits into layers.
type ledgerKind int

const (
	ledgerSim     ledgerKind = iota // program spans; clients train inside dispatch
	ledgerTCP                       // program spans; clients behind counting conns
	ledgerSharded                   // no program spans at the root; clients behind counting conns
	ledgerFleet                     // program spans; serial in-process clients
)

// reconcileTolerance bounds the round wall time no layer accounts for,
// as a share of the round wall time.
const reconcileTolerance = 0.05

// layers lists the ledger's layers in print order.
var layers = []string{"core", "fl", "flnet", "shard", "rounds", "fleet", "checkpoint", "other"}

// perLayer is every per-layer metric with its unit, in print order.
// Metrics a workload cannot produce (no wire, no shard hop) read 0.
var perLayer = []struct{ name, unit string }{
	{"core.init_ms", "ms"},
	{"core.select_us", "us"},
	{"core.select_calls", "count"},
	{"core.update_us", "us"},
	{"core.summary_update_us", "us"},
	{"core.summary_updates", "count"},
	{"core.fleet_state_us", "us"},
	{"core.reclusters", "count"},
	{"core.clusters", "count"},
	{"core.self_ms", "ms"},
	{"fl.train_ms", "ms"},
	{"fl.eval_ms", "ms"},
	{"flnet.kb_down", "kB"},
	{"flnet.kb_up", "kB"},
	{"flnet.client_decode_ms", "ms"},
	{"flnet.client_encode_ms", "ms"},
	{"flnet.exchange_overhead_ms", "ms"},
	{"shard.hop_ms", "ms"},
	{"rounds.dispatch_ms", "ms"},
	{"rounds.aggregate_ms", "ms"},
	{"rounds.drain_ms", "ms"},
	{"rounds.self_ms", "ms"},
	{"rounds.round_p95_ms", "ms"},
	{"rounds.stale_ratio", "ratio"},
	{"rounds.ops_attempted", "count"},
	{"rounds.ops_failed", "count"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.kb", "kB"},
	{"fleet.observe_ms", "ms"},
	{"go.allocs_per_round", "count"},
	{"go.alloc_kb_per_round", "kB"},
	{"go.gc_cycles", "count"},
	{"ledger.round_ms", "ms"},
	{"ledger.other_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"virtual_tta_s", "s"},
	{"final_acc", "ratio"},
	{"wire_kb_per_round", "kB"},
}

// agg sums the spans of one name in one round.
type agg struct {
	sum, max time.Duration
	n        int
}

func runTraced(w workload, name string, seed uint64, dir string, budget time.Duration) (*result, error) {
	ref, _, err := setUpRepeated(w, env{seed: seed, dir: dir})
	if err != nil {
		return nil, err
	}
	pu := runPhase(ref, nil, w.warmup, 0, budget/2)
	if err := ref.close(); err != nil {
		return nil, err
	}

	rec := newRecorder()
	sys, _, err := setUp(w, env{seed: seed, dir: dir, rec: rec})
	if err != nil {
		return nil, err
	}
	pt := runPhase(sys, rec, w.warmup, w.minRounds, budget/2)
	res, q := verdict(sys, w, pt)
	shutDown(sys, res)
	res.Attempted += len(pu.walls)
	if pu.gate != nil {
		fmt.Printf("gate: FAIL untraced copy: %v\n", pu.gate)
		res.Correct = false
		res.Failed += pu.failed
	}

	m, ok := ledgerMetrics(w.kind, rec, pu, pt, q)
	if !ok {
		res.Correct = false
		res.Failed++
	}
	res.Metrics = make(map[string]metric, len(perLayer))
	for _, pl := range perLayer {
		res.Metrics[pl.name] = metric{m[pl.name], pl.unit}
	}
	path := filepath.Join(".bench_build", "trace-"+name+".jsonl")
	if err := writeSpans(path, rec.spans); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(rec.spans), path)
	return res, nil
}

// ledgerMetrics computes the per-layer metrics and prints the ledger
// table. ok is false when the layers fail to add up to the round wall
// time within reconcileTolerance.
func ledgerMetrics(kind ledgerKind, rec *recorder, pu, pt *phase, q quality) (map[string]float64, bool) {
	byRound := map[int]map[string]*agg{}
	calls := map[string]*agg{}
	for _, s := range rec.spans {
		if s.round < pt.from && s.name != "core.init" {
			continue
		}
		for _, m := range []map[string]*agg{calls, roundAggs(byRound, s.round)} {
			a := m[s.name]
			if a == nil {
				a = &agg{}
				m[s.name] = a
			}
			a.sum += s.dur
			a.max = max(a.max, s.dur)
			a.n++
		}
	}

	total := map[string]float64{} // layer -> ms summed over rounds
	phaseMS := map[string]float64{}
	wall := 0.0
	for r := pt.from; r < pt.from+len(pt.walls); r++ {
		g := func(name string) *agg {
			if a := byRound[r][name]; a != nil {
				return a
			}
			return &agg{}
		}
		W := ms(g("bench.round").sum)
		wall += W
		coreIn := ms(g("core.select").sum + g("core.update").sum + g("core.summary_update").sum)
		coreOut := ms(g("core.fleet_state").sum)
		var phases float64
		for _, ph := range []string{"availability", "select", "dispatch", "collect", "aggregate", "update", "drain"} {
			v := ms(g("rounds." + ph).sum)
			phases += v
			phaseMS[ph] += v
		}
		dispatch := ms(g("rounds.dispatch").sum)
		roundSpan := ms(g("rounds.round").sum)
		eval := ms(g("fl.eval").sum)
		ckpt := ms(g("checkpoint.save").sum)
		l := map[string]float64{"core": coreIn + coreOut, "checkpoint": ckpt}
		var flDispatch float64 // client time inside the dispatch span
		switch kind {
		case ledgerSim:
			flDispatch = dispatch
		case ledgerTCP:
			flDispatch = ms(g("fl.train").max)
			l["flnet"] = dispatch - flDispatch
		case ledgerFleet:
			flDispatch = ms(g("fl.train").sum)
		case ledgerSharded:
			// The root has no spans: the slowest client exchange is the
			// only part of the round measured inside it, and the rest
			// is the root↔shard hop.
			x := ms(g("flnet.exchange").max)
			l["fl"] = ms(g("fl.train").max)
			l["flnet"] = x - l["fl"]
			l["shard"] = W - l["core"] - x
		}
		if kind != ledgerSharded {
			l["fl"] = flDispatch + eval
			l["rounds"] = phases - coreIn - flDispatch - l["flnet"]
			l["fleet"] = roundSpan - phases - coreOut
			l["other"] = W - roundSpan - ckpt - eval
		}
		for k, v := range l {
			total[k] += v
		}
	}

	n := float64(len(pt.walls))
	perRound := func(v float64) float64 { return v / n }
	perCall := func(name string, unit time.Duration) float64 {
		if a := calls[name]; a != nil && a.n > 0 {
			return float64(a.sum) / float64(a.n) / float64(unit)
		}
		return 0
	}
	count := func(name string) float64 {
		if a := calls[name]; a != nil {
			return float64(a.n)
		}
		return 0
	}
	rounds := float64(pt.from + len(pt.walls))
	m := map[string]float64{
		"core.init_ms":               perCall("core.init", time.Millisecond),
		"core.select_us":             perCall("core.select", time.Microsecond),
		"core.select_calls":          perRound(count("core.select")),
		"core.update_us":             perCall("core.update", time.Microsecond),
		"core.summary_update_us":     perCall("core.summary_update", time.Microsecond),
		"core.summary_updates":       perRound(count("core.summary_update")),
		"core.fleet_state_us":        perCall("core.fleet_state", time.Microsecond),
		"core.reclusters":            float64(q.reclusters),
		"core.clusters":              float64(q.clusters),
		"core.self_ms":               perRound(total["core"]),
		"fl.train_ms":                perRound(total["fl"] - sumMS(calls["fl.eval"])),
		"fl.eval_ms":                 perCall("fl.eval", time.Millisecond),
		"flnet.kb_down":              kb(q.wireDown) / rounds,
		"flnet.kb_up":                kb(q.wireUp) / rounds,
		"flnet.client_decode_ms":     perCall("flnet.decode", time.Millisecond),
		"flnet.client_encode_ms":     perCall("flnet.encode", time.Millisecond),
		"flnet.exchange_overhead_ms": perRound(total["flnet"]),
		"shard.hop_ms":               perRound(total["shard"]),
		"rounds.dispatch_ms":         perRound(phaseMS["dispatch"]),
		"rounds.aggregate_ms":        perRound(phaseMS["aggregate"]),
		"rounds.drain_ms":            perRound(phaseMS["drain"]),
		"rounds.self_ms":             perRound(total["rounds"]),
		"rounds.round_p95_ms":        percentile(millis(pu.walls), 95),
		"rounds.ops_attempted":       float64(pt.jobs.dispatched),
		"rounds.ops_failed":          float64(pt.jobs.failed),
		"checkpoint.save_ms":         perRound(total["checkpoint"]),
		"checkpoint.kb":              kb(q.checkpointBytes),
		"fleet.observe_ms":           perRound(total["fleet"]),
		"go.allocs_per_round":        float64(pu.mem.mallocs) / float64(len(pu.walls)),
		"go.alloc_kb_per_round":      kb(int64(pu.mem.bytes)) / float64(len(pu.walls)),
		"go.gc_cycles":               float64(pu.mem.gc),
		"ledger.round_ms":            perRound(wall),
		"ledger.other_ms":            perRound(total["other"]),
		"virtual_tta_s":              q.virtualTTA,
		"final_acc":                  q.finalAcc,
		"wire_kb_per_round":          kb(q.wireDown+q.wireUp) / rounds,
	}
	if done := pt.jobs.aggregated + pt.jobs.stale; done > 0 {
		m["rounds.stale_ratio"] = float64(pt.jobs.stale) / float64(done)
	}
	common := min(len(pu.walls), len(pt.walls))
	var tu, tt time.Duration
	for i := 0; i < common; i++ {
		tu += pu.walls[i]
		tt += pt.walls[i]
	}
	m["trace.overhead_pct"] = 100 * (float64(tt)/float64(tu) - 1)

	fmt.Printf("ledger: %d traced rounds, mean round %.4f ms\n", len(pt.walls), perRound(wall))
	fmt.Printf("  %-11s %12s %8s\n", "layer", "ms/round", "share")
	for _, l := range layers {
		fmt.Printf("  %-11s %12.4f %7.1f%%\n", l, perRound(total[l]), 100*total[l]/wall)
	}
	ok := true
	if kind == ledgerSharded {
		ok = total["shard"] >= 0
		fmt.Printf("reconcile: shard hop is the residual; %.4f ms/round must not be negative: %s\n", perRound(total["shard"]), okWord(ok))
	} else {
		share := total["other"] / wall
		ok = share <= reconcileTolerance && share >= -reconcileTolerance
		fmt.Printf("reconcile: %.2f%% of round wall time outside every layer (tolerance %.0f%%): %s\n",
			100*share, 100*reconcileTolerance, okWord(ok))
	}
	fmt.Printf("tracing overhead: %+.2f%% over the first %d rounds (traced %.1f ms vs untraced %.1f ms)\n",
		m["trace.overhead_pct"], common, ms(tt), ms(tu))
	return m, ok
}

func roundAggs(byRound map[int]map[string]*agg, r int) map[string]*agg {
	m := byRound[r]
	if m == nil {
		m = map[string]*agg{}
		byRound[r] = m
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sumMS(a *agg) float64 {
	if a == nil {
		return 0
	}
	return ms(a.sum)
}

func okWord(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}

// writeSpans writes every recorded span as one JSON line. Program spans
// carry start_ms -1: their clock is the program tracer's.
func writeSpans(path string, spans []span) error {
	sorted := append([]span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].round < sorted[j].round })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range sorted {
		start := -1.0
		if s.start >= 0 {
			start = ms(s.start)
		}
		fmt.Fprintf(bw, `{"name":%q,"round":%d,"client":%d,"start_ms":%.4f,"dur_ms":%.4f}`+"\n",
			s.name, s.round, s.client, start, ms(s.dur))
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
