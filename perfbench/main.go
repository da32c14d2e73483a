// Command perfbench is the end-to-end benchmark of this repository. It
// runs one workload in one process, through the packages' public APIs,
// checks that the result is correct, and prints every metric by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with -trace 1 they are the per-layer ledger. See README.md.
//
//	bash perfbench/run.sh -workload tcp-lenet -seed 1 -seconds 20 -trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// system is one workload's running deployment.
type system interface {
	// round runs round r and reports what it aggregated. An error means
	// the round broke the correctness gate.
	round(r int) (roundStats, error)
	// params is the current global parameter vector (read-only).
	params() []float64
	// finish runs the end-of-run checks and returns the workload's
	// quality figures.
	finish() (quality, error)
	close() error
}

// roundStats counts one round's client jobs.
type roundStats struct {
	dispatched, aggregated, failed, stale int
}

// quality holds a workload's end-of-run figures. virtualTTA and
// finalAcc repeat exactly for a seed; the byte counts carry host wall
// times and so vary by a few bytes.
type quality struct {
	virtualTTA      float64 // virtual seconds to the target accuracy (sim-paper)
	finalAcc        float64 // accuracy after the fixed rounds (sim-paper)
	wireDown        int64   // bytes clients read from their connections (TCP workloads)
	wireUp          int64   // bytes clients wrote
	checkpointBytes int64   // size of the checkpoint store (tcp-lenet)
	reclusters      int     // full re-clusterings after Init
	clusters        int
}

// env is what a workload's build function gets: the seed, a scratch directory
// inside the checkout, and the recorder (nil when tracing is off).
type env struct {
	seed uint64
	dir  string
	rec  *recorder
}

// workload describes one benchmark scenario.
type workload struct {
	why string
	// kind selects how the ledger splits a round (see ledger.go).
	kind ledgerKind
	// minRounds is how many rounds every run executes whatever the
	// time budget, so the correctness gate and the final-parameter hash
	// always see the same trajectory prefix.
	minRounds int
	// warmup rounds run inside set-up, before timing starts.
	warmup int
	// setups is how many times a timed run sets the system up; setup_s
	// is their median.
	setups int
	// procs, when set, caps GOMAXPROCS for the run.
	procs int
	// window is the length in rounds of the stretches whose medians
	// round_p50_ms averages (see windowP50): a multiple of the
	// workload's own period, so every window holds the same mix of
	// round kinds.
	window int
	build  func(e env) (system, error)
}

var workloads = map[string]workload{
	"sim-paper": {
		why:       "the paper's §V-A run on the in-process engine: compute-bound in tensor/nn/fl, no wire",
		kind:      ledgerSim,
		minRounds: simRounds,
		setups:    3,
		window:    simEvalEvery,
		build:     buildSim,
	},
	"tcp-lenet": {
		why:       "flat coordinator over loopback TCP with a LeNet-size model and per-round checkpoints",
		kind:      ledgerTCP,
		minRounds: 100,
		warmup:    3,
		setups:    9,
		window:    50,
		build:     buildTCP,
	},
	"tcp-sharded": {
		why:       "root and two shard agents over TCP: the only path through the shard hop and HierDriver",
		kind:      ledgerSharded,
		minRounds: 100,
		warmup:    3,
		setups:    9,
		window:    50,
		build:     buildSharded,
	},
	"fleet10k-async": {
		why:       "async control plane over 10,000 simulated clients: core and fleet, no model compute",
		kind:      ledgerFleet,
		minRounds: 500,
		warmup:    20,
		setups:    9,
		// The cycle loop is serial. With a second P, back-to-back runs
		// of one seed differed by up to a third in round_p50_ms.
		procs:  1,
		window: 2 * driftEvery,
		build:  buildFleet,
	},
}

// phase is one measured stretch of rounds on one system.
type phase struct {
	from   int             // first round index
	walls  []time.Duration // wall time of each round
	wall   time.Duration   // the whole phase
	failed int             // rounds that broke the gate
	jobs   roundStats      // client jobs summed over the phase
	mem    memStats        // allocations and GC cycles during the phase
	hash   string          // final-parameter hash after minRounds
	gate   error           // first gate failure
}

// runPhase runs rounds from `from` until the budget is spent and at
// least minRounds rounds (counted from round 0) have run.
func runPhase(sys system, rec *recorder, from, minRounds int, budget time.Duration) *phase {
	p := &phase{from: from}
	m0 := readMem()
	start := time.Now()
	for r := from; r < minRounds || time.Since(start) < budget; r++ {
		if rec != nil {
			rec.cur.Store(int64(r))
		}
		t0 := time.Now()
		st, err := sys.round(r)
		p.walls = append(p.walls, time.Since(t0))
		if rec != nil {
			rec.record("bench.round", r, -1, t0)
		}
		p.jobs.dispatched += st.dispatched
		p.jobs.aggregated += st.aggregated
		p.jobs.failed += st.failed
		p.jobs.stale += st.stale
		if err != nil {
			p.failed++
			if p.gate == nil {
				p.gate = fmt.Errorf("round %d: %w", r, err)
			}
		}
		if r+1 == minRounds {
			p.hash = paramHash(sys.params())
		}
	}
	p.wall = time.Since(start)
	p.mem = readMem().sub(m0)
	return p
}

// windowP50 cuts the phase into window-round stretches, each starting
// at a round divisible by window, and returns the mean of their median
// round times in ms; the median over the whole phase when no full
// stretch fits. The host's speed shifts between a fast and a slow state
// in phases of a second or more, so a run's rounds form two humps whose
// sizes vary from run to run. A median over the whole run jumps from
// one hump to the other as their sizes cross; each stretch's median
// stays in the state the stretch ran in, and their mean moves only in
// proportion to the time spent in each state.
func windowP50(p *phase, window int) float64 {
	walls := millis(p.walls)
	var sum float64
	n := 0
	for i := range walls {
		if (p.from+i)%window != 0 || i+window > len(walls) {
			continue
		}
		sum += percentile(walls[i:i+window], 50)
		n++
	}
	if n == 0 {
		return percentile(walls, 50)
	}
	return sum / float64(n)
}

// paramHash fingerprints a parameter vector bit for bit.
func paramHash(ps []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range ps {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// checkFinite fails on any NaN or Inf in the global parameters.
func checkFinite(ps []float64) error {
	for i, v := range ps {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("global parameter %d is %v", i, v)
		}
	}
	return nil
}

// setUp builds the system and runs its warm-up rounds. It collects the
// garbage of earlier set-ups first, outside the timed window, so each
// set-up and the phase after it start from the same heap.
func setUp(w workload, e env) (system, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	sys, err := w.build(e)
	if err != nil {
		return nil, 0, err
	}
	for r := 0; r < w.warmup; r++ {
		if _, err := sys.round(r); err != nil {
			sys.close()
			return nil, 0, fmt.Errorf("warm-up round %d: %w", r, err)
		}
	}
	return sys, time.Since(start), nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: sim-paper, tcp-lenet, tcp-sharded or fleet10k-async")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload one of sim-paper|tcp-lenet|tcp-sharded|fleet10k-async, -seconds > 0, -trace 0|1")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	if w.procs > 0 {
		runtime.GOMAXPROCS(min(w.procs, runtime.GOMAXPROCS(0)))
	}

	fmt.Printf("host: %s\n", fingerprint())
	fmt.Printf("workload: %s seed=%d seconds=%d trace=%d (%s)\n", *name, *seed, *seconds, *trace, w.why)
	budget := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = runTraced(w, *name, *seed, dir, budget)
	} else {
		res, err = runTimed(w, *seed, dir, budget)
	}
	if err != nil {
		os.RemoveAll(dir)
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(out))
}

// setUpRepeated sets the system up w.setups times, closing each copy
// but the last, and returns the last copy with every set-up's duration.
// The copies before it also warm the heap, so the phase that follows
// does not pay for the process's first growth.
func setUpRepeated(w workload, e env) (system, []float64, error) {
	var sys system
	var setups []float64
	for i := 0; i < w.setups; i++ {
		if sys != nil {
			err := sys.close()
			sys = nil // let setUp's collection free it
			if err != nil {
				return nil, nil, err
			}
		}
		s, d, err := setUp(w, e)
		if err != nil {
			return nil, nil, err
		}
		sys = s
		setups = append(setups, d.Seconds())
	}
	return sys, setups, nil
}

// runTimed measures the end-to-end metrics with tracing off.
func runTimed(w workload, seed uint64, dir string, budget time.Duration) (*result, error) {
	sys, setups, err := setUpRepeated(w, env{seed: seed, dir: dir})
	if err != nil {
		return nil, err
	}
	p := runPhase(sys, nil, w.warmup, w.minRounds, budget)
	res, _ := verdict(sys, w, p)
	shutDown(sys, res)

	walls := millis(p.walls)
	rounds := float64(len(p.walls))
	p50 := windowP50(p, w.window)
	res.Metrics = map[string]metric{
		"setup_s":       {percentile(setups, 50), "s"},
		"rounds_per_s":  {rounds / p.wall.Seconds(), "1/s"},
		"round_p50_ms":  {p50, "ms"},
		"updates_per_s": {float64(p.jobs.aggregated) / p.wall.Seconds(), "1/s"},
		"peak_rss_mb":   {peakRSSMB(), "MB"},
	}
	fmt.Printf("rounds: %d timed, p50 %.3f ms over the run, %.3f ms averaged over %d-round windows, p95 %.3f ms\n",
		len(walls), percentile(walls, 50), p50, w.window, percentile(walls, 95))
	return res, nil
}

// verdict runs the end-of-run checks, prints the figures a same-seed
// run must repeat, and fills the gate fields of the result.
func verdict(sys system, w workload, p *phase) (*result, quality) {
	rounds := p.from + len(p.walls)
	q, err := sys.finish()
	if err == nil {
		err = p.gate
	}
	if err == nil {
		err = checkFinite(sys.params())
	}
	if err != nil {
		fmt.Printf("gate: FAIL %v\n", err)
	}
	fmt.Printf("final: hash=%s after %d rounds; virtual_tta_s=%.6g final_acc=%.6g\n",
		p.hash, w.minRounds, q.virtualTTA, q.finalAcc)
	fmt.Printf("wire: %.6g kB per round on the client connections\n", kb(q.wireDown+q.wireUp)/float64(rounds))
	failed := p.failed
	if err != nil && failed == 0 {
		failed = 1
	}
	return &result{Correct: err == nil, Attempted: len(p.walls), Failed: failed}, q
}

// shutDown stops the system; a client or server that fails to stop
// cleanly fails the run.
func shutDown(sys system, res *result) {
	if err := sys.close(); err != nil {
		fmt.Printf("gate: FAIL shutdown: %v\n", err)
		res.Correct = false
		res.Failed++
	}
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func kb(bytes int64) float64 { return float64(bytes) / 1000 }

// peakRSSMB is the process's peak resident set (VmHWM) in MB, falling
// back to the memory the Go runtime obtained from the OS where /proc is
// unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return v / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// fingerprint describes the host and the source the result came from.
func fingerprint() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), sourceRev())
}

// sourceRev names the benchmarked source: the VCS revision when the
// build recorded one, else a hash of the module's Go sources (the
// benchmark may run from an exported tree with no history).
func sourceRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value[:min(12, len(s.Value))]
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("src-%x", h.Sum(nil)[:6])
}
