package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"haccs/internal/checkpoint"
	"haccs/internal/core"
	"haccs/internal/dataset"
	"haccs/internal/fl"
	"haccs/internal/flnet"
	"haccs/internal/nn"
	"haccs/internal/shard"
	"haccs/internal/stats"
)

// The TCP workloads run real flnet clients in this process, one per
// CPU, each training MNIST-28 LeNet(6,16) — 34,622 parameters — on one
// local minibatch per round.
var lenet = nn.Arch{Kind: "lenet", Channels: 1, Height: 28, Width: 28, Classes: 10, ConvFilters: [2]int{6, 16}}

const lenetBatch = 32

// clientSet is the in-process TCP clients of one system.
type clientSet struct {
	probes []*clientProbe
	regs   []flnet.Register
	wg     sync.WaitGroup
	errs   []error
}

// newClients builds n clients with distinct majority labels. Each one's
// local training set is exactly one minibatch.
func newClients(e env, n int) *clientSet {
	spec := dataset.SyntheticMNIST()
	gen := dataset.NewGenerator(spec, stats.DeriveSeed(e.seed, 1))
	plan := dataset.MajorityNoisePlan(n, spec.Classes, lenetBatch*5/4, lenetBatch*5/4, stats.NewRNG(stats.DeriveSeed(e.seed, 2)))
	data := plan.Materialize(gen, 0.8, stats.NewRNG(stats.DeriveSeed(e.seed, 3)))
	f := &clientSet{errs: make([]error, n)}
	for i := 0; i < n; i++ {
		me := &fl.Client{ID: i, Data: data[i]}
		tc := fl.NewTrainContext(lenet.Build(stats.NewRNG(1)))
		seed := stats.DeriveSeed(e.seed, uint64(100+i))
		trainer := flnet.TrainerFunc(func(round int, params []float64) ([]float64, int, float64) {
			res := me.LocalTrainCtx(tc, params, nil, fl.LocalTrainConfig{Epochs: 1, BatchSize: lenetBatch, LR: 0.05},
				stats.NewRNG(stats.DeriveSeed(seed, uint64(round))))
			return res.Params, res.NumSamples, res.Loss
		})
		sum := core.Summarize(me.Data.Train, core.PY, 0)
		f.regs = append(f.regs, flnet.RegisterFromSummary(i, sum.Label.Counts, nil, 1+float64(i), me.NumTrainSamples()))
		f.probes = append(f.probes, &clientProbe{trainer: trainer, rec: e.rec, id: i})
	}
	return f
}

// serve connects client i to addr and serves it in the background.
func (f *clientSet) serve(i int, addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("client %d: dial: %w", i, err)
	}
	p := f.probes[i]
	p.Conn = conn
	c := &flnet.Client{Reg: f.regs[i], Trainer: p}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_, f.errs[i] = c.Serve(p)
	}()
	return nil
}

// wait returns once every client has stopped, with any client error.
func (f *clientSet) wait() error {
	f.wg.Wait()
	return errors.Join(f.errs...)
}

// wireBytes is the total read and written on the client connections.
func (f *clientSet) wireBytes() (down, up int64) {
	for _, p := range f.probes {
		down += p.read.Load()
		up += p.written.Load()
	}
	return down, up
}

// newScheduler builds the HACCS P(y) scheduler over the registered
// summaries, initialized with the roster, as the coordinator's CLI
// does.
func newScheduler(e env, regs []flnet.Register) *schedProbe {
	sums := make([]core.Summary, len(regs))
	infos := make([]fl.ClientInfo, len(regs))
	for _, r := range regs {
		sums[r.ClientID] = core.Summary{Kind: core.PY, Label: r.LabelHistogram()}
		infos[r.ClientID] = fl.ClientInfo{ID: r.ClientID, Latency: r.LatencyEstimate, NumSamples: r.NumSamples}
	}
	p := &schedProbe{Scheduler: core.NewScheduler(core.Config{Kind: core.PY, Rho: 0.75}, sums), rec: e.rec}
	p.Init(infos, stats.NewRNG(stats.DeriveSeed(e.seed, 4)))
	return p
}

func initialParams(seed uint64) []float64 {
	return lenet.Build(stats.NewRNG(stats.DeriveSeed(seed, 5))).ParamsVector()
}

// tcpSystem is tcp-lenet: one flnet.Coordinator checkpointing every
// round.
type tcpSystem struct {
	srv     *flnet.Server
	coord   *flnet.Coordinator
	clients *clientSet
	sched   *schedProbe
	store   string
}

func buildTCP(e env) (system, error) {
	n := runtime.NumCPU() // one client connection per CPU
	clients := newClients(e, n)
	srv, err := flnet.NewServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &tcpSystem{srv: srv, clients: clients}
	for i := 0; i < n; i++ {
		if err := clients.serve(i, srv.Addr()); err != nil {
			s.close()
			return nil, err
		}
	}
	if _, err := srv.AcceptClients(n); err != nil {
		s.close()
		return nil, err
	}
	s.sched = newScheduler(e, clients.regs)
	s.store, err = os.MkdirTemp(e.dir, "ckpt-")
	if err != nil {
		s.close()
		return nil, err
	}
	store, err := checkpoint.NewStore(s.store, 2)
	if err != nil {
		s.close()
		return nil, err
	}
	s.coord, err = flnet.NewCoordinator(srv, flnet.CoordinatorConfig{
		ClientsPerRound: n,
		Spans:           e.rec.spanTracer(),
		Checkpoint:      store,
		CheckpointEvery: 1,
		Arch:            lenet,
	}, s.sched, initialParams(e.seed))
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *tcpSystem) round(r int) (roundStats, error) {
	out := s.coord.RunRound(r)
	return syncStats(out.Selected, out.Reporters, out.Failed, out.Cut)
}

func (s *tcpSystem) params() []float64 { return s.coord.Global() }

func (s *tcpSystem) finish() (quality, error) {
	q := quality{clusters: s.sched.NumClusters()}
	q.wireDown, q.wireUp = s.clients.wireBytes()
	entries, err := os.ReadDir(s.store)
	for _, de := range entries {
		if info, err := de.Info(); err == nil {
			q.checkpointBytes += info.Size()
		}
	}
	return q, err
}

func (s *tcpSystem) close() error {
	err := s.srv.Close()
	if werr := s.clients.wait(); err == nil {
		err = werr
	}
	if s.store != "" {
		os.RemoveAll(s.store)
	}
	return err
}

// shardedSystem is tcp-sharded: a shard.Root over two shard agents,
// each an flnet server owning one client.
type shardedSystem struct {
	root    *shard.Root
	rootSrv *shard.RootServer
	servers []*flnet.Server
	agents  []*shard.Agent
	agentWG sync.WaitGroup
	clients *clientSet
	sched   *schedProbe
}

const shards = 2

func buildSharded(e env) (system, error) {
	clients := newClients(e, shards)
	rootSrv, err := shard.NewRootServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &shardedSystem{rootSrv: rootSrv, clients: clients}
	for id := 0; id < shards; id++ {
		srv, err := flnet.NewServer("127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		s.servers = append(s.servers, srv)
		if err := clients.serve(id, srv.Addr()); err != nil {
			s.close()
			return nil, err
		}
		if _, err := srv.AcceptClients(1); err != nil {
			s.close()
			return nil, err
		}
		a, err := shard.NewAgent(shard.AgentConfig{ShardID: id, Root: rootSrv.Addr(), Server: srv,
			RedialEvery: 5 * time.Millisecond, RedialFor: 10 * time.Second})
		if err != nil {
			s.close()
			return nil, err
		}
		s.agents = append(s.agents, a)
		s.agentWG.Add(1)
		go func() {
			defer s.agentWG.Done()
			a.Run()
		}()
	}
	if _, err := rootSrv.AcceptShards(shards); err != nil {
		s.close()
		return nil, err
	}
	s.sched = newScheduler(e, clients.regs)
	s.root, err = shard.NewRoot(rootSrv, shard.RootConfig{ClientsPerRound: shards, Arch: lenet}, s.sched, initialParams(e.seed))
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *shardedSystem) round(r int) (roundStats, error) {
	out := s.root.RunRound(r)
	return syncStats(out.Selected, out.Reporters, out.Failed, out.Cut)
}

func (s *shardedSystem) params() []float64 { return s.root.Global() }

func (s *shardedSystem) finish() (quality, error) {
	q := quality{clusters: s.sched.NumClusters()}
	q.wireDown, q.wireUp = s.clients.wireBytes()
	return q, nil
}

func (s *shardedSystem) close() error {
	err := s.rootSrv.Shutdown()
	for _, a := range s.agents {
		a.Close()
	}
	s.agentWG.Wait()
	for _, srv := range s.servers {
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
	}
	if werr := s.clients.wait(); err == nil {
		err = werr
	}
	return err
}
