package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"time"

	"informing/internal/core"
	"informing/internal/experiments"
	"informing/internal/interp"
	"informing/internal/isa"
	"informing/internal/mem"
	"informing/internal/sched"
	"informing/internal/workload"
)

const (
	gridWorkers  = 2
	gridMaxInsts = 100_000_000
)

var gridMachines = []core.Machine{core.OutOfOrder, core.InOrder}

// grid runs the Figure 2 handler-overhead sweep: 13 benchmarks x 2
// machines x 5 plans, the work a handlerbench user waits for.
type grid struct {
	bms       []workload.Benchmark // seeded order
	specs     []experiments.PlanSpec
	progs     map[gridProg]*isa.Program
	buildTime time.Duration
	seed      int64

	want          []experiments.Result // first pass; every later pass must equal it
	insts, cycles uint64

	// Per-cell core.Config.Run time summed over the traced passes.
	cellTime     []time.Duration
	tracedPasses int
}

type gridProg struct{ bm, plan string }

type gridCell struct {
	bm      workload.Benchmark
	machine core.Machine
	spec    experiments.PlanSpec
}

func setupGrid(e *env) (instance, error) {
	bms := workload.Fig2Set()
	rng := newRand(e.seed)
	rng.Shuffle(len(bms), func(i, j int) { bms[i], bms[j] = bms[j], bms[i] })
	if n := e.size.gridBenchmarks; n > 0 && n < len(bms) {
		bms = bms[:n]
	}
	g := &grid{bms: bms, specs: experiments.Figure2Plans(), progs: map[gridProg]*isa.Program{}, seed: e.seed}
	t0 := time.Now()
	for _, bm := range bms {
		for _, spec := range g.specs {
			prog, err := workload.Build(bm, spec.Make(), 1)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", bm.Name, spec.Label, err)
			}
			g.progs[gridProg{bm.Name, spec.Label}] = prog
		}
	}
	g.buildTime = time.Since(t0)
	return g, nil
}

func (g *grid) cells() []gridCell {
	var cs []gridCell
	for _, bm := range g.bms {
		for _, m := range gridMachines {
			for _, spec := range g.specs {
				cs = append(cs, gridCell{bm, m, spec})
			}
		}
	}
	return cs
}

func (g *grid) summary() string {
	names := make([]string, len(g.bms))
	for i, bm := range g.bms {
		names[i] = bm.Name
	}
	return fmt.Sprintf("%d cells at scale 1, benchmark order %v", len(g.cells()), names)
}

func (g *grid) close() {}

func (g *grid) measure(deadline time.Time, tr *tracer) (phase, error) {
	var (
		ph    phase
		rates []float64
	)
	for ph.another(deadline) {
		ph.attempted++
		var (
			res []experiments.Result
			d   time.Duration
			err error
		)
		if tr == nil {
			t0 := time.Now()
			res, err = experiments.HandlerOverhead(g.bms, g.specs, experiments.Options{
				Scale: 1, MaxInsts: gridMaxInsts, Machines: gridMachines, Workers: gridWorkers})
			d = time.Since(t0)
		} else {
			res, d, err = g.tracedPass(tr)
		}
		if err != nil {
			ph.fail("grid pass: %v", err)
			continue
		}
		insts, err := g.check(res, tr != nil)
		if err != nil {
			ph.fail("grid pass: %v", err)
			continue
		}
		ph.lat = append(ph.lat, d)
		rates = append(rates, float64(insts)/d.Seconds())
	}
	ph.rate = median(rates)
	return ph, nil
}

// check validates one pass: every run passes its counter and taxonomy
// invariants, and the pass equals the first one (runs only for the
// traced replica, which does not normalise). It returns the pass's
// simulated instruction count.
func (g *grid) check(res []experiments.Result, runsOnly bool) (uint64, error) {
	if len(res) != len(g.cells()) {
		return 0, fmt.Errorf("%d results, want %d", len(res), len(g.cells()))
	}
	var insts, cycles uint64
	for _, r := range res {
		if err := r.Run.Check(); err != nil {
			return 0, fmt.Errorf("%s/%v/%s: %w", r.Benchmark, r.Machine, r.Plan, err)
		}
		if err := r.Run.CheckTaxonomy(); err != nil {
			return 0, fmt.Errorf("%s/%v/%s: %w", r.Benchmark, r.Machine, r.Plan, err)
		}
		insts += r.Run.DynInsts
		cycles += uint64(r.Run.Cycles)
	}
	if g.want == nil {
		g.want, g.insts, g.cycles = res, insts, cycles
		return insts, nil
	}
	for i, r := range res {
		w := g.want[i]
		same := r.Benchmark == w.Benchmark && r.Machine == w.Machine && r.Plan == w.Plan && reflect.DeepEqual(r.Run, w.Run)
		if !runsOnly {
			same = same && r.Norm == w.Norm
		}
		if !same {
			return 0, fmt.Errorf("%s/%v/%s differs from the first pass", r.Benchmark, r.Machine, r.Plan)
		}
	}
	return insts, nil
}

// tracedPass is HandlerOverhead's own loop (sched.Map over the cells,
// each program built once per pass and shared by both machines) with a
// span around every call into a layer.
func (g *grid) tracedPass(tr *tracer) ([]experiments.Result, time.Duration, error) {
	pass := tr.begin("experiments.pass", 0, 0)
	type built struct {
		once sync.Once
		prog *isa.Program
		err  error
	}
	progs := map[gridProg]*built{}
	for k := range g.progs {
		progs[k] = &built{}
	}
	cells := g.cells()
	if g.cellTime == nil {
		g.cellTime = make([]time.Duration, len(cells))
	}
	g.tracedPasses++
	jobs := make([]sched.Job[experiments.Result], len(cells))
	for i, c := range cells {
		jobs[i] = func(ctx context.Context) (experiments.Result, error) {
			job := tr.begin("sched.job", pass.id, 0)
			defer job.stop()
			b := progs[gridProg{c.bm.Name, c.spec.Label}]
			b.once.Do(func() {
				bt := tr.begin("workload.build", job.id, 0)
				b.prog, b.err = workload.Build(c.bm, c.spec.Make(), 1)
				bt.stop()
			})
			if b.err != nil {
				return experiments.Result{}, b.err
			}
			cfg := experiments.ConfigFor(c.machine, c.spec.Scheme).WithMaxInsts(gridMaxInsts).WithContext(ctx)
			run := tr.begin("core.run."+machineName(c.machine), job.id, 0)
			r, err := cfg.Run(b.prog)
			g.cellTime[i] += run.stop() // each job owns element i
			return experiments.Result{Benchmark: c.bm.Name, Machine: c.machine, Plan: c.spec.Label, Run: r}, err
		}
	}
	res, err := sched.Map(context.Background(), gridWorkers, jobs)
	return res, pass.stop(), err
}

func machineName(m core.Machine) string {
	if m == core.InOrder {
		return "inorder"
	}
	return "ooo"
}

func (g *grid) layers(tr *tracer, m metrics) error {
	spans := tr.snapshot()
	lt := byName(spans)
	get := func(name string) *layerTime {
		if l := lt[name]; l != nil {
			return l
		}
		return &layerTime{}
	}
	passes := get("experiments.pass")
	if passes.n == 0 {
		return fmt.Errorf("no traced grid pass")
	}
	// Instructions per machine in one pass; every pass is identical.
	perMachine := map[core.Machine]uint64{}
	for _, r := range g.want {
		perMachine[r.Machine] += r.Run.DynInsts
	}
	n := uint64(passes.n)
	m["core.ooo_ns_per_inst"] = perUnit(get("core.run.ooo").total, n*perMachine[core.OutOfOrder], time.Nanosecond)
	m["core.inorder_ns_per_inst"] = perUnit(get("core.run.inorder").total, n*perMachine[core.InOrder], time.Nanosecond)
	busy := get("sched.job").total
	m["sched.idle_frac"] = 1 - busy.Seconds()/(gridWorkers*passes.total.Seconds())
	m["workload.build_ms"] = ms(g.buildTime)
	m["grid.sim_insts"] = float64(g.insts)
	m["grid.sim_cycles"] = float64(g.cycles)
	return g.splitCells(tr, m)
}

// splitCells splits the cells of the N and S1 plans (the baseline and
// the paper's headline handler) into layers, on one goroutine: the
// functional front end with the hierarchy as its probe
// (interp.Machine.Run), then its recorded probe stream replayed through
// the hierarchy with and without the miss taxonomy. The timing-core
// share is the cell's traced core.Config.Run time minus the interp run,
// and the interp share the interp run minus the probe replay, so both
// are estimates.
func (g *grid) splitCells(tr *tracer, m metrics) error {
	var (
		coreT, interpT          [2]time.Duration
		coreInsts               [2]uint64
		interpOnly, probe, bare time.Duration
		interpInsts, refs       uint64
	)
	split := tr.begin("grid.split", 0, 0)
	defer split.stop()
	for i, c := range g.cells() {
		if c.spec.Label != "N" && c.spec.Label != "S1" {
			continue
		}
		mi := 0
		if c.machine == core.InOrder {
			mi = 1
		}
		prog := g.progs[gridProg{c.bm.Name, c.spec.Label}]
		coreT[mi] += g.cellTime[i] / time.Duration(g.tracedPasses)
		coreInsts[mi] += g.want[i].Run.DynInsts

		hc := experiments.ConfigFor(c.machine, c.spec.Scheme).HierConfig()
		h, err := mem.NewHierarchy(hc)
		if err != nil {
			return err
		}
		fm := interp.New(prog, c.spec.Scheme.Mode(), h.ProbeData)
		it := tr.begin("interp.run", split.id, 0)
		err = fm.Run(gridMaxInsts)
		d := it.stop()
		if err != nil {
			return err
		}
		interpT[mi] += d

		addrs, writes, err := probeStream(prog, c.spec.Scheme.Mode(), hc)
		if err != nil {
			return err
		}
		p, b, err := replayStream(tr, split.id, hc, addrs, writes)
		if err != nil {
			return err
		}
		interpOnly += d - p
		interpInsts += fm.Seq
		probe += p
		bare += b
		refs += uint64(len(addrs))
	}
	for mi, name := range []string{"ooo", "inorder"} {
		m[name+".self_ns_per_inst"] = perUnit(coreT[mi]-interpT[mi], coreInsts[mi], time.Nanosecond)
	}
	m["interp.ns_per_inst"] = perUnit(interpOnly, interpInsts, time.Nanosecond)
	m["mem.probe_ns_per_ref"] = perUnit(probe, refs, time.Nanosecond)
	m["mem.taxonomy_ns_per_ref"] = perUnit(probe-bare, refs, time.Nanosecond)
	return nil
}

// probeStream runs prog on the functional model and returns the data
// references its probe saw, in order.
func probeStream(prog *isa.Program, mode interp.Mode, hc mem.HierConfig) ([]uint64, []bool, error) {
	h, err := mem.NewHierarchy(hc)
	if err != nil {
		return nil, nil, err
	}
	var (
		addrs  []uint64
		writes []bool
	)
	fm := interp.New(prog, mode, func(addr uint64, write bool) int {
		addrs = append(addrs, addr)
		writes = append(writes, write)
		return h.ProbeData(addr, write)
	})
	if err := fm.Run(gridMaxInsts); err != nil {
		return nil, nil, err
	}
	return addrs, writes, nil
}

// replayStreamReps is how often each stream is replayed; the fastest
// replay counts, since a stream of ~100k references takes about a
// millisecond and one preemption would swamp it.
const replayStreamReps = 3

// replayStream replays a reference stream through a fresh hierarchy
// (mem.Hierarchy.ProbeData, taxonomy on) and through a bare L1/L2 pair of
// mem.Caches without the taxonomy, returning the best time of each.
func replayStream(tr *tracer, parent int, hc mem.HierConfig, addrs []uint64, writes []bool) (probe, bare time.Duration, err error) {
	for rep := 0; rep < replayStreamReps; rep++ {
		h, err := mem.NewHierarchy(hc)
		if err != nil {
			return 0, 0, err
		}
		t := tr.begin("mem.probe", parent, 0)
		for i, a := range addrs {
			h.ProbeData(a, writes[i])
		}
		if d := t.stop(); rep == 0 || d < probe {
			probe = d
		}

		l1, err := mem.NewCache(hc.L1)
		if err != nil {
			return 0, 0, err
		}
		l2, err := mem.NewCache(hc.L2)
		if err != nil {
			return 0, 0, err
		}
		t = tr.begin("mem.bare", parent, 0)
		for i, a := range addrs {
			if hit, _, _ := l1.Access(a, writes[i]); !hit {
				l2.Access(a, writes[i])
			}
		}
		if d := t.stop(); rep == 0 || d < bare {
			bare = d
		}
	}
	return probe, bare, nil
}
