package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"strings"
	"time"

	"informing/internal/core"
	"informing/internal/experiments"
	"informing/internal/isa"
	"informing/internal/mem"
	"informing/internal/obs"
	"informing/internal/sched"
	"informing/internal/stats"
	"informing/internal/trace"
	"informing/internal/workload"
)

// recorded is one full (sample-1) JSONL trace and the run that wrote it.
type recorded struct {
	label string
	hier  mem.HierConfig
	run   stats.Run
	jsonl []byte      // trace_ingest only
	data  *trace.Data // trace_sweep only
}

// recordTraces records the two traces both trace workloads use: a
// miss-heavy FP benchmark on the in-order machine and a hit-heavy INT
// benchmark on the out-of-order one, each under the single 1-instruction
// handler plan. The traces do not depend on the seed, so that every seed
// measures the same work; the seed orders them (and, in the sweep, the
// specs). Each trace is written to a file and read back, so no growing
// buffer inflates peak memory.
func recordTraces(e *env, load bool) ([]recorded, error) {
	picks := []struct {
		bm      string
		machine core.Machine
	}{{e.size.traceFP, core.InOrder}, {e.size.traceINT, core.OutOfOrder}}
	newRand(e.seed).Shuffle(len(picks), func(i, j int) { picks[i], picks[j] = picks[j], picks[i] })
	spec, err := experiments.PlanByLabel("S1")
	if err != nil {
		return nil, err
	}
	var out []recorded
	for _, p := range picks {
		bm, ok := workload.ByName(p.bm)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", p.bm)
		}
		prog, err := workload.Build(bm, spec.Make(), 1)
		if err != nil {
			return nil, err
		}
		cfg := experiments.ConfigFor(p.machine, spec.Scheme).WithMaxInsts(gridMaxInsts)
		r := recorded{label: fmt.Sprintf("%s/%s/%s", bm.Name, machineName(p.machine), spec.Label), hier: cfg.HierConfig()}
		path, err := recordFile(e.dir, cfg, prog, &r.run)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.label, err)
		}
		if load {
			r.data, err = loadFile(path)
		} else {
			r.jsonl, err = os.ReadFile(path)
		}
		os.Remove(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.label, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// recordFile runs prog with a full JSONL trace written to a new file in
// dir, stores the run in *run and returns the file's path.
func recordFile(dir string, cfg core.Config, prog *isa.Program, run *stats.Run) (string, error) {
	f, err := os.CreateTemp(dir, "trace-*.jsonl")
	if err != nil {
		return "", err
	}
	sink := obs.NewJSONL(f, 1) // Close closes f
	*run, err = cfg.WithTrace(sink.Emit).Run(prog)
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

func loadFile(path string) (*trace.Data, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Load(bufio.NewReader(f), trace.ReaderConfig{})
}

func traceSummary(rs []recorded) string {
	var parts []string
	for _, r := range rs {
		if r.data != nil {
			parts = append(parts, fmt.Sprintf("%s %d events %d refs", r.label, r.data.Events, len(r.data.Refs)))
		} else {
			parts = append(parts, fmt.Sprintf("%s %d events %.1f MB", r.label, r.run.DynInsts, float64(len(r.jsonl))/1e6))
		}
	}
	return strings.Join(parts, "; ")
}

// traceIngest replays each trace from its JSONL bytes and reconciles it
// delta-0 against the recording run: the path of a trace upload.
type traceIngest struct{ traces []recorded }

func setupTraceIngest(e *env) (instance, error) {
	rs, err := recordTraces(e, false)
	if err != nil {
		return nil, err
	}
	return &traceIngest{rs}, nil
}

func (t *traceIngest) summary() string { return traceSummary(t.traces) }
func (t *traceIngest) close()          {}

func (t *traceIngest) measure(deadline time.Time, tr *tracer) (phase, error) {
	var (
		ph    phase
		rates []float64
	)
	for ph.another(deadline) {
		ph.attempted++
		round := tr.begin("trace.round", 0, 0)
		var events uint64
		var bad error
		for _, r := range t.traces {
			sp := tr.begin("trace.replay", round.id, 0)
			res, err := trace.Replay(bytes.NewReader(r.jsonl), trace.ReplayConfig{Hier: r.hier})
			sp.stop()
			if err == nil {
				err = res.Reconcile(r.run)
			}
			if err != nil {
				bad = fmt.Errorf("%s: %w", r.label, err)
				break
			}
			events += res.Total.Events
		}
		d := round.stop()
		if bad != nil {
			ph.fail("ingest: %v", bad)
			continue
		}
		ph.lat = append(ph.lat, d)
		rates = append(rates, float64(events)/d.Seconds())
	}
	ph.rate = median(rates)
	return ph, nil
}

// layers splits ingest into parsing (trace.Load) and replaying the
// loaded references (trace.ReplayData), each the median of three timings.
func (t *traceIngest) layers(tr *tracer, m metrics) error {
	var parse, replay []float64
	var bytesTotal, events uint64
	for rep := 0; rep < 3; rep++ {
		var parseT, replayT time.Duration
		var refs uint64
		events, bytesTotal = 0, 0
		for _, r := range t.traces {
			sp := tr.begin("trace.load", 0, 0)
			d, err := trace.Load(bytes.NewReader(r.jsonl), trace.ReaderConfig{})
			parseT += sp.stop()
			if err != nil {
				return err
			}
			sp = tr.begin("trace.replay_data", 0, 0)
			_, err = trace.ReplayData(d, trace.ReplayConfig{Hier: r.hier})
			replayT += sp.stop()
			if err != nil {
				return err
			}
			events += d.Events
			refs += uint64(len(d.Refs))
			bytesTotal += uint64(len(r.jsonl))
		}
		parse = append(parse, perUnit(parseT, events, time.Nanosecond))
		replay = append(replay, perUnit(replayT, refs, time.Nanosecond))
	}
	m["trace.parse_ns_per_event"] = median(parse)
	m["trace.replay_ns_per_ref"] = median(replay)
	if events > 0 {
		m["trace.bytes_per_event"] = float64(bytesTotal) / float64(events)
	}
	return nil
}

// traceSweep replays the loaded traces through the 5 TraceGeometries x 4
// replacement policies, the experiments.TraceSweep a captured trace
// exists for.
type traceSweep struct {
	traces []recorded
	specs  [][]experiments.GeometrySpec // per trace
	want   [][]experiments.TraceResult  // first round
	refs   uint64                       // references replayed per round
}

const sweepWorkers = 2

func setupTraceSweep(e *env) (instance, error) {
	rs, err := recordTraces(e, true)
	if err != nil {
		return nil, err
	}
	t := &traceSweep{traces: rs}
	for _, r := range rs {
		var specs []experiments.GeometrySpec
		for _, pol := range mem.PolicyNames() {
			for _, g := range experiments.TraceGeometries(r.hier) {
				g.Label += "/" + pol
				g.Hier.L1.Policy, g.Hier.L2.Policy = pol, pol
				specs = append(specs, g)
			}
		}
		t.specs = append(t.specs, specs)
		t.refs += uint64(len(specs) * len(r.data.Refs))
	}
	return t, nil
}

func (t *traceSweep) summary() string {
	return fmt.Sprintf("%s; %d specs per trace", traceSummary(t.traces), len(t.specs[0]))
}
func (t *traceSweep) close() {}

func (t *traceSweep) measure(deadline time.Time, tr *tracer) (phase, error) {
	var (
		ph    phase
		rates []float64
	)
	for ph.another(deadline) {
		ph.attempted++
		round := tr.begin("trace.round", 0, 0)
		var got [][]experiments.TraceResult
		var bad error
		for i, r := range t.traces {
			var res []experiments.TraceResult
			var err error
			if tr == nil {
				res, err = experiments.TraceSweep(r.data, t.specs[i], experiments.Options{Workers: sweepWorkers})
			} else {
				res, err = tracedSweep(tr, round.id, r.data, t.specs[i])
			}
			if err == nil {
				err = t.checkBase(r, res)
			}
			if err != nil {
				bad = fmt.Errorf("%s: %w", r.label, err)
				break
			}
			got = append(got, res)
		}
		d := round.stop()
		if bad == nil && t.want != nil && !reflect.DeepEqual(got, t.want) {
			bad = fmt.Errorf("results differ from the first round")
		}
		if bad != nil {
			ph.fail("sweep: %v", bad)
			continue
		}
		if t.want == nil {
			t.want = got
		}
		ph.lat = append(ph.lat, d)
		rates = append(rates, float64(t.refs)/d.Seconds())
	}
	ph.rate = median(rates)
	return ph, nil
}

// checkBase reconciles the recording geometry under LRU delta-0 against
// the run that wrote the trace.
func (t *traceSweep) checkBase(r recorded, res []experiments.TraceResult) error {
	for _, x := range res {
		if x.Label == "base/"+mem.PolicyLRU {
			rr := x.Replay
			return rr.Reconcile(r.run)
		}
	}
	return fmt.Errorf("no base/lru row")
}

// tracedSweep is experiments.TraceSweep's own loop (sched.Map over the
// specs, trace.ReplayData in each job) with spans around each job and
// replay; the replay span carries the policy in its name.
func tracedSweep(tr *tracer, parent int, d *trace.Data, specs []experiments.GeometrySpec) ([]experiments.TraceResult, error) {
	sweep := tr.begin("experiments.sweep", parent, 0)
	defer sweep.stop()
	jobs := make([]sched.Job[experiments.TraceResult], len(specs))
	for i, spec := range specs {
		jobs[i] = func(ctx context.Context) (experiments.TraceResult, error) {
			job := tr.begin("sched.job", sweep.id, 0)
			defer job.stop()
			pol := spec.Hier.L1.Policy
			sp := tr.begin("trace.replay_data."+pol, job.id, 0)
			res, err := trace.ReplayData(d, trace.ReplayConfig{Hier: spec.Hier, Ctx: ctx})
			sp.stop()
			if err != nil {
				return experiments.TraceResult{}, fmt.Errorf("replay %s: %w", spec.Label, err)
			}
			return experiments.TraceResult{Label: spec.Label, Hier: spec.Hier, Replay: *res}, nil
		}
	}
	return sched.Map(context.Background(), sweepWorkers, jobs)
}

func (t *traceSweep) layers(tr *tracer, m metrics) error {
	lt := byName(tr.snapshot())
	sweeps := lt["experiments.sweep"]
	if sweeps == nil {
		return fmt.Errorf("no traced sweep")
	}
	// Every traced sweep replays each trace's references once per spec;
	// the policies split the specs evenly.
	rounds := uint64(sweeps.n / len(t.traces))
	perPolicy := rounds * t.refs / uint64(len(mem.PolicyNames()))
	var all time.Duration
	for _, pol := range mem.PolicyNames() {
		l := lt["trace.replay_data."+pol]
		if l == nil {
			return fmt.Errorf("no %s replays traced", pol)
		}
		m["mem.policy_ns_per_ref."+pol] = perUnit(l.total, perPolicy, time.Nanosecond)
		all += l.total
	}
	m["trace.replay_ns_per_ref"] = perUnit(all, rounds*t.refs, time.Nanosecond)
	if jobs := lt["sched.job"]; jobs != nil {
		m["sched.idle_frac"] = 1 - jobs.total.Seconds()/(sweepWorkers*sweeps.total.Seconds())
	}

	// Probe and taxonomy cost over the traces' own references, through
	// the recording geometry.
	var probe, bare time.Duration
	var refs uint64
	for _, r := range t.traces {
		addrs := make([]uint64, len(r.data.Refs))
		writes := make([]bool, len(r.data.Refs))
		for i, ref := range r.data.Refs {
			addrs[i], writes[i] = ref.Addr, ref.Store
		}
		p, b, err := replayStream(tr, 0, r.hier, addrs, writes)
		if err != nil {
			return err
		}
		probe += p
		bare += b
		refs += uint64(len(addrs))
	}
	m["mem.probe_ns_per_ref"] = perUnit(probe, refs, time.Nanosecond)
	m["mem.taxonomy_ns_per_ref"] = perUnit(probe-bare, refs, time.Nanosecond)
	return nil
}
