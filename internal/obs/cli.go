package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"informing/internal/stats"
)

// Flags is the shared observability flag set of the bench/sim commands
// (internal/prof-style plumbing): register before flag.Parse, Start after.
//
//	-metrics            collect the simulator metrics registry, print it
//	                    as JSON on exit (stderr, so tables stay clean)
//	-trace-out file     stream sampled TraceEvents as JSONL (- = stdout)
//	-trace-sample N     emit one trace event per N graduated instructions
//	-http addr          serve GET /metrics live (":0" = ephemeral port)
//	-progress dur       print a progress line every dur (e.g. 2s)
type Flags struct {
	metrics     *bool
	traceOut    *string
	traceSample *int
	httpAddr    *string
	progress    *time.Duration
}

// RegisterFlags adds the observability flags to the default flag set.
// Call before flag.Parse.
func RegisterFlags() *Flags {
	return &Flags{
		metrics:     flag.Bool("metrics", false, "collect live metrics and print the registry JSON on exit (stderr)"),
		traceOut:    flag.String("trace-out", "", "write sampled per-instruction trace events to `file` as JSONL (- = stdout)"),
		traceSample: flag.Int("trace-sample", 1, "keep one trace event per `N` graduated instructions"),
		httpAddr:    flag.String("http", "", "serve live metrics on `addr` (GET /metrics; \":0\" picks a port)"),
		progress:    flag.Duration("progress", 0, "print a progress line (instrs/sec, IPC, miss rate) every `interval`"),
	}
}

// Session is the running observability state built from the flags. The
// zero-cost contract: when no observability flag is given, Sim is nil and
// Trace returns nil, so the engines keep their fully disabled hot path.
//
// Close is idempotent and must run on EVERY exit path, including error
// exits and govern aborts — it is the single place the trace sink is
// flushed, so skipping it on an abort loses the buffered tail of the
// trace (the bug this layer exists to fix). Use CloseThenExit where the
// command would call os.Exit.
type Session struct {
	// Sim is the live metric bundle, nil when metrics, progress and the
	// HTTP endpoint are all disabled.
	Sim *Sim

	sink         *JSONLSink
	traceEvery   uint64
	printMetrics bool
	errw         io.Writer

	httpSrv      *Server
	stopProgress func()

	closeOnce sync.Once
	closeErr  error
}

// Start materialises the session: opens the trace sink, binds the HTTP
// endpoint, and launches the progress reporter. Diagnostics (progress
// lines, the metrics dump, the bound HTTP address) go to errw so the
// commands' stdout tables remain byte-identical with observability on.
func (f *Flags) Start(errw io.Writer) (*Session, error) {
	if errw == nil {
		errw = os.Stderr
	}
	s := &Session{errw: errw, printMetrics: *f.metrics}
	if *f.metrics || *f.httpAddr != "" || *f.progress > 0 {
		s.Sim = NewSim()
	}
	if *f.traceOut != "" {
		var w io.Writer = os.Stdout
		if *f.traceOut != "-" {
			file, err := os.Create(*f.traceOut)
			if err != nil {
				return nil, fmt.Errorf("obs: %w", err)
			}
			w = file
		}
		// Sampling happens at the source (TraceEvery), so the sink keeps
		// everything it is offered.
		s.sink = NewJSONL(w, 1)
		s.traceEvery = 1
		if *f.traceSample > 1 {
			s.traceEvery = uint64(*f.traceSample)
		}
	}
	if *f.httpAddr != "" {
		srv, err := Serve(*f.httpAddr, s.Sim.Reg)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.httpSrv = srv
		fmt.Fprintf(errw, "obs: serving /metrics on http://%s\n", srv.Addr())
	}
	if *f.progress > 0 {
		s.stopProgress = StartProgress(errw, s.Sim, *f.progress)
	}
	return s, nil
}

// Trace returns the per-instruction trace callback to install on the
// engine configuration, or nil when tracing is disabled.
func (s *Session) Trace() func(stats.TraceEvent) {
	if s.sink == nil {
		return nil
	}
	return s.sink.Emit
}

// TraceEvery returns the source-side sampling interval for the engines'
// TraceEvery knob (0 when tracing is disabled: the engines then never
// construct an event at all).
func (s *Session) TraceEvery() uint64 { return s.traceEvery }

// Close stops the progress reporter, shuts the HTTP endpoint, flushes and
// closes the trace sink, and — when -metrics was given — prints the
// registry JSON. Idempotent; always returns the first error observed.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		if s.stopProgress != nil {
			s.stopProgress()
		}
		if s.httpSrv != nil {
			if err := s.httpSrv.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
		if s.sink != nil {
			if err := s.sink.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
		if s.printMetrics && s.Sim != nil {
			fmt.Fprintln(s.errw, "obs: metrics registry:")
			if err := s.Sim.Reg.WriteJSON(s.errw); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// CloseThenExit closes the session (reporting any close error) and exits
// with code. Commands use it on error paths so a govern abort or SIGINT
// still flushes the partial trace and prints the metrics collected so
// far — the observability analogue of prof.StopThenExit.
func (s *Session) CloseThenExit(code int) {
	if err := s.Close(); err != nil {
		fmt.Fprintf(s.errw, "obs: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}
