// Command tracecheck validates a JSONL pipeline trace produced with
// -trace-out (see internal/obs and the EXPERIMENTS.md observability
// section): every line must parse against the stable schema, carry the
// required fields, and respect the per-instruction stage ordering
// fetch ≤ issue ≤ complete ≤ graduate. It is the CI gate for the trace
// format — partial traces flushed by aborted runs must pass it too.
//
//	tracecheck trace.jsonl        validate a file
//	tracecheck -                  validate stdin
//
// Exit status 0 with a one-line summary when the trace is valid; 1 with
// the offending line otherwise. Sequence numbers may reset mid-file
// (experiment sweeps concatenate the traces of many independent runs)
// and sampled (-trace-sample N) traces are fine here: seq continuity is
// a replay-time concern (internal/trace.Load and Replay), not a format one.
//
// Validation is the shared internal/trace line parser — strict,
// allocation-free, and differentially pinned against encoding/json — so
// multi-GB traces validate without per-line garbage. Schema-v2 traces
// (addr/kind/tid on memory events) and v1 traces both pass.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"informing/internal/trace"
)

func main() {
	quiet := flag.Bool("q", false, "suppress the summary line")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-q] trace.jsonl|-")
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	name := flag.Arg(0)
	if name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		in = f
	}

	lines, traps, err := validate(in)
	if err != nil {
		fail("%s: %v", name, err)
	}
	if !*quiet {
		fmt.Printf("tracecheck: %s: %d events ok (%d traps)\n", name, lines, traps)
	}
}

// validate checks every line of the trace, returning the event and trap
// counts or the first violation found. One scanner buffer and one Event
// are reused across all lines (the historical implementation built a
// fresh json.Decoder per line and converted every line to a string
// twice; TestValidateAllocationBounded pins the fix).
func validate(in io.Reader) (lines, traps uint64, err error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var ev trace.Event
	n := 0
	for sc.Scan() {
		n++
		raw := sc.Bytes()
		if len(raw) == 0 {
			return lines, traps, fmt.Errorf("line %d: empty line", n)
		}
		if err := trace.ParseLine(raw, &ev); err != nil {
			return lines, traps, fmt.Errorf("line %d: %v", n, err)
		}
		if err := ev.Validate(); err != nil {
			return lines, traps, fmt.Errorf("line %d: %v", n, err)
		}
		lines++
		if ev.Trap {
			traps++
		}
	}
	if err := sc.Err(); err != nil {
		return lines, traps, err
	}
	return lines, traps, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracecheck: "+format+"\n", args...)
	os.Exit(1)
}
