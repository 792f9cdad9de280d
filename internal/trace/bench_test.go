package trace

import (
	"bytes"
	"sync"
	"testing"
)

// The recorded traces informbench's trace workloads ingest, recorded once
// per benchmark process.
var (
	benchOnce    sync.Once
	benchRecords []recordedTrace
)

func recordedBenchTraces(b *testing.B) []recordedTrace {
	benchOnce.Do(func() { benchRecords = benchTraces(b) })
	if len(benchRecords) == 0 {
		b.Fatal("recording the benchmark traces failed")
	}
	return benchRecords
}

// BenchmarkParseLine is the per-line parse layer alone: ParseLine and
// Validate on every line of each recorded trace, on one goroutine.
func BenchmarkParseLine(b *testing.B) {
	for _, tr := range recordedBenchTraces(b) {
		lines := bytes.Split(bytes.TrimSuffix(tr.jsonl, []byte("\n")), []byte("\n"))
		b.Run(tr.name, func(b *testing.B) {
			b.SetBytes(int64(len(tr.jsonl)))
			b.ReportAllocs()
			var ev Event
			for i := 0; i < b.N; i++ {
				for _, line := range lines {
					if err := ParseLine(line, &ev); err != nil {
						b.Fatal(err)
					}
					if err := ev.Validate(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lines)), "ns/event")
		})
	}
}

// BenchmarkLoad is ingest without replay: the block-parallel reader over
// each recorded trace, from bytes to the reference stream.
func BenchmarkLoad(b *testing.B) {
	for _, tr := range recordedBenchTraces(b) {
		b.Run(tr.name, func(b *testing.B) {
			b.SetBytes(int64(len(tr.jsonl)))
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				d, err := Load(bytes.NewReader(tr.jsonl), tr.cfg.Reader)
				if err != nil {
					b.Fatal(err)
				}
				events = d.Events
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*events), "ns/event")
		})
	}
}
