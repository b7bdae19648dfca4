package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"clonos/internal/obs"
)

// writeTrace writes one traced run as a flight recording that
// cmd/clonos-trace and obs.ReadTraceJSONL read: the runtime's own tracer
// events and spans (checkpoints, recoveries), the benchmark's 100 ms
// registry samples, and the benchmark's replay spans. A replay span
// carries its id, its parent's id, its trace identifier and its item
// count as attributes.
func writeTrace(dir, workload string, engine, samples []obs.TraceRecord, spans []span) (string, error) {
	recs := append(append([]obs.TraceRecord(nil), engine...), samples...)
	for _, s := range spans {
		attrs := map[string]string{"source": "bench", "id": strconv.FormatInt(s.ID, 10), "trace": s.Trace, "count": strconv.FormatInt(s.Count, 10)}
		if s.Parent != 0 {
			attrs["parent"] = strconv.FormatInt(s.Parent, 10)
		}
		recs = append(recs, obs.TraceRecord{Type: obs.RecordSpan, Name: s.Name, TS: s.Start, End: s.End, Attrs: attrs})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := obs.WriteTraceJSONL(f, recs); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}
