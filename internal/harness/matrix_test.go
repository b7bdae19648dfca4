package harness

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func sampleMatrixReport() *MatrixReport {
	return &MatrixReport{
		Loads:      []float64{0.5, 1.0},
		StateSizes: []int{1024},
		Failures:   []string{"single", "alignment"},
		Modes:      []string{"aligned"},
		Cells: []MatrixCell{
			{Load: 0.5, Rate: 2250, StateBytesPerKey: 1024, Failure: "single", Mode: "aligned",
				RecoveryMs: 800, RecoveryOK: true, DetectionMs: 650, LatencyP50Ms: 10, LatencyP99Ms: 40, SinkRecords: 1000, Repeats: 1},
			{Load: 1.0, Rate: 4500, StateBytesPerKey: 1024, Failure: "alignment", Mode: "aligned",
				RecoveryMs: 1200, RecoveryOK: true, DetectionMs: 700, LatencyP50Ms: 12, LatencyP99Ms: 55, SinkRecords: 2000, Repeats: 1},
			{Load: 1.0, Rate: 4500, StateBytesPerKey: 1024, Failure: "single", Mode: "aligned",
				RecoveryMs: 1000, RecoveryOK: true, DetectionMs: 680, LatencyP50Ms: 11, LatencyP99Ms: 48, SinkRecords: 2000, Repeats: 1},
		},
	}
}

// TestMatrixReportRoundTrip writes a matrix baseline and reads it back
// through the same path CI's schema validation uses.
func TestMatrixReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "matrix.json")
	want := sampleMatrixReport()
	if err := WriteMatrixReport(path, want, map[string]any{"grid": "test"}); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMatrixReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateMatrixReport(got, len(want.Cells)); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if len(got.Cells) != len(want.Cells) || got.Cells[1].Failure != "alignment" || got.Cells[1].RecoveryMs != 1200 {
		t.Fatalf("round-trip mismatch: %+v", got.Cells)
	}
}

// TestSettledSubMillisecondCellValidates: a recovery that settles in
// 0.3 ms is stored as 0.3 ms, not truncated to 0, so the self-check's
// rule that a settled cell has a positive recovery time holds on it.
func TestSettledSubMillisecondCellValidates(t *testing.T) {
	r := sampleMatrixReport()
	r.Cells[0].RecoveryMs = durMs(300 * time.Microsecond)
	path := filepath.Join(t.TempDir(), "matrix.json")
	if err := WriteMatrixReport(path, r, nil); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMatrixReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateMatrixReport(got, len(r.Cells)); err != nil {
		t.Fatalf("settled 0.3 ms cell: %v", err)
	}
	if ms := got.Cells[0].RecoveryMs; ms != 0.3 {
		t.Fatalf("recovery read back as %v ms, want 0.3", ms)
	}
}

// TestValidateMatrixReport exercises the schema invariants CI depends on.
func TestValidateMatrixReport(t *testing.T) {
	r := sampleMatrixReport()
	if err := ValidateMatrixReport(r, 4); err == nil || !strings.Contains(err.Error(), "cells") {
		t.Errorf("too-few-cells: err = %v, want cell-count error", err)
	}
	dup := sampleMatrixReport()
	dup.Cells = append(dup.Cells, dup.Cells[0])
	if err := ValidateMatrixReport(dup, 1); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate coordinates: err = %v, want duplicate error", err)
	}
	bad := sampleMatrixReport()
	bad.Cells[0].LatencyP99Ms = bad.Cells[0].LatencyP50Ms - 1
	if err := ValidateMatrixReport(bad, 1); err == nil || !strings.Contains(err.Error(), "latency") {
		t.Errorf("inverted percentiles: err = %v, want latency error", err)
	}
	unsettled := sampleMatrixReport()
	unsettled.Cells[0].RecoveryOK = true
	unsettled.Cells[0].RecoveryMs = 0
	if err := ValidateMatrixReport(unsettled, 1); err == nil {
		t.Error("settled cell with zero recovery passed validation")
	}
	future := sampleMatrixReport()
	future.Schema = MatrixSchemaVersion + 1
	if err := ValidateMatrixReport(future, 1); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("future schema: err = %v, want schema error", err)
	}
	violated := sampleMatrixReport()
	violated.Schema = MatrixSchemaVersion
	violated.Cells[1].AuditViolations = 3
	if err := ValidateMatrixReport(violated, 1); err == nil || !strings.Contains(err.Error(), "audit") {
		t.Errorf("schema-2 report with violations: err = %v, want audit error", err)
	}
	// A legacy report (no schema field) never ran audit-armed; violation
	// counts are absent and must not be enforced.
	legacy := sampleMatrixReport()
	legacy.Cells[1].AuditViolations = 3
	if err := ValidateMatrixReport(legacy, 1); err != nil {
		t.Errorf("legacy report rejected: %v", err)
	}
	// From schema 3 the checkpoint mode is a grid coordinate: unknown
	// values are rejected, and cells differing only by mode coexist.
	badMode := sampleMatrixReport()
	badMode.Schema = MatrixSchemaVersion
	badMode.Cells[0].Mode = "sideways"
	if err := ValidateMatrixReport(badMode, 1); err == nil || !strings.Contains(err.Error(), "mode") {
		t.Errorf("unknown mode: err = %v, want mode error", err)
	}
	modal := sampleMatrixReport()
	modal.Schema = MatrixSchemaVersion
	cell := modal.Cells[0]
	cell.Mode = "unaligned"
	modal.Cells = append(modal.Cells, cell)
	if err := ValidateMatrixReport(modal, 1); err != nil {
		t.Errorf("mode-distinct cells rejected as duplicates: %v", err)
	}
}

// TestMatrixLegacyModeNormalized proves pre-mode-axis reports load with
// every cell on the aligned coordinate, so baseline comparison keys line
// up with the cells' actual configuration.
func TestMatrixLegacyModeNormalized(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.json")
	legacy := sampleMatrixReport()
	legacy.Modes = nil
	for i := range legacy.Cells {
		legacy.Cells[i].Mode = ""
	}
	if err := WriteMatrixReport(path, legacy, nil); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMatrixReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Modes) != 1 || got.Modes[0] != "aligned" {
		t.Errorf("legacy modes axis = %v, want [aligned]", got.Modes)
	}
	for i, c := range got.Cells {
		if c.Mode != "aligned" {
			t.Errorf("legacy cell %d mode = %q, want aligned", i, c.Mode)
		}
	}
	if key := matrixCellKey(MatrixCell{Load: 1, StateBytesPerKey: 1024, Failure: "single"}); key != matrixCellKey(got.Cells[2]) {
		t.Errorf("legacy cell key %q does not match empty-mode key %q", matrixCellKey(got.Cells[2]), key)
	}
}

// TestCompareMatrixBaseline checks the regression gate: one noisy cell
// cannot move the median past the factor+slack limit, a grid-wide
// slowdown does, settled->unsettled flips are tolerated up to the
// allowance and reported past it, a detector regression fails on its
// own, and cells absent from the baseline are ignored.
func TestCompareMatrixBaseline(t *testing.T) {
	base := sampleMatrixReport()
	cur := sampleMatrixReport()
	cur.Cells[0].RecoveryMs = base.Cells[0].RecoveryMs * 20 // one noisy cell; median holds
	if regs := CompareMatrixBaseline(base, cur, 3, 0); len(regs) != 0 {
		t.Errorf("single noisy cell flagged: %v", regs)
	}
	for i := range cur.Cells { // grid-wide slowdown moves the median
		cur.Cells[i].RecoveryMs = base.Cells[i].RecoveryMs*3 + 1500
	}
	if regs := CompareMatrixBaseline(base, cur, 3, 0); len(regs) != 1 || !strings.Contains(regs[0], "median recovery") {
		t.Errorf("regressions = %v, want the median-recovery regression", regs)
	}
	cur = sampleMatrixReport()
	cur.Cells[1].RecoveryOK = false
	if regs := CompareMatrixBaseline(base, cur, 3, 0); len(regs) != 1 || !strings.Contains(regs[0], "never settled") {
		t.Errorf("unsettled cell, no allowance: regressions = %v, want never-settled", regs)
	}
	if regs := CompareMatrixBaseline(base, cur, 3, 1); len(regs) != 0 {
		t.Errorf("one flip within allowance flagged: %v", regs)
	}
	cur.Cells[0].RecoveryOK = false // second flip exceeds the allowance of 1
	if regs := CompareMatrixBaseline(base, cur, 3, 1); len(regs) != 2 {
		t.Errorf("two flips past allowance: regressions = %v, want both reported", regs)
	}
	det := sampleMatrixReport()
	for i := range det.Cells {
		det.Cells[i].DetectionMs = base.Cells[i].DetectionMs*3 + 1500
	}
	if regs := CompareMatrixBaseline(base, det, 3, 0); len(regs) != 1 || !strings.Contains(regs[0], "median detection") {
		t.Errorf("detector regression: regressions = %v, want the median-detection regression", regs)
	}
	extra := sampleMatrixReport()
	extra.Cells[0].StateBytesPerKey = 8192 // not in the baseline grid
	extra.Cells[1].Failure = "concurrent"
	if regs := CompareMatrixBaseline(base, extra, 3, 0); len(regs) != 0 {
		t.Errorf("off-grid cells must be ignored, got %v", regs)
	}
}

// TestMatrixFailurePlan pins the failure-type axis semantics: which
// tasks fail, when, and how much extra drain time each shape needs.
func TestMatrixFailurePlan(t *testing.T) {
	opt := DefaultMatrixOptions()
	single, extra, err := matrixFailurePlan("single", opt)
	if err != nil || len(single) != 1 || extra != 0 {
		t.Fatalf("single: plans=%v extra=%v err=%v", single, extra, err)
	}
	if single[0].Task.Vertex != 2 {
		t.Errorf("single failure hits vertex %d, want 2 (stage1)", single[0].Task.Vertex)
	}
	stag, _, err := matrixFailurePlan("staggered", opt)
	if err != nil || len(stag) != 3 {
		t.Fatalf("staggered: plans=%v err=%v", stag, err)
	}
	if stag[2].After-stag[0].After != 2*opt.StaggerGap {
		t.Errorf("staggered spread = %v, want %v", stag[2].After-stag[0].After, 2*opt.StaggerGap)
	}
	conc, _, err := matrixFailurePlan("concurrent", opt)
	if err != nil || len(conc) != 3 || conc[0].After != conc[2].After {
		t.Fatalf("concurrent: plans=%v err=%v", conc, err)
	}
	align, extra, err := matrixFailurePlan("alignment", opt)
	if err != nil || len(align) != 0 || extra == 0 {
		t.Fatalf("alignment: plans=%v extra=%v err=%v (crash-point cells have no harness plan)", align, extra, err)
	}
	if _, _, err := matrixFailurePlan("nope", opt); err == nil {
		t.Error("unknown failure type accepted")
	}
}
