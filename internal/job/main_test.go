package job

import (
	"testing"

	"clonos/internal/leakcheck"
)

// TestMain gates the package on goroutine hygiene: every runtime a test
// starts owns task main threads and spillers — a leak here means
// Shutdown (or recovery teardown) left one behind.
func TestMain(m *testing.M) { leakcheck.VerifyTestMain(m) }
