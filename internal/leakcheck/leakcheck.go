// Package leakcheck is a self-contained goroutine-leak gate for test
// mains (the role x/goleak plays elsewhere; the repo has no external
// dependencies). A package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.VerifyTestMain(m) }
//
// and after its tests pass, any goroutine still running that is not on
// the known-benign list fails the package. Task main threads and spillers
// own goroutines; a test that exits without stopping them hides a shutdown
// bug that production teardown (or the next recovery) would hit.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// maxWait bounds how long Check waits for goroutines to wind down.
// Stop/shutdown paths are asynchronous (WaitGroups, close-notify
// channels), so a just-finished test legitimately has goroutines mid-
// exit; the backoff separates those from true leaks.
const maxWait = 5 * time.Second

// VerifyTestMain runs the package's tests and then fails the package if
// goroutines leaked. Use from TestMain; it does not return.
func VerifyTestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := Check(maxWait); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d leaked goroutine(s) after tests passed:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// Check reports the stacks of leaked goroutines, retrying with backoff
// until the set is empty or the wait budget is spent. An empty slice
// means no leaks.
func Check(wait time.Duration) []string {
	deadline := time.Now().Add(wait)
	backoff := time.Millisecond
	for {
		leaked := snapshot()
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(backoff)
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}

// snapshot captures all goroutine stacks and filters the benign ones.
func snapshot() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var leaked []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		g = strings.TrimSpace(g)
		if g == "" || benign(g) {
			continue
		}
		leaked = append(leaked, g)
	}
	return leaked
}

// benign reports whether a goroutine stack belongs to the test harness
// or the runtime rather than code under test. runtime.Stack already
// omits system goroutines (GC workers etc.), so this list is short.
func benign(stack string) bool {
	for _, marker := range []string{
		"testing.Main(",         // the test binary's main goroutine
		"testing.(*M).Run",      // ditto, via TestMain
		"testing.tRunner",       // a parallel subtest still unwinding
		"testing.runTests",      // ditto
		"leakcheck.snapshot",    // this very goroutine
		"runtime.Stack",         // ditto (inlined)
		"os/signal.signal_recv", // signal watcher, started lazily
		"os/signal.loop",        // ditto
		"runtime/trace.Start",   // -trace support goroutine
		"runtime.ReadTrace",     // ditto
		"testing.(*T).Parallel", // parked parallel test
		"runtime.ensureSigM",    // signal mask goroutine
		"created by runtime.gc", // paranoia: never reported in practice
	} {
		if strings.Contains(stack, marker) {
			return true
		}
	}
	return false
}
