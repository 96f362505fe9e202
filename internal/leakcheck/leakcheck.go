// Package leakcheck is the goroutine-leak gate of the test binaries
// that start servers, connections and pipelines (internal/server,
// internal/cluster): every goroutine a test starts must have wound down
// once the whole package has run.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settle is how long Main waits for goroutines to wind down after the
// tests: closes, connection teardowns and pipeline exits are
// asynchronous, a leak is not.
const settle = 5 * time.Second

// benign marks goroutines that live for the whole process by design:
// os/signal's receive loop, which `go test -fuzz` starts on first use of
// signal.Notify and never stops.
const benign = "os/signal.loop"

// Main runs the package's tests and then polls until the number of
// goroutines is back to its pre-run count. If it is not within settle,
// Main prints every remaining goroutine's stack to stderr and returns 1.
// Use it as
//
//	func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m)) }
func Main(m *testing.M) int {
	before := len(goroutines())
	code := m.Run()
	deadline := time.Now().Add(settle)
	for {
		after := goroutines()
		if len(after) <= before {
			return code
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines after the tests, %d before:\n\n%s\n",
				len(after), before, strings.Join(after, "\n\n"))
			return 1
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// goroutines returns the stacks of all goroutines except benign ones.
func goroutines() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, benign) {
			out = append(out, g)
		}
	}
	return out
}
