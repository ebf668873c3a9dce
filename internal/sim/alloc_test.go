package sim

import (
	"context"
	"testing"

	"droplet/internal/core"
)

// TestSimulateNilObserverZeroAlloc proves the nil-observer Simulate path
// adds zero allocations over building the machine and running the
// reference scheduler on it: with a zero Options, Simulate's drive must
// allocate nothing (no closure, no observer or sampling bookkeeping) —
// the telemetry and sampling seams cost nothing when they are off.
func TestSimulateNilObserverZeroAlloc(t *testing.T) {
	tr := quickTrace(t)
	cfg := quickMachine()
	cfg.Prefetcher = core.DROPLET

	baseline := testing.AllocsPerRun(3, func() {
		if _, err := run(tr, cfg, driveReference); err != nil {
			t.Fatal(err)
		}
	})
	full := testing.AllocsPerRun(3, func() {
		if _, err := Simulate(context.Background(), tr, cfg, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if extra := full - baseline; extra != 0 {
		t.Errorf("nil-observer Simulate allocates %v times beyond the reference runner (baseline %v, full %v)",
			extra, baseline, full)
	}
}
