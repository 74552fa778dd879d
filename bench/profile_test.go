package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
)

func TestLayerOfRules(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"math.archExp", "repro/internal/rng.(*Stream).LogNormal", "repro/internal/loadgen.(*Generator).RunOnce"}, "rng"},
		{[]string{"slices.pdqsortOrdered[...]", "repro/internal/stats.Sorted", "repro/internal/experiment.RunContext"}, "stats"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "repro/internal/loadgen.(*Generator).issue"}, "runtime.alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm"}, "runtime.other"},
		{[]string{"repro/internal/sim.(*wheel).pop", "repro/internal/sim.(*Engine).Run"}, "sim.wheel"},
		{[]string{"repro/internal/sim.(*epochBarrier).wait", "repro/internal/sim.(*ShardSet).runWorker"}, "sim.shard"},
		{[]string{"repro/internal/sim.(*ShardSet).drainInbox"}, "sim.shard"},
		{[]string{"repro/internal/sim.(*Engine).fire", "repro/internal/sim.(*ShardSet).runWorker"}, "sim.engine"},
		{[]string{"repro/internal/envpool.(*Pool).Lease"}, "harness"},
		{[]string{"repro/internal/socialgraph.New"}, "other"},
		{[]string{"syscall.Syscall", "os.(*File).Write"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// allocSink keeps the test's allocations on the heap.
var allocSink []byte

// TestAttributeRecordedProfile records a CPU profile of work split
// between math under rng and allocation, decodes it, and checks both
// attribution cases on real samples. Profiling samples at 100 Hz, so it
// records until each case has been seen.
func TestAttributeRecordedProfile(t *testing.T) {
	s := rng.New(1)
	seenMath, seenAlloc := false, false
	for deadline := time.Now().Add(8 * time.Second); !(seenMath && seenAlloc); {
		if time.Now().After(deadline) {
			t.Fatalf("no sample seen: math under rng %v, mallocgc %v", seenMath, seenAlloc)
		}
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Fatal(err)
		}
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			for i := 0; i < 1000; i++ {
				s.LogNormal(0, 1)
			}
			for i := 0; i < 100; i++ {
				allocSink = make([]byte, 4096)
			}
		}
		pprof.StopCPUProfile()

		p, err := decodeProfile(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		col, err := p.cpuColumn()
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, smp := range p.samples {
			stack := p.stack(nil, smp)
			want += smp.values[col]
			if len(stack) == 0 {
				continue
			}
			joined := strings.Join(stack, " ")
			switch {
			case strings.HasPrefix(stack[0], "math.") && strings.Contains(joined, "repro/internal/rng."):
				if got := layerOf(stack); got != "rng" {
					t.Errorf("math leaf under rng went to %s: %q", got, stack)
				}
				seenMath = true
			case strings.HasPrefix(stack[0], "runtime.") && strings.Contains(joined, "runtime.mallocgc") && !strings.Contains(joined, "runtime.gc"):
				if got := layerOf(stack); got != "runtime.alloc" {
					t.Errorf("allocation went to %s: %q", got, stack)
				}
				seenAlloc = true
			}
		}

		cpuNs := map[string]int64{}
		if err := attribute(buf.Bytes(), cpuNs); err != nil {
			t.Fatal(err)
		}
		var got int64
		for _, ns := range cpuNs {
			got += ns
		}
		if got != want {
			t.Errorf("layers hold %d ns, samples %d ns", got, want)
		}
	}
}
