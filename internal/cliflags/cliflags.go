// Package cliflags holds the flag checks the repro and labsim commands
// share, so both reject the same invocations with the same messages
// before any simulation starts.
package cliflags

import (
	"fmt"
	"time"
)

// CheckResilience validates the client-resilience flags -timeout,
// -retries and -hedge. resilient reports whether the selected preset or
// spec already carries a resilience timeout, which makes a bare -retries
// or -hedge a legitimate override.
func CheckResilience(timeout time.Duration, retries int, hedge time.Duration, resilient bool) error {
	if timeout < 0 {
		return fmt.Errorf("-timeout must be ≥ 0, got %v", timeout)
	}
	if retries < 0 {
		return fmt.Errorf("-retries must be ≥ 0, got %d", retries)
	}
	if hedge < 0 {
		return fmt.Errorf("-hedge must be ≥ 0, got %v", hedge)
	}
	if (retries > 0 || hedge > 0) && timeout == 0 && !resilient {
		return fmt.Errorf("-retries/-hedge require -timeout (or a preset/spec with a resilience timeout)")
	}
	if hedge > 0 && timeout > 0 && hedge >= timeout {
		return fmt.Errorf("-hedge %v must be below the timeout %v", hedge, timeout)
	}
	return nil
}

// ShardWarning returns a one-line ergonomics warning when -shards > 1
// runs a single-backend topology (replicas ≤ 1, after preset and spec
// defaults resolved): the partition layout pins all server work to the
// shard that owns the backend, so conservative sync runs near its
// break-even instead of speeding up. Replicated topologies spread server
// work across shards and get no warning. Warning only: the run proceeds,
// and its output is byte-identical either way.
func ShardWarning(shards, replicas int) string {
	if shards <= 1 || replicas > 1 {
		return ""
	}
	return fmt.Sprintf("warning: -shards %d on a single-backend topology keeps all server work on one shard (near the sharding break-even); use -parallel to parallelize across runs, or -replicas to spread server work", shards)
}
