package experiment

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/envpool"
	"repro/internal/hw"
)

// clusterScenario is a small replicated Memcached scenario.
func clusterScenario(workers int) Scenario {
	s := detScenario(workers)
	s.Label = "cluster-det"
	s.Replicas = 3
	s.Router = cluster.RouterConsistentHash
	return s
}

// TestClusterParallelByteIdentical extends the scheduler's core
// determinism guarantee to the replicated path: the full Result —
// including every run's per-replica cluster stats — must be identical
// for any worker count.
func TestClusterParallelByteIdentical(t *testing.T) {
	seq, err := Run(clusterScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(clusterScenario(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(seq), normalize(par)) {
		t.Errorf("parallel clustered Result differs from sequential:\nseq: %+v\npar: %+v", seq.Runs, par.Runs)
	}
	for i, rm := range seq.Runs {
		if rm.Cluster == nil {
			t.Fatalf("run %d has no cluster stats", i)
		}
		if rm.Cluster.Active != 3 || rm.Cluster.Capacity != 3 {
			t.Errorf("run %d: active/capacity = %d/%d, want 3/3", i, rm.Cluster.Active, rm.Cluster.Capacity)
		}
	}
}

// TestSingleReplicaScenarioByteIdentical pins the acceptance guarantee
// at the harness level: Replicas: 1 must not take the cluster path, and
// its Result (modulo the replica fields themselves) must equal the
// legacy scenario's byte for byte — for sequential and parallel
// execution alike.
func TestSingleReplicaScenarioByteIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		legacy, err := Run(detScenario(workers))
		if err != nil {
			t.Fatal(err)
		}
		s := detScenario(workers)
		s.Replicas = 1
		s.Router = cluster.RouterRoundRobin
		single, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if s.Clustered() {
			t.Fatal("Replicas: 1 classified as clustered")
		}
		single.Scenario.Replicas = 0
		single.Scenario.Router = ""
		if !reflect.DeepEqual(normalize(legacy), normalize(single)) {
			t.Errorf("workers=%d: single-replica scenario diverged from the legacy path", workers)
		}
	}
}

// TestClusterSkewOrdering pins the load-balance acceptance property end
// to end through the harness: a replicated Memcached sweep under the
// hot-key ETC trace shows higher routed-load skew with consistent
// hashing than with round-robin.
func TestClusterSkewOrdering(t *testing.T) {
	skew := func(router string) float64 {
		s := clusterScenario(2)
		s.Label = "skew-" + router
		s.Router = router
		s.Runs = 2
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, rm := range res.Runs {
			if rm.Cluster == nil {
				t.Fatal("missing cluster stats")
			}
			total += rm.Cluster.Skew()
		}
		return total / float64(len(res.Runs))
	}
	rr := skew(cluster.RouterRoundRobin)
	ch := skew(cluster.RouterConsistentHash)
	if rr > 1.05 {
		t.Errorf("round-robin skew %.3f, want ≈1.0", rr)
	}
	if ch <= rr {
		t.Errorf("consistent-hash skew %.3f not above round-robin %.3f", ch, rr)
	}
}

// TestClusterAutoscaleScenario runs the harness with a control loop and
// checks the scale log lands in the metrics.
func TestClusterAutoscaleScenario(t *testing.T) {
	s := detScenario(2)
	s.Label = "cluster-auto"
	s.RateQPS = 700_000
	s.TargetSamples = 8_000
	s.Runs = 2
	auto := cluster.AutoscalerConfig{
		Min: 1, Max: 3,
		Interval:    2 * time.Millisecond,
		ScaleUpAt:   0.55,
		ScaleDownAt: 0.10,
	}
	s.Autoscale = &auto
	s.Replicas = 1
	if !s.Clustered() {
		t.Fatal("autoscaled scenario not classified as clustered")
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for i, rm := range res.Runs {
		if rm.Cluster == nil {
			t.Fatalf("run %d has no cluster stats", i)
		}
		if rm.Cluster.Capacity != 3 {
			t.Errorf("run %d capacity = %d, want 3", i, rm.Cluster.Capacity)
		}
		if len(rm.Cluster.ScaleEvents) == 0 {
			t.Errorf("run %d: autoscaler never scaled at 700K QPS on one replica", i)
		}
	}
}

// TestClusterBackendKeySeparation: clustered and bare scenarios must
// never share an envpool lease.
func TestClusterBackendKeySeparation(t *testing.T) {
	bare := detScenario(1)
	clustered := clusterScenario(1)
	if bare.backendKey() == clustered.backendKey() {
		t.Error("clustered scenario leases with the bare backend key")
	}
	other := clusterScenario(1)
	other.Router = cluster.RouterRoundRobin
	if clustered.backendKey() == other.backendKey() {
		t.Error("different router policies share a lease key")
	}
	if bare.backendKey() != (envpool.Key{Service: "memcached", Server: hw.ServerBaselineConfig()}) {
		t.Error("bare scenario's key changed — legacy leases would be invalidated")
	}
}

// TestClusterValidate covers the new scenario validation paths.
func TestClusterValidate(t *testing.T) {
	s := detScenario(1)
	s.Replicas = -1
	if err := s.Validate(); err == nil {
		t.Error("negative replicas accepted")
	}
	s = detScenario(1)
	s.Router = "bogus"
	if err := s.Validate(); err == nil {
		t.Error("unknown router accepted")
	}
	s = detScenario(1)
	auto := cluster.DefaultAutoscalerConfig(2, 4)
	s.Autoscale = &auto
	s.Replicas = 1 // below Min
	if err := s.Validate(); err == nil {
		t.Error("replicas below autoscaler min accepted")
	}
	s.Replicas = 3
	if err := s.Validate(); err != nil {
		t.Errorf("valid autoscaled scenario rejected: %v", err)
	}

	// One shard runs the sharded path on one engine, so it takes the
	// sharded path's rules: only the consistent-hash router, no
	// autoscaling.
	for _, tc := range []struct {
		name, router string
		autoscale    bool
		want         string
	}{
		{name: "round-robin", router: cluster.RouterRoundRobin, want: "cannot run sharded"},
		{name: "least-outstanding", router: cluster.RouterLeastOutstanding, want: "cannot run sharded"},
		{name: "autoscale", router: cluster.RouterConsistentHash, autoscale: true, want: "autoscaling cannot run sharded"},
		{name: "consistent-hash", router: cluster.RouterConsistentHash},
	} {
		s := clusterScenario(1)
		s.Router = tc.router
		s.Shards = 1
		if tc.autoscale {
			s.Autoscale = &auto
		}
		err := s.Validate()
		if tc.want == "" && err != nil {
			t.Errorf("one shard, %s: rejected: %v", tc.name, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("one shard, %s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}
