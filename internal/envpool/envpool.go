// Package envpool manages the expensive resources parallel experiments
// share: prebuilt service backends leased by configuration key, and (via
// package sched) the global worker budget bounding total fan-out.
//
// A sweep is a grid of scenarios, many of which differ only in client
// configuration or offered load — dimensions a backend is blind to.
// Without pooling, every grid cell rebuilds its service from scratch
// (preload, index construction, tier wiring); with
// pooling, cells that share a (service, server-config) key lease an idle
// prebuilt instance and return it when done, so the build cost is paid
// once per distinct key per concurrency slot rather than once per cell.
//
// Leasing is sound because of the Backend contract (services.Backend):
// ResetRun is complete, so a leased instance — even one returned dirty by
// the previous scenario — produces results that are a pure function of
// (configuration, run stream). The pool hands each instance to at most
// one lessee at a time; it never inspects or resets instances itself.
//
// The same contract holds for client machines (hw.Machine.ResetRun), so
// the pool also leases prebuilt client-machine sets by MachineKey:
// scenarios that share a client hardware configuration and deployment
// shape reuse machines instead of rebuilding them per cell.
//
// It holds for engine sets too (loadgen.Engines): a generator's
// simulation engines, their request free lists and, on the sharded
// path, the sim.ShardSet that drives them. Every run resets each engine
// completely (sim.Engine.Reset), whatever the last run left in it —
// events pending past its horizon, timeouts armed, requests in flight —
// and a finished sharded run leaves no mail behind. So the pool leases
// sets by EngineKey, the shard count and lookahead, and every benchmark
// repetition and sweep cell runs on the wheel arrays, event free lists
// and pooled requests of the one before it instead of allocating its
// own.
//
// Idle lists are bounded per key (MaxIdlePerKey, default
// DefaultMaxIdlePerKey); releases beyond the bound drop the instance and
// count as evictions, so long many-configuration sweeps cannot grow
// residency unboundedly.
//
// Both resources travel by context: WithPool / sched.WithBudget attach
// them, experiment.RunContext and the figures sweeps pick them up.
// NewContext bundles the standard environment for a "-parallel N" fan-out.
package envpool

import (
	"context"
	"sync"
	"time"

	"repro/internal/hw"
	"repro/internal/loadgen"
	"repro/internal/sched"
	"repro/internal/services"
)

// DefaultMaxIdlePerKey bounds each key's idle list. Releases beyond the
// bound drop the instance instead of pooling it, so a long sweep over
// many distinct configurations cannot grow resident memory without
// bound: per-key residency is capped at the bound and dropped
// instances return to the garbage collector. The default comfortably
// covers one machine's worth of concurrent lessees per key.
const DefaultMaxIdlePerKey = 8

// Key identifies a backend configuration: two scenarios with equal keys
// build interchangeable backends. Client configuration, offered load,
// repetition count and sampling are deliberately absent — backends are
// blind to all of them.
type Key struct {
	// Service is the benchmark name (experiment.Service values).
	Service string
	// Server is the server-side hardware configuration.
	Server hw.Config
	// SynthDelay is the synthetic service's added busy-wait (zero for
	// the other services).
	SynthDelay time.Duration
	// Cluster encodes the replication shape (replica count, router
	// policy, autoscaler bounds) for clustered scenarios, empty for the
	// single-backend path — a clustered backend and a bare one are never
	// interchangeable, even on the same service and server config.
	Cluster string
	// Faults is the fault plan's fingerprint (faults.Plan.Fingerprint),
	// empty when the scenario injects nothing. A faulty fleet and a
	// healthy one must never share pooled backends: the plan is installed
	// on the ReplicaSet at build time.
	Faults string
	// HiccupRate / HiccupMean are the scenario's tier-hiccup overrides
	// (zero = service defaults), baked into every tier at construction.
	HiccupRate float64
	HiccupMean time.Duration
}

// MachineKey identifies an interchangeable set of client machines: the
// hardware configuration plus the deployment shape
// (loadgen.Config.MachineSpec). Offered load, pacing discipline and
// payloads are absent on purpose — machines are blind to all of them,
// and every run resets its machines fully (hw.Machine.ResetRun).
type MachineKey struct {
	// Client is the client-side hardware configuration.
	Client hw.Config
	// Machines is the machine count of the deployment.
	Machines int
	// Cores is the physical core count per machine.
	Cores int
}

// EngineKey identifies an interchangeable engine set: the shape
// loadgen.Config.EngineSpec returns. Everything else a generator runs —
// service, rates, fleet, faults — is absent on purpose: engines are
// blind to it, and every run resets them fully.
type EngineKey struct {
	// Shards is the run's shard count (0 = the single-engine path).
	Shards int
	// Lookahead is the sharded path's conservative lookahead (zero with
	// no shards).
	Lookahead time.Duration
}

// cache is one keyed idle list with its counters; Pool methods serialize
// access under Pool.mu.
type cache[K comparable, V any] struct {
	idle                      map[K][]V
	builds, reuses, evictions int
}

func newCache[K comparable, V any]() cache[K, V] {
	return cache[K, V]{idle: make(map[K][]V)}
}

// take pops an idle instance for key, if any.
func (c *cache[K, V]) take(key K) (V, bool) {
	list := c.idle[key]
	if len(list) == 0 {
		var zero V
		return zero, false
	}
	v := list[len(list)-1]
	c.idle[key] = list[:len(list)-1]
	c.reuses++
	return v, true
}

// put returns an instance to key's idle list, dropping it when the list
// is at the cap.
func (c *cache[K, V]) put(key K, v V, maxIdle int) {
	if len(c.idle[key]) >= maxIdle {
		c.evictions++
		return
	}
	c.idle[key] = append(c.idle[key], v)
}

func (c *cache[K, V]) idleCount() int {
	n := 0
	for _, list := range c.idle {
		n += len(list)
	}
	return n
}

// Pool caches idle prebuilt backends by configuration key, idle
// client-machine sets by machine key and idle engine sets by engine key.
// It is safe for concurrent use; every instance is leased exclusively.
type Pool struct {
	// MaxIdlePerKey caps each key's idle list; releases beyond the cap
	// drop the instance (counted in Evictions). 0 selects
	// DefaultMaxIdlePerKey. Set before first use.
	MaxIdlePerKey int

	mu       sync.Mutex
	backends cache[Key, services.Backend]
	machines cache[MachineKey, []*hw.Machine]
	engines  cache[EngineKey, *loadgen.Engines]
}

// New returns an empty pool.
func New() *Pool {
	return &Pool{
		backends: newCache[Key, services.Backend](),
		machines: newCache[MachineKey, []*hw.Machine](),
		engines:  newCache[EngineKey, *loadgen.Engines](),
	}
}

func (p *Pool) maxIdle() int {
	if p.MaxIdlePerKey > 0 {
		return p.MaxIdlePerKey
	}
	return DefaultMaxIdlePerKey
}

// lease takes an idle instance for key from c, or builds one outside
// the lock, so distinct keys construct concurrently. A failed build is
// not counted.
func lease[K comparable, V any](p *Pool, c *cache[K, V], key K, build func() (V, error)) (V, error) {
	p.mu.Lock()
	if v, ok := c.take(key); ok {
		p.mu.Unlock()
		return v, nil
	}
	c.builds++
	p.mu.Unlock()

	v, err := build()
	if err != nil {
		p.mu.Lock()
		c.builds--
		p.mu.Unlock()
		var zero V
		return zero, err
	}
	return v, nil
}

// release returns an instance to c's idle list under key, subject to
// the per-key idle cap.
func release[K comparable, V any](p *Pool, c *cache[K, V], key K, v V) {
	p.mu.Lock()
	c.put(key, v, p.maxIdle())
	p.mu.Unlock()
}

// Lease returns an exclusive backend for key, reusing an idle instance
// when one is available and building a fresh one with build otherwise.
// Return the instance with Release when the lease ends.
func (p *Pool) Lease(key Key, build func() (services.Backend, error)) (services.Backend, error) {
	return lease(p, &p.backends, key, build)
}

// Release returns a leased backend to the idle list under its key. The
// instance may be dirty; the next lessee's run reset restores it (the
// ResetRun-completeness contract). At the per-key idle cap the instance
// is dropped instead, bounding pool residency.
func (p *Pool) Release(key Key, b services.Backend) {
	if b != nil {
		release(p, &p.backends, key, b)
	}
}

// LeaseMachines returns an exclusive client-machine set for key, reusing
// an idle set when one is available and building a fresh one otherwise.
// Return the set with ReleaseMachines when the lease ends. Leasing is
// sound for the same reason backend leasing is: every run resets its
// machines completely, so a reused set produces results identical to a
// fresh build.
func (p *Pool) LeaseMachines(key MachineKey, build func() ([]*hw.Machine, error)) ([]*hw.Machine, error) {
	return lease(p, &p.machines, key, build)
}

// ReleaseMachines returns a leased machine set to the idle list under
// its key, subject to the same per-key idle cap as backends.
func (p *Pool) ReleaseMachines(key MachineKey, ms []*hw.Machine) {
	if len(ms) != 0 {
		release(p, &p.machines, key, ms)
	}
}

// LeaseEngines returns an exclusive engine set for key, reusing an idle
// set when one is available and building a fresh one otherwise. Return
// the set with ReleaseEngines when the lease ends. Every run resets the
// set's engines completely, so a reused set produces results identical
// to a fresh build.
func (p *Pool) LeaseEngines(key EngineKey, build func() (*loadgen.Engines, error)) (*loadgen.Engines, error) {
	return lease(p, &p.engines, key, build)
}

// ReleaseEngines returns a leased engine set to the idle list under its
// key, subject to the same per-key idle cap.
func (p *Pool) ReleaseEngines(key EngineKey, es *loadgen.Engines) {
	if es != nil {
		release(p, &p.engines, key, es)
	}
}

// Stats reports how many backends were built versus leased from the
// idle list.
func (p *Pool) Stats() (builds, reuses int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.backends.builds, p.backends.reuses
}

// MachineStats reports how many client-machine sets were built versus
// leased from the idle list.
func (p *Pool) MachineStats() (builds, reuses int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.machines.builds, p.machines.reuses
}

// EngineStats reports how many engine sets were built versus leased
// from the idle list.
func (p *Pool) EngineStats() (builds, reuses int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.engines.builds, p.engines.reuses
}

// Evictions reports how many instances (backends, machine sets and
// engine sets) were dropped at the per-key idle cap.
func (p *Pool) Evictions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.backends.evictions + p.machines.evictions + p.engines.evictions
}

// IdleCount returns the number of idle backends currently pooled.
func (p *Pool) IdleCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.backends.idleCount()
}

// IdleMachineSets returns the number of idle machine sets currently
// pooled.
func (p *Pool) IdleMachineSets() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.machines.idleCount()
}

// IdleEngineSets returns the number of idle engine sets currently
// pooled.
func (p *Pool) IdleEngineSets() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.engines.idleCount()
}

type poolCtxKey struct{}

// WithPool returns a context carrying p. experiment.RunContext leases
// its workers' backends from the carried pool.
func WithPool(ctx context.Context, p *Pool) context.Context {
	return context.WithValue(ctx, poolCtxKey{}, p)
}

// From returns the backend pool the context carries, or nil.
func From(ctx context.Context) *Pool {
	p, _ := ctx.Value(poolCtxKey{}).(*Pool)
	return p
}

// NewContext returns a context carrying a fresh backend pool and a
// worker budget "workers" wide (sched.Resolve semantics: 0 or 1 means
// one worker, negative means one per available CPU) — the standard
// envpool environment for experiment fan-out. Every
// pool dispatched under the returned context, at any nesting level,
// shares the one budget and the one backend cache.
func NewContext(parent context.Context, workers int) context.Context {
	ctx := sched.WithBudget(parent, sched.NewBudget(sched.Resolve(workers)))
	return WithPool(ctx, New())
}
