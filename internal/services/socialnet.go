package services

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/netmodel"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Social Network cost-model constants, calibrated for the paper's ≈2–3 ms
// average end-to-end latency (Fig. 6b). The storage stage has a heavy
// lognormal tail, which dominates the ≈10–20 ms 99th percentile (Fig. 6c).
const (
	snNginxCost     = 50 * time.Microsecond
	snNginxReply    = 25 * time.Microsecond
	snTimelineBase  = 120 * time.Microsecond
	snTimelinePerPC = 5 * time.Microsecond // per post materialized
	snStorageBase   = 1600 * time.Microsecond
	snCacheCost     = 200 * time.Microsecond
	snSigma         = 0.18
	snStorageSigma  = 0.45
	// snTimelinePosts is how many posts every read-user-timeline returns:
	// the paper's client reads 10 posts per request from a database
	// seeded with 20 posts per user, so every read finds 10.
	snTimelinePosts = 10
)

// SocialNet models the DeathStarBench Social Network application (§IV-B):
// a chain of services (front-end → user-timeline → storage → cache) all
// deployed on a single node under Docker Swarm, communicating over the
// container bridge. Every request reads one user's timeline of
// snTimelinePosts posts, which sets the user-timeline stage's cost and
// the reply's size.
type SocialNet struct {
	machine  *hw.Machine
	nginx    *Tier
	timeline *Tier
	storage  *Tier
	cache    *Tier
	bridge   *netmodel.Link
}

// SocialNetConfig configures the deployment's server hardware and
// background interference.
type SocialNetConfig struct {
	ServerHW hw.Config
	// HiccupRate / HiccupMean tune the background-interference model on
	// every container's tier (zero values keep the calibrated defaults).
	HiccupRate float64
	HiccupMean time.Duration
}

// DefaultSocialNetConfig mirrors the paper's single-node deployment.
func DefaultSocialNetConfig() SocialNetConfig {
	return SocialNetConfig{ServerHW: hw.ServerBaselineConfig()}
}

// NewSocialNet builds the deployment: one 20-core node (the paper's
// c220g5 socket pair) partitioned among the four service containers.
func NewSocialNet(cfg SocialNetConfig) (*SocialNet, error) {
	machine, err := hw.NewMachine("socialnet-node", 20, cfg.ServerHW)
	if err != nil {
		return nil, err
	}
	mk := func(name string, cores []int) (*Tier, error) {
		return NewTier(TierConfig{Name: name, Machine: machine, Cores: cores, Hiccups: true, Contention: 0.03,
			HiccupRatePerSec: cfg.HiccupRate, HiccupMeanDuration: cfg.HiccupMean})
	}
	nginx, err := mk("nginx", []int{0, 1, 2, 3})
	if err != nil {
		return nil, err
	}
	timeline, err := mk("user-timeline", []int{4, 5, 6, 7})
	if err != nil {
		return nil, err
	}
	storage, err := mk("post-storage", []int{8, 9, 10, 11, 12, 13})
	if err != nil {
		return nil, err
	}
	cache, err := mk("timeline-cache", []int{14, 15, 16, 17})
	if err != nil {
		return nil, err
	}
	return &SocialNet{
		machine:  machine,
		nginx:    nginx,
		timeline: timeline,
		storage:  storage,
		cache:    cache,
	}, nil
}

// Name implements Backend.
func (s *SocialNet) Name() string { return "socialnet" }

// Machines implements Backend.
func (s *SocialNet) Machines() []*hw.Machine { return []*hw.Machine{s.machine} }

// MeanServiceTime implements Backend (storage dominates).
func (s *SocialNet) MeanServiceTime() float64 { return snStorageBase.Seconds() }

// TierStats implements TierStatsProvider.
func (s *SocialNet) TierStats() []TierStats {
	return []TierStats{s.nginx.Stats(), s.timeline.Stats(), s.storage.Stats(), s.cache.Stats()}
}

// Occupancy implements OccupancyProvider (allocation-free tick sampling).
func (s *SocialNet) Occupancy() (time.Duration, int) {
	busy := s.nginx.BusyTime() + s.timeline.BusyTime() + s.storage.BusyTime() + s.cache.BusyTime()
	workers := s.nginx.Workers() + s.timeline.Workers() + s.storage.Workers() + s.cache.Workers()
	return busy, workers
}

// ResetRun implements Backend.
func (s *SocialNet) ResetRun(engine *sim.Engine, stream *rng.Stream) {
	s.nginx.ResetRun(engine, stream.Split())
	s.timeline.ResetRun(engine, stream.Split())
	s.storage.ResetRun(engine, stream.Split())
	s.cache.ResetRun(engine, stream.Split())
	s.bridge = netmodel.Loopback(stream.Split())
	// Nothing reads this sixth split, but it must stay:
	// cluster.ReplicaSet.ResetRun passes replica 0 the set's own stream,
	// then splits that same stream for replicas 1..N−1, the router and
	// the fault schedule, so one split fewer here reseeds all of them.
	stream.Split()
}

// StartRun implements Backend.
func (s *SocialNet) StartRun(end sim.Time) {
	s.nginx.StartRun(end)
	s.timeline.StartRun(end)
	s.storage.StartRun(end)
	s.cache.StartRun(end)
}

// Crash implements Crasher. Requests mid-flight on the container bridge
// fail when they land on a dark tier.
func (s *SocialNet) Crash(now sim.Time) {
	s.nginx.Crash(now)
	s.timeline.Crash(now)
	s.storage.Crash(now)
	s.cache.Crash(now)
}

// Restart implements Crasher.
func (s *SocialNet) Restart(now sim.Time) {
	s.nginx.Restart(now)
	s.timeline.Restart(now)
	s.storage.Restart(now)
	s.cache.Restart(now)
}

// SetDegrade implements Degrader.
func (s *SocialNet) SetDegrade(d *faults.DegradeSchedule) {
	s.nginx.SetDegrade(d)
	s.timeline.SetDegrade(d)
	s.storage.SetDegrade(d)
	s.cache.SetDegrade(d)
}

// SocialNet per-request state machine stages (Request.Stage): the service
// chain nginx → user-timeline → post-storage → timeline-cache → nginx
// reply, with a container-bridge crossing between consecutive tiers. The
// pre-refactor implementation captured this chain in five nested closures
// per request; the pooled request now carries its own position.
const (
	snStageNginx    int = iota // front-end accepts the request
	snStageTimeline            // user-timeline materializes posts
	snStageStorage             // post-storage fetch
	snStageCache               // timeline-cache update
	snStageReply               // nginx serializes the reply
)

// Arrive implements Backend: a read-user-timeline request flows
// nginx → user-timeline → post-storage → timeline-cache → nginx reply.
// The payload is not read: every request reads snTimelinePosts posts.
func (s *SocialNet) Arrive(req *Request, now sim.Time) {
	req.ServerArrive = now
	req.Stage = snStageNginx

	cost := time.Duration(float64(snNginxCost)*s.nginx.Noise(snSigma)) + s.nginx.StackCost()
	s.nginx.Submit(now, cost, req, s)
}

// JobDone implements JobSink: a tier finished the request's current stage;
// all but the last are followed by a bridge crossing into the next tier.
func (s *SocialNet) JobDone(end sim.Time, req *Request) {
	if req.Stage == snStageReply {
		req.ResponseBytes = 256 + snTimelinePosts*200
		req.complete(end)
		return
	}
	req.Stage++
	s.hop(end, req)
}

// hop schedules the request's next stage after a container-bridge crossing.
func (s *SocialNet) hop(from sim.Time, req *Request) {
	s.bridge.Deliver(s.nginx.engine, from, 256, s, sim.EventArg{Ptr: req})
}

// OnEvent implements sim.EventSink: a request cleared the container bridge
// and enters its next stage's tier.
func (s *SocialNet) OnEvent(now sim.Time, arg sim.EventArg) {
	req := arg.Ptr.(*Request)
	switch req.Stage {
	case snStageTimeline:
		tlCost := snTimelineBase + snTimelinePosts*snTimelinePerPC
		tlCost = time.Duration(float64(tlCost)*s.timeline.Noise(snSigma)) + s.timeline.StackCost()
		s.timeline.Submit(now, tlCost, req, s)
	case snStageStorage:
		stCost := time.Duration(float64(snStorageBase)*s.storage.Noise(snStorageSigma)) + s.storage.StackCost()
		s.storage.Submit(now, stCost, req, s)
	case snStageCache:
		cCost := time.Duration(float64(snCacheCost)*s.cache.Noise(snSigma)) + s.cache.StackCost()
		s.cache.Submit(now, cCost, req, s)
	case snStageReply:
		rCost := time.Duration(float64(snNginxReply)*s.nginx.Noise(snSigma)) + s.nginx.StackCost()
		s.nginx.Submit(now, rCost, req, s)
	default:
		panic(fmt.Sprintf("services: socialnet delivery in unknown stage %d", req.Stage))
	}
}
