package services

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/lsh"
	"repro/internal/netmodel"
	"repro/internal/rng"
	"repro/internal/sim"
)

// HDSearch cost-model constants, calibrated for the paper's ≈400 µs–1.5 ms
// end-to-end latency band (Fig. 4). The bucket's search cost is data
// dependent: it scales with the number of candidates the query's LSH
// buckets hold, which a real bucket would score.
const (
	hdMidtierParse  = 45 * time.Microsecond
	hdMidtierMerge  = 70 * time.Microsecond
	hdBucketBase    = 180 * time.Microsecond
	hdBucketPerCand = 90 * time.Nanosecond
	hdSigma         = 0.15
	// hdMeanCandidates is the mean candidate count of NewQuery's queries
	// on the default index (564–573 over 2000 draws at seeds 1–3).
	hdMeanCandidates = 570
)

// HDSearch models the MicroSuite image-similarity service (§IV-B): a
// three-tier structure (client → midtier → bucket) where the bucket probes
// a real LSH index for each query. The paper deploys each tier on its own
// machine; the midtier↔bucket hop crosses a rack link.
type HDSearch struct {
	midtierM *hw.Machine
	bucketM  *hw.Machine
	midtier  *Tier
	bucket   *Tier
	index    *lsh.Index     // this backend's own: Candidates writes its marks
	link     *netmodel.Link // midtier↔bucket, per-run jitter stream
	queryGen *rng.Stream
	dataset  []lsh.Vector // NewQuery's base vectors; the index keeps none
	topK     int
}

// HDSearchConfig configures the service.
type HDSearchConfig struct {
	ServerHW       hw.Config
	MidtierWorkers int
	BucketWorkers  int
	DatasetSize    int
	Dim            int
	TopK           int
	// HiccupRate / HiccupMean tune the background-interference model on
	// both tiers (zero values keep the calibrated defaults).
	HiccupRate float64
	HiccupMean time.Duration
}

// DefaultHDSearchConfig follows the MicroSuite deployment at a dataset
// scale that keeps index construction fast.
func DefaultHDSearchConfig() HDSearchConfig {
	return HDSearchConfig{
		ServerHW:       hw.ServerBaselineConfig(),
		MidtierWorkers: 8,
		BucketWorkers:  10,
		DatasetSize:    20_000,
		Dim:            64,
		TopK:           10,
	}
}

// NewHDSearch builds the service, its dataset and the LSH index over it:
// 8 tables of 12-bit signatures, each vector hashed once by lsh.Build.
func NewHDSearch(cfg HDSearchConfig) (*HDSearch, error) {
	if cfg.MidtierWorkers < 1 || cfg.BucketWorkers < 1 {
		return nil, fmt.Errorf("services: hdsearch needs ≥1 worker per tier")
	}
	if cfg.DatasetSize < 1 || cfg.Dim < 1 || cfg.TopK < 1 {
		return nil, fmt.Errorf("services: invalid hdsearch dataset config %+v", cfg)
	}
	midtierM, err := hw.NewMachine("hdsearch-midtier", cfg.MidtierWorkers, cfg.ServerHW)
	if err != nil {
		return nil, err
	}
	bucketM, err := hw.NewMachine("hdsearch-bucket", cfg.BucketWorkers, cfg.ServerHW)
	if err != nil {
		return nil, err
	}
	mcores := make([]int, cfg.MidtierWorkers)
	for i := range mcores {
		mcores[i] = i
	}
	bcores := make([]int, cfg.BucketWorkers)
	for i := range bcores {
		bcores[i] = i
	}
	midtier, err := NewTier(TierConfig{Name: "midtier", Machine: midtierM, Cores: mcores, Hiccups: true, Contention: 0.03,
		HiccupRatePerSec: cfg.HiccupRate, HiccupMeanDuration: cfg.HiccupMean})
	if err != nil {
		return nil, err
	}
	bucket, err := NewTier(TierConfig{Name: "bucket", Machine: bucketM, Cores: bcores, Hiccups: true, Contention: 0.04,
		HiccupRatePerSec: cfg.HiccupRate, HiccupMeanDuration: cfg.HiccupMean})
	if err != nil {
		return nil, err
	}
	dataset := lsh.GenerateDataset(cfg.DatasetSize, cfg.Dim, 32, 778)
	index, err := lsh.Build(lsh.Config{Dim: cfg.Dim, Tables: 8, Bits: 12, Seed: 777}, dataset)
	if err != nil {
		return nil, err
	}
	return &HDSearch{
		midtierM: midtierM,
		bucketM:  bucketM,
		midtier:  midtier,
		bucket:   bucket,
		index:    index,
		dataset:  dataset,
		topK:     cfg.TopK,
	}, nil
}

// Name implements Backend.
func (h *HDSearch) Name() string { return "hdsearch" }

// Machines implements Backend.
func (h *HDSearch) Machines() []*hw.Machine { return []*hw.Machine{h.midtierM, h.bucketM} }

// MeanServiceTime implements Backend (bucket is the bottleneck tier).
func (h *HDSearch) MeanServiceTime() float64 {
	return (hdBucketBase + hdMeanCandidates*hdBucketPerCand).Seconds()
}

// NewQuery draws a feature-vector query near the dataset distribution: a
// dataset vector plus N(0, 0.15) noise in every dimension, drawn exactly
// as one Normal(0, 0.15) call per dimension would draw it. Exposed so
// generators create realistic payloads.
func (h *HDSearch) NewQuery(stream *rng.Stream) lsh.Vector {
	base := h.dataset[stream.Intn(len(h.dataset))]
	q := make(lsh.Vector, len(base))
	stream.FillNormal(q, 0, 0.15)
	for i := range q {
		q[i] += base[i]
	}
	return q
}

// TierStats implements TierStatsProvider.
func (h *HDSearch) TierStats() []TierStats {
	return []TierStats{h.midtier.Stats(), h.bucket.Stats()}
}

// Occupancy implements OccupancyProvider (allocation-free tick sampling).
func (h *HDSearch) Occupancy() (time.Duration, int) {
	return h.midtier.BusyTime() + h.bucket.BusyTime(), h.midtier.Workers() + h.bucket.Workers()
}

// ResetRun implements Backend.
func (h *HDSearch) ResetRun(engine *sim.Engine, stream *rng.Stream) {
	h.midtier.ResetRun(engine, stream.Split())
	h.bucket.ResetRun(engine, stream.Split())
	h.queryGen = stream.Split()
	link, err := netmodel.New(netmodel.DefaultConfig(), stream.Split())
	if err != nil {
		panic(err) // static config cannot fail
	}
	h.link = link
}

// StartRun implements Backend.
func (h *HDSearch) StartRun(end sim.Time) {
	h.midtier.StartRun(end)
	h.bucket.StartRun(end)
}

// Crash implements Crasher. Requests mid-flight on the internal
// midtier↔bucket link fail when they land on the dark tier.
func (h *HDSearch) Crash(now sim.Time) {
	h.midtier.Crash(now)
	h.bucket.Crash(now)
}

// Restart implements Crasher.
func (h *HDSearch) Restart(now sim.Time) {
	h.midtier.Restart(now)
	h.bucket.Restart(now)
}

// SetDegrade implements Degrader.
func (h *HDSearch) SetDegrade(d *faults.DegradeSchedule) {
	h.midtier.SetDegrade(d)
	h.bucket.SetDegrade(d)
}

// HDSearch per-request state machine stages (Request.Stage). Each request
// walks parse → search → merge; the in-flight hop lives on the pooled
// request instead of a closure chain, and the midtier↔bucket RPC crossings
// are typed link deliveries.
const (
	hdStageParse  int = iota // midtier parses the query
	hdStageSearch            // bucket probes the LSH index
	hdStageMerge             // midtier merges and replies
)

// Arrive implements Backend: parse on the midtier, search on the bucket
// (its cost set by the query's LSH candidate count), merge back on the
// midtier, then respond. The payload must be an lsh.Vector query.
func (h *HDSearch) Arrive(req *Request, now sim.Time) {
	if _, ok := req.Payload.(lsh.Vector); !ok {
		panic(fmt.Sprintf("services: hdsearch got payload %T", req.Payload))
	}
	req.ServerArrive = now
	req.Stage = hdStageParse

	parseCost := time.Duration(float64(hdMidtierParse)*h.midtier.Noise(hdSigma)) + h.midtier.StackCost()
	h.midtier.Submit(now, parseCost, req, h)
}

// JobDone implements JobSink: a tier finished the request's current stage.
func (h *HDSearch) JobDone(end sim.Time, req *Request) {
	switch req.Stage {
	case hdStageParse:
		// Midtier → bucket RPC.
		q := req.Payload.(lsh.Vector)
		req.Stage = hdStageSearch
		h.link.Deliver(h.midtier.engine, end, len(q)*8, h, sim.EventArg{Ptr: req})
	case hdStageSearch:
		// Bucket → midtier response, then merge and reply. Scratch holds
		// the search stage's result count, min(topK, candidates).
		req.Stage = hdStageMerge
		h.link.Deliver(h.bucket.engine, end, int(req.Scratch)*32, h, sim.EventArg{Ptr: req})
	case hdStageMerge:
		req.ResponseBytes = 64 + int(req.Scratch)*48
		req.complete(end)
	default:
		panic(fmt.Sprintf("services: hdsearch job done in unknown stage %d", req.Stage))
	}
}

// OnEvent implements sim.EventSink: a request cleared the midtier↔bucket
// link and enters its next stage's tier.
func (h *HDSearch) OnEvent(now sim.Time, arg sim.EventArg) {
	req := arg.Ptr.(*Request)
	switch req.Stage {
	case hdStageSearch:
		n, err := h.index.Candidates(req.Payload.(lsh.Vector))
		if err != nil {
			panic(fmt.Sprintf("services: hdsearch query failed: %v", err))
		}
		req.Scratch = int64(min(h.topK, n))
		searchCost := hdBucketBase + time.Duration(n)*hdBucketPerCand
		searchCost = time.Duration(float64(searchCost)*h.bucket.Noise(hdSigma)) + h.bucket.StackCost()
		h.bucket.Submit(now, searchCost, req, h)
	case hdStageMerge:
		mergeCost := time.Duration(float64(hdMidtierMerge)*h.midtier.Noise(hdSigma)) + h.midtier.StackCost()
		h.midtier.Submit(now, mergeCost, req, h)
	default:
		panic(fmt.Sprintf("services: hdsearch delivery in unknown stage %d", req.Stage))
	}
}
