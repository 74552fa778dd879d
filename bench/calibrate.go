package main

import (
	"slices"
	"time"
)

// The host's speed drifts. On a shared 2-vCPU virtual machine, the same
// repetition takes 10–30% longer in some minutes than in others, and
// fixed code slows down with it. So every timed repetition is preceded
// by one run of a fixed calibration kernel that uses no repository code.
// Its wall time is reported scaled by calibrationMs ÷ that run's time:
// milliseconds on a host running the kernel in calibrationMs.
//
// The kernel runs three parts: a chain of dependent loads through a
// table larger than any core's L2, a sort, and map lookups. Each part
// alone tracked some workloads' drift and missed others'. Integer
// arithmetic and a 64 MiB chase tracked worse. Together the three
// tracked every workload.

// calibrationMs is the kernel's median wall time on the host whose
// fingerprint baseline.json records.
const calibrationMs = 19.0

const (
	chaseWords = 1 << 21 // an 8 MiB table
	chaseLoads = 75_000
	sortValues = 1 << 16
	mapEntries = 1 << 18
	mapLookups = 1 << 17
	kernelSeed = 0x9e3779b97f4a7c15
)

// calibrator owns the kernel's data, built once outside any timing. All
// of it is pointer-free, so the garbage collector never scans it.
type calibrator struct {
	next      []uint32
	src, sort []uint64
	table     map[uint64]uint64
	keys      []uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{
		next:  make([]uint32, chaseWords),
		src:   make([]uint64, sortValues),
		sort:  make([]uint64, sortValues),
		table: make(map[uint64]uint64, mapEntries),
		keys:  make([]uint64, mapLookups),
	}
	for i := range c.next {
		c.next[i] = uint32(i)
	}
	// Sattolo's shuffle makes one cycle through every slot, so the chase
	// never settles into a short, cached loop.
	x := uint64(kernelSeed)
	for i := len(c.next) - 1; i > 0; i-- {
		x = xorshift(x)
		j := x % uint64(i)
		c.next[i], c.next[j] = c.next[j], c.next[i]
	}
	for i := range c.src {
		x = xorshift(x)
		c.src[i] = x
	}
	for i := 0; i < mapEntries; i++ {
		x = xorshift(x)
		c.table[x] = uint64(i)
		if i < mapLookups {
			c.keys[i] = x + uint64(i%2) // half the lookups miss
		}
	}
	return c
}

// calibrationSink keeps the kernel's result live.
var calibrationSink uint64

// scale runs the kernel once and returns the factor that converts wall
// time measured now into baseline-host time.
func (c *calibrator) scale() float64 {
	start := time.Now()
	p := uint32(0)
	for i := 0; i < chaseLoads; i++ {
		p = c.next[p]
	}
	copy(c.sort, c.src)
	slices.Sort(c.sort)
	sum := uint64(p) + c.sort[sortValues/2]
	for _, k := range c.keys {
		sum += c.table[k]
	}
	calibrationSink = sum
	return calibrationMs / (float64(time.Since(start)) / 1e6)
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}
