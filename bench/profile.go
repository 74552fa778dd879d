package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers is the attribution table's row set, in report order. Every
// profile sample lands in exactly one row, so the shares sum to 100%.
var layers = []string{
	"sim.engine", "sim.wheel", "sim.shard", "netmodel", "hw", "services",
	"kvstore", "lsh", "workload", "rng", "loadgen", "cluster", "faults",
	"metrics", "stats", "harness", "runtime.gc", "runtime.alloc",
	"runtime.other", "other",
}

// layerOf attributes one profile sample, given its stack innermost
// frame first, to a layer:
//
//   - a sample whose leaf is in the runtime goes to runtime.gc when a
//     mark worker, a mark drain or a mark assist is on its stack, else
//     to runtime.alloc when mallocgc is, else to runtime.other;
//   - any other sample goes to its innermost repro/internal/<pkg>
//     frame, so math.archExp under rng counts as rng; sim splits by
//     function name into wheel, shard and engine, and the harness
//     packages fold into harness;
//   - a sample with no repository frame is other.
func layerOf(stack []string) string {
	if len(stack) > 0 && strings.HasPrefix(stack[0], "runtime.") {
		for _, f := range stack {
			if strings.HasPrefix(f, "runtime.gcBgMarkWorker") || strings.HasPrefix(f, "runtime.gcDrain") || strings.HasPrefix(f, "runtime.gcAssist") {
				return "runtime.gc"
			}
		}
		for _, f := range stack {
			if strings.HasPrefix(f, "runtime.mallocgc") {
				return "runtime.alloc"
			}
		}
		return "runtime.other"
	}
	const prefix = "repro/internal/"
	for _, f := range stack {
		rest, ok := strings.CutPrefix(f, prefix)
		if !ok {
			continue
		}
		pkg, fn, _ := strings.Cut(rest, ".")
		switch pkg {
		case "sim":
			switch {
			case strings.Contains(strings.ToLower(fn), "wheel"):
				return "sim.wheel"
			case strings.Contains(fn, "ShardSet"), strings.Contains(fn, "epochBarrier"), strings.Contains(fn, "drainInbox"):
				return "sim.shard"
			}
			return "sim.engine"
		case "experiment", "envpool", "sched", "spec", "figures":
			return "harness"
		case "netmodel", "hw", "services", "kvstore", "lsh", "workload", "rng",
			"loadgen", "cluster", "faults", "metrics", "stats":
			return pkg
		}
		return "other"
	}
	return "other"
}

// attribute decodes a gzipped CPU profile and adds each sample's CPU
// nanoseconds to its layer's entry in cpuNs.
func attribute(gz []byte, cpuNs map[string]int64) error {
	p, err := decodeProfile(gz)
	if err != nil {
		return err
	}
	col, err := p.cpuColumn()
	if err != nil {
		return err
	}
	var stack []string
	for _, s := range p.samples {
		stack = p.stack(stack[:0], s)
		cpuNs[layerOf(stack)] += s.values[col]
	}
	return nil
}

// cpuColumn returns the index of the cpu/nanoseconds value, checking
// that every sample carries it.
func (p *profile) cpuColumn() (int, error) {
	for i, st := range p.sampleTypes {
		if p.str(st[0]) != "cpu" || p.str(st[1]) != "nanoseconds" {
			continue
		}
		for _, s := range p.samples {
			if i >= len(s.values) {
				return 0, errors.New("profile: sample lacks the cpu value")
			}
		}
		return i, nil
	}
	return 0, errors.New("profile: no cpu/nanoseconds sample type")
}

// stack appends s's function names to dst, innermost first: a location
// lists its inlined functions before the function they were inlined into.
func (p *profile) stack(dst []string, s sample) []string {
	for _, loc := range s.locations {
		for _, fn := range p.locations[loc] {
			dst = append(dst, p.str(p.functions[fn]))
		}
	}
	return dst
}

// profile is the part of profile.proto the attribution reads.
type profile struct {
	sampleTypes [][2]uint64 // (type, unit) string-table indices
	samples     []sample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]uint64   // function id → name string-table index
	strings     []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) str(i uint64) string {
	if i < uint64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

// decodeProfile parses a gzipped profile.proto with the standard
// library only: field numbers follow github.com/google/pprof's
// proto/profile.proto.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]uint64{}}
	err = fields(raw, func(num int, b *pbuf, wire int) error {
		switch num {
		case 1: // sample_type
			var vt [2]uint64
			return b.message(wire, func(num int, b *pbuf, wire int) (err error) {
				if num == 1 || num == 2 {
					vt[num-1], err = b.varint()
					return err
				}
				return b.skip(wire)
			}, func() { p.sampleTypes = append(p.sampleTypes, vt) })
		case 2: // sample
			var s sample
			return b.message(wire, func(num int, b *pbuf, wire int) error {
				switch num {
				case 1:
					return b.uints(wire, func(v uint64) { s.locations = append(s.locations, v) })
				case 2:
					return b.uints(wire, func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				return b.skip(wire)
			}, func() { p.samples = append(p.samples, s) })
		case 4: // location
			var id uint64
			var fns []uint64
			return b.message(wire, func(num int, b *pbuf, wire int) (err error) {
				switch num {
				case 1:
					id, err = b.varint()
					return err
				case 4: // line
					return b.message(wire, func(num int, b *pbuf, wire int) error {
						if num == 1 {
							fn, err := b.varint()
							fns = append(fns, fn)
							return err
						}
						return b.skip(wire)
					}, nil)
				}
				return b.skip(wire)
			}, func() { p.locations[id] = fns })
		case 5: // function
			var id, name uint64
			return b.message(wire, func(num int, b *pbuf, wire int) (err error) {
				switch num {
				case 1:
					id, err = b.varint()
				case 2:
					name, err = b.varint()
				default:
					err = b.skip(wire)
				}
				return err
			}, func() { p.functions[id] = name })
		case 6: // string_table
			s, err := b.bytes(wire)
			p.strings = append(p.strings, string(s))
			return err
		}
		return b.skip(wire)
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

var errTruncated = errors.New("truncated message")

// pbuf reads protobuf wire format from a byte slice.
type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("varint overflows 64 bits")
}

// bytes reads a length-delimited field's payload.
func (p *pbuf) bytes(wire int) ([]byte, error) {
	if wire != wireBytes {
		return nil, fmt.Errorf("wire type %d, want length-delimited", wire)
	}
	n, err := p.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(p.b)) {
		return nil, errTruncated
	}
	b := p.b[:n]
	p.b = p.b[n:]
	return b, nil
}

func (p *pbuf) skip(wire int) error {
	var n int
	switch wire {
	case wireVarint:
		_, err := p.varint()
		return err
	case wireBytes:
		_, err := p.bytes(wire)
		return err
	case wireFixed64:
		n = 8
	case wireFixed32:
		n = 4
	default:
		return fmt.Errorf("unsupported wire type %d", wire)
	}
	if n > len(p.b) {
		return errTruncated
	}
	p.b = p.b[n:]
	return nil
}

// uints reads a repeated integer field in either encoding: one varint,
// or a packed run of them.
func (p *pbuf) uints(wire int, add func(uint64)) error {
	if wire == wireVarint {
		v, err := p.varint()
		add(v)
		return err
	}
	b, err := p.bytes(wire)
	if err != nil {
		return err
	}
	q := pbuf{b}
	for len(q.b) > 0 {
		v, err := q.varint()
		if err != nil {
			return err
		}
		add(v)
	}
	return nil
}

// message decodes an embedded message field with each, then calls done
// (if non-nil) once the message is complete.
func (p *pbuf) message(wire int, each func(num int, b *pbuf, wire int) error, done func()) error {
	b, err := p.bytes(wire)
	if err != nil {
		return err
	}
	if err := fields(b, each); err != nil {
		return err
	}
	if done != nil {
		done()
	}
	return nil
}

// fields walks the top-level fields of one message.
func fields(raw []byte, each func(num int, b *pbuf, wire int) error) error {
	b := &pbuf{raw}
	for len(b.b) > 0 {
		key, err := b.varint()
		if err != nil {
			return err
		}
		if err := each(int(key>>3), b, int(key&7)); err != nil {
			return err
		}
	}
	return nil
}
