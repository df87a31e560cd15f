package main

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// A recorder counts exactly below exactNs, then in subBuckets buckets per
// octave for octaves octaves (up to about 69 s).
const (
	exactNs    = 512
	subBuckets = 256
	octaves    = 28
)

// recorder is a latency histogram exact to the nanosecond below 512 ns and
// with 256 buckets per octave (0.3 % wide) above, interpolated within a
// bucket, so its resolution sits far below the benchmark's regression
// bounds. internal/histogram's
// buckets step 6–12 % near 1.5 µs, coarser than the bounds, so it is not
// used here.
type recorder struct {
	lin  [exactNs]uint32
	log  [octaves * subBuckets]uint32 // (octave-9)*256 + the next 8 mantissa bits
	n    uint64
	slow uint64 // operations over 1 ms
}

func (r *recorder) add(d time.Duration) {
	ns := uint64(max(d, 0))
	r.n++
	if ns < exactNs {
		r.lin[ns]++
		return
	}
	if ns > uint64(time.Millisecond) {
		r.slow++
	}
	e := min(bits.Len64(ns)-1, 9+octaves-1)
	r.log[(e-9)*subBuckets+int(ns>>(e-8)&(subBuckets-1))]++
}

func (r *recorder) merge(o *recorder) {
	for i, c := range o.lin {
		r.lin[i] += c
	}
	for i, c := range o.log {
		r.log[i] += c
	}
	r.n += o.n
	r.slow += o.slow
}

// quantile returns the q-quantile in nanoseconds by nearest rank,
// interpolating linearly inside a bucket above the exact range.
func (r *recorder) quantile(q float64) float64 {
	if r.n == 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(q*float64(r.n))), 1)
	var seen uint64
	for i, c := range r.lin {
		if seen += uint64(c); seen >= rank {
			return float64(i)
		}
	}
	for i, c := range r.log {
		if c == 0 {
			continue
		}
		if seen+uint64(c) >= rank {
			e, m := uint(i/subBuckets+9), uint64(i%subBuckets)
			lo, width := float64((subBuckets+m)<<(e-8)), float64(uint64(1)<<(e-8))
			return lo + width*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += uint64(c)
	}
	panic("recorder: rank beyond the recorded count")
}

// tally is one client's account of one phase.
type tally struct {
	rec        [numKinds]*recorder
	ops        uint64
	failed     uint64
	reads      uint64 // keys read: single gets plus every key of a multi-get
	hits       uint64
	mismatches uint64
	tracedOps  uint64 // operations issued while tracing was on
	firstErr   error
	firstBad   string
}

func newTally() *tally {
	t := &tally{}
	for k := range t.rec {
		t.rec[k] = new(recorder)
	}
	return t
}

func (t *tally) merge(o *tally) {
	for k := range t.rec {
		t.rec[k].merge(o.rec[k])
	}
	t.ops += o.ops
	t.failed += o.failed
	t.reads += o.reads
	t.hits += o.hits
	t.mismatches += o.mismatches
	t.tracedOps += o.tracedOps
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	if t.firstBad == "" {
		t.firstBad = o.firstBad
	}
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// check compares one hit to its record's deterministic value.
func (t *tally) check(recs *records, rec uint32, got []byte) {
	t.reads++
	if got == nil {
		return
	}
	t.hits++
	if want := recs.value(rec); !bytes.Equal(got, want) {
		t.mismatches++
		if t.firstBad == "" {
			t.firstBad = fmt.Sprintf("key %s: read %d bytes %.16q…, want %d bytes %.16q…",
				recs.keys[rec], len(got), got, len(want), want)
		}
	}
}

// loadClient is one closed-loop client: it issues its pre-generated stream
// in order, each request after the previous reply, and remembers its place
// across phases.
type loadClient struct {
	id   int
	kv   kv
	ops  []op // length is a power of two
	pos  int
	keys [][]byte
	vals [][]byte
}

func newLoadClient(id int, k kv, ops []op) *loadClient {
	return &loadClient{id: id, kv: k, ops: ops,
		keys: make([][]byte, mgetKeys), vals: make([][]byte, mgetKeys)}
}

// run issues requests until stop is set.
func (c *loadClient) run(recs *records, stop *atomic.Bool, t *tally, tr *tracer) {
	mask := len(c.ops) - 1
	var seq uint64
	for !stop.Load() {
		o := c.ops[c.pos]
		c.pos = (c.pos + 1) & mask
		if o.kind == opMGet {
			for j := range c.keys {
				c.keys[j] = recs.keys[c.ops[(c.pos+j-1)&mask].rec]
			}
		}
		key := recs.keys[o.rec]
		var (
			v      []byte
			found  bool
			nfail  int
			err    error
			traced = tr != nil && tr.on.Load()
		)
		start := time.Now()
		switch o.kind {
		case opGet:
			v, found, err = c.kv.get(key)
		case opSet:
			err = c.kv.set(key, recs.value(o.rec))
		case opMGet:
			nfail, err = c.kv.mget(c.keys, c.vals)
		}
		d := time.Since(start)
		t.rec[o.kind].add(d)
		t.ops++
		if traced {
			t.tracedOps++
			if seq++; seq%spanEvery == 0 {
				tr.span(c.id, o.kind, start, d)
			}
		}
		switch {
		case err != nil:
			t.fail(fmt.Errorf("%s %s: %w", kindNames[o.kind], key, err))
		case nfail > 0:
			t.fail(fmt.Errorf("mget: %d of %d keys failed", nfail, len(c.keys)))
		case o.kind == opGet:
			if !found {
				v = nil
			}
			t.check(recs, o.rec, v)
		case o.kind == opMGet:
			for j, got := range c.vals {
				t.check(recs, c.ops[(c.pos+j-1)&mask].rec, got)
			}
		}
	}
}

// phase runs every client in a closed loop until done reports true, polled
// every poll, and returns the merged tally and the phase's wall time.
func phase(cs []*loadClient, recs *records, tr *tracer, poll time.Duration, done func(elapsed time.Duration) bool) (*tally, time.Duration) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	tallies := make([]*tally, len(cs))
	start := time.Now()
	for i, c := range cs {
		tallies[i] = newTally()
		wg.Add(1)
		go func(c *loadClient, t *tally) {
			defer wg.Done()
			c.run(recs, &stop, t, tr)
		}(c, tallies[i])
	}
	for !done(time.Since(start)) {
		time.Sleep(poll)
	}
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	total := newTally()
	for _, t := range tallies {
		total.merge(t)
	}
	return total, elapsed
}
