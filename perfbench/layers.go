package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"plibmc/internal/bench"
	"plibmc/internal/client"
	"plibmc/internal/core"
	"plibmc/internal/protocol"
	"plibmc/internal/ralloc"
	"plibmc/internal/ring"
	"plibmc/internal/shm"
	"plibmc/memcached"
)

// The traced run. Its per-layer numbers come from three sources, all
// outside the program: sampled spans around each workload's outer call,
// the public counters of every shard read before and after the timed
// phase, and a ladder of direct calls into each module's public functions
// at both paper value sizes. Spans inside the program are left for later.

// spanEvery samples one operation in this many for a span while tracing.
const spanEvery = 16

// traceWindow is the length of the alternating traced and untraced windows
// of a traced run's timed phase; their rates give trace.overhead_ratio. It
// divides neither the 1 s maintenance nor the 4 s checkpoint cadence, so
// those pauses do not all land in windows of one kind.
const traceWindow = 700 * time.Millisecond

type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Client int    `json:"client"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds a traced run's spans in memory until the run ends. Its
// on flag switches between traced and untraced windows.
type tracer struct {
	on     atomic.Bool
	origin time.Time
	mu     sync.Mutex
	spans  []span
	limit  int
	nextID uint64

	// Coordinator-only: wall time spent in each kind of window.
	lastSwitch  time.Duration
	tracedTime  time.Duration
	untraceTime time.Duration

	// Checkpoint and maintenance observations, by the sampler goroutine.
	pauses     []float64
	maintPass  []float64
	stopSample chan struct{}
	sampleDone chan struct{}
}

func newTracer(seconds float64) *tracer {
	return &tracer{origin: time.Now(), limit: int(seconds*4096) + 1024}
}

func (tr *tracer) span(c int, k opKind, start time.Time, d time.Duration) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) >= tr.limit {
		return
	}
	tr.nextID++
	s := int64(start.Sub(tr.origin))
	tr.spans = append(tr.spans, span{ID: tr.nextID, Name: kindNames[k], Client: c, Start: s, End: s + int64(d)})
}

// tick switches the window every traceWindow of the phase.
func (tr *tracer) tick(elapsed time.Duration) {
	want := (elapsed/traceWindow)%2 == 1
	if want != tr.on.Load() {
		tr.account(elapsed)
		tr.on.Store(want)
	}
}

func (tr *tracer) account(elapsed time.Duration) {
	if tr.on.Load() {
		tr.tracedTime += elapsed - tr.lastSwitch
	} else {
		tr.untraceTime += elapsed - tr.lastSwitch
	}
	tr.lastSwitch = elapsed
}

func (tr *tracer) finish(elapsed time.Duration) {
	tr.account(elapsed)
	tr.on.Store(false)
}

// sample watches the shards during the timed phase: the duration of every
// checkpoint that lands, and one timed maintenance pass a second (in
// addition to the deployed loop), rotating over the shards.
func (tr *tracer) sample(shards []*memcached.Bookkeeper) {
	tr.stopSample, tr.sampleDone = make(chan struct{}), make(chan struct{})
	gens := make([]uint64, len(shards))
	for i, b := range shards {
		gens[i] = b.Metrics().Checkpoint.LastGeneration
	}
	go func() {
		defer close(tr.sampleDone)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for n := 0; ; n++ {
			select {
			case <-tr.stopSample:
				return
			case <-tick.C:
			}
			for i, b := range shards {
				if ck := b.Metrics().Checkpoint; ck.LastGeneration != gens[i] {
					gens[i] = ck.LastGeneration
					tr.pauses = append(tr.pauses, float64(ck.LastDuration)/1e6)
				}
			}
			if n%10 == 9 {
				b := shards[(n/10)%len(shards)]
				start := time.Now()
				b.RunMaintenanceOnce()
				tr.maintPass = append(tr.maintPass, float64(time.Since(start))/1e6)
			}
		}
	}()
}

func (tr *tracer) stopSampling() {
	close(tr.stopSample)
	<-tr.sampleDone
}

// dump writes the spans as one JSON array under dir.
func (tr *tracer) dump(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// counters is one reading of the public counters of every shard and of
// the Go runtime.
type counters struct {
	stats     core.Stats
	perShard  []uint64 // gets + sets per shard
	crossings uint64
	rejected  uint64
	ckpts     uint64
	ckptFails uint64
	liveBytes uint64
	mallocs   uint64
	gcs       uint64
	imageSize uint64 // bytes of the newest checkpoint image of every shard
	imageUser uint64 // items on the shards that have one
}

func sumStats(sys *system) core.Stats {
	var s core.Stats
	for _, b := range sys.shards {
		st := b.Stats()
		addCore(&s, &st, 1)
	}
	return s
}

// addCore adds sign × every counter the benchmark reads from s into dst.
func addCore(dst, s *core.Stats, sign uint64) {
	dst.Gets += sign * s.Gets
	dst.Sets += sign * s.Sets
	dst.Deletes += sign * s.Deletes
	dst.Incrs += sign * s.Incrs
	dst.Decrs += sign * s.Decrs
	dst.Touches += sign * s.Touches
	dst.Evictions += sign * s.Evictions
	dst.CurrItems += sign * s.CurrItems
	dst.GetFastpathHits += sign * s.GetFastpathHits
	dst.SeqlockRetries += sign * s.SeqlockRetries
	dst.Batches += sign * s.Batches
	dst.BatchedOps += sign * s.BatchedOps
}

func snapshotCounters(sys *system) counters {
	var c counters
	for i, b := range sys.shards {
		m := b.Metrics()
		addCore(&c.stats, &m.Ops, 1)
		c.perShard = append(c.perShard, m.Ops.Gets+m.Ops.Sets)
		c.crossings += m.Library.Crossings
		c.rejected += m.Library.Rejected
		c.ckpts += uint64(m.Checkpoint.Checkpoints)
		c.ckptFails += uint64(m.Checkpoint.Failures)
		c.liveBytes += m.HeapLiveBytes
		if sys.dir != "" && m.Checkpoint.LastGeneration > 0 {
			base := filepath.Join(sys.dir, memcached.ShardImageName(i))
			if fi, err := os.Stat(shm.CheckpointSlot(base, m.Checkpoint.LastGeneration)); err == nil {
				c.imageSize += uint64(fi.Size())
				c.imageUser += m.Ops.CurrItems
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.gcs = ms.Mallocs, uint64(ms.NumGC)
	return c
}

// since returns the counter increments from a to c; the gauges (live
// bytes, image sizes) keep c's reading.
func (c counters) since(a counters) counters {
	d := c
	d.stats = core.Stats{}
	addCore(&d.stats, &c.stats, 1)
	addCore(&d.stats, &a.stats, ^uint64(0)) // wraps: subtracts a
	d.perShard = make([]uint64, len(c.perShard))
	for i := range d.perShard {
		d.perShard[i] = c.perShard[i] - a.perShard[i]
	}
	d.crossings -= a.crossings
	d.rejected -= a.rejected
	d.ckpts -= a.ckpts
	d.ckptFails -= a.ckptFails
	d.mallocs -= a.mallocs
	d.gcs -= a.gcs
	return d
}

func layerMetrics(m map[string]metric, sp *spec, tr *tracer, t *tally, elapsed time.Duration, before, after counters) {
	secs := elapsed.Seconds()
	d := after.since(before)
	st := &d.stats
	storeOps := st.Gets + st.Sets + st.Deletes + st.Incrs + st.Decrs + st.Touches

	m["core.fastpath_ratio"] = metric{ratio(st.GetFastpathHits, st.Gets), "ratio"}
	m["core.seqlock_retries_per_get"] = metric{ratio(st.SeqlockRetries, st.Gets), "ratio"}
	m["core.evictions_per_set"] = metric{ratio(st.Evictions, st.Sets), "ratio"}
	m["hodor.crossings_per_op"] = metric{ratio(d.crossings, storeOps), "ratio"}
	m["hodor.rejected"] = metric{float64(d.rejected), "count"}
	m["proxy.mean_batch_size"] = metric{ratio(st.BatchedOps, st.Batches), "ops"}

	var most, total uint64
	for _, n := range d.perShard {
		most, total = max(most, n), total+n
	}
	m["cluster.shard_skew"] = metric{ratio(most*uint64(len(d.perShard)), total), "ratio"}

	m["checkpoint.count"] = metric{float64(d.ckpts), "count"}
	m["checkpoint.failures"] = metric{float64(d.ckptFails), "count"}
	m["checkpoint.pause_ms"] = metric{median(tr.pauses), "ms"}
	m["checkpoint.image_bytes_per_user_byte"] = metric{ratio(d.imageSize, d.imageUser*uint64(keyLen+sp.valueSize)), "B/B"}
	m["maint.pass_ms"] = metric{median(tr.maintPass), "ms"}

	m["go.allocs_per_op"] = metric{ratio(d.mallocs, t.ops), "allocs/op"}
	m["go.gc_cycles_per_s"] = metric{float64(d.gcs) / secs, "1/s"}

	var slow uint64
	for _, r := range t.rec {
		slow += r.slow
	}
	m["loadgen.ops_over_1ms_per_s"] = metric{float64(slow) / secs, "1/s"}
	untraced := div(float64(t.ops-t.tracedOps), tr.untraceTime.Seconds())
	traced := div(float64(t.tracedOps), tr.tracedTime.Seconds())
	m["trace.overhead_ratio"] = metric{div(traced, untraced), "ratio"}
	m["failed_ratio"] = metric{ratio(t.failed, t.ops), "ratio"}
}

// perCall times fn over reps batches of n calls and returns the median
// batch's mean per-call time in nanoseconds.
func perCall(reps, n int, fn func(i int)) float64 {
	times := make([]float64, reps)
	for r := range times {
		times[r] = batchNs(n, fn)
	}
	return median(times)
}

func batchNs(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// perCallPair times a and b in alternating batches, so host drift during
// the measurement lands on both, and returns each one's median per-call
// time and the median of the per-pair differences b − a, in nanoseconds.
func perCallPair(reps, n int, a, b func(i int)) (ta, tb, diff float64) {
	as, bs, ds := make([]float64, reps), make([]float64, reps), make([]float64, reps)
	for r := 0; r < reps; r++ {
		as[r] = batchNs(n, a)
		bs[r] = batchNs(n, b)
		ds[r] = bs[r] - as[r]
	}
	return median(as), median(bs), median(ds)
}

// firstErr keeps the first error noted by calls inside a timed loop, which
// cannot return one.
type firstErr struct{ err error }

func (f *firstErr) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// ladderSizes are the paper's two value sizes.
var ladderSizes = []struct {
	tag string
	n   int
}{{"128", 128}, {"5k", 5120}}

// ladder measures each layer by direct calls at both paper value sizes,
// on small private instances so the figures do not depend on the workload.
func ladder(m map[string]metric) error {

	// internal/shm: the heap copy in and out.
	heap := shm.New(1 << 20)
	for _, s := range ladderSizes {
		buf := bytes.Repeat([]byte{'x'}, s.n)
		m["shm.write_bytes_ns."+s.tag] = metric{perCall(15, 2000, func(i int) { heap.WriteBytes(uint64(i%64)*8192, buf) }), "ns"}
		m["shm.read_bytes_ns."+s.tag] = metric{perCall(15, 2000, func(i int) { heap.ReadBytes(uint64(i%64)*8192, buf) }), "ns"}
	}

	// internal/ralloc: a malloc and its free through a thread cache.
	alloc, err := ralloc.Format(shm.New(16 << 20))
	if err != nil {
		return err
	}
	cache := alloc.NewCache()
	var fe firstErr
	for _, s := range ladderSizes {
		m["ralloc.malloc_free_ns."+s.tag] = metric{perCall(15, 2000, func(int) {
			off, err := cache.Malloc(uint64(s.n))
			if err == nil {
				err = cache.Free(off)
			}
			fe.note(err)
		}), "ns"}
	}
	if fe.err != nil {
		return fmt.Errorf("ralloc: %w", fe.err)
	}

	// internal/core through a gate-free session, and memcached.Session
	// through the Hodor gate, over the same store.
	if err := ladderSessions(m); err != nil {
		return err
	}

	// internal/hodor: the empty trampolined call.
	h, err := bench.EmptyHodorCall(200_000)
	if err != nil {
		return err
	}
	m["hodor.empty_call_ns"] = metric{float64(h.Mean()), "ns"}

	// internal/ring: one placement lookup.
	r, err := ring.New(4, 0)
	if err != nil {
		return err
	}
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("ladder-key-%06d", i))
	}
	m["ring.shard_ns"] = metric{perCall(15, 20000, func(i int) { r.Shard(keys[i%len(keys)]) }), "ns"}

	if err := ladderCluster(m, keys); err != nil {
		return err
	}

	// internal/protocol: decoding a binary get and encoding its reply.
	var frames bytes.Buffer
	fw := bufio.NewWriter(&frames)
	const nframes = 2000
	for i := 0; i < nframes; i++ {
		if err := protocol.WriteBinaryCommand(fw, &protocol.Command{Op: protocol.OpGet, Key: keys[i%len(keys)]}); err != nil {
			return err
		}
	}
	if err := fw.Flush(); err != nil {
		return err
	}
	raw := frames.Bytes()
	var br *bufio.Reader
	m["protocol.read_binary_command_ns"] = metric{perCall(15, nframes, func(i int) {
		if i == 0 {
			br = bufio.NewReader(bytes.NewReader(raw))
		}
		_, err := protocol.ReadBinaryCommand(br)
		fe.note(err)
	}), "ns"}
	bw := bufio.NewWriter(io.Discard)
	cmd := &protocol.Command{Op: protocol.OpGet, Key: keys[0]}
	rep := &protocol.Reply{Status: protocol.StatusOK, Value: bytes.Repeat([]byte{'v'}, 128)}
	m["protocol.write_binary_reply_ns"] = metric{perCall(15, nframes, func(int) {
		fe.note(protocol.WriteBinaryReply(bw, cmd, rep))
	}), "ns"}
	if fe.err != nil {
		return fmt.Errorf("protocol: %w", fe.err)
	}

	m["host.calib_ns"] = metric{calibrate(), "ns"}
	return nil
}

// ladderSessions times Get and Set at both sizes through a gate-free
// session (core.*) and a gated one (session.*); hodor.gate_ns is the
// difference at 128 B.
func ladderSessions(m map[string]metric) error {
	b, err := memcached.CreateStore(memcached.Config{HeapBytes: 64 << 20, HashPower: 12})
	if err != nil {
		return err
	}
	defer b.Shutdown() //nolint:errcheck // in-memory store: nothing to flush
	cp, err := b.NewClientProcess(2000)
	if err != nil {
		return err
	}
	noGate, err := cp.NewSessionNoHodor()
	if err != nil {
		return err
	}
	defer noGate.Close()
	viaGate, err := cp.NewSession()
	if err != nil {
		return err
	}
	defer viaGate.Close()
	const nkeys = 512
	var fe firstErr
	note := fe.note
	for _, size := range ladderSizes {
		val := bytes.Repeat([]byte{'v'}, size.n)
		keys := make([][]byte, nkeys)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("ladder-%s-%04d", size.tag, i))
			note(noGate.Set(keys[i], val, 0, 0))
		}
		get := func(sess *memcached.Session) func(int) {
			return func(i int) {
				_, _, err := sess.Get(keys[i%nkeys])
				note(err)
			}
		}
		set := func(sess *memcached.Session) func(int) {
			return func(i int) { note(sess.Set(keys[i%nkeys], val, 0, 0)) }
		}
		tCore, tSess, gate := perCallPair(21, 2000, get(noGate), get(viaGate))
		m["core.get_ns."+size.tag] = metric{tCore, "ns"}
		m["session.get_ns."+size.tag] = metric{tSess, "ns"}
		if size.tag == "128" {
			m["hodor.gate_ns"] = metric{gate, "ns"}
		}
		tCore, tSess, _ = perCallPair(21, 2000, set(noGate), set(viaGate))
		m["core.set_ns."+size.tag] = metric{tCore, "ns"}
		m["session.set_ns."+size.tag] = metric{tSess, "ns"}
	}
	if fe.err != nil {
		return fmt.Errorf("session ladder: %w", fe.err)
	}
	return nil
}

// ladderCluster times routing (a ClusterSession Get minus the owning
// shard's Session Get) and the proxy round trips over loopback.
func ladderCluster(m map[string]metric, keys [][]byte) error {
	c, err := memcached.CreateCluster(memcached.ClusterConfig{
		Shards: 2, Store: memcached.Config{HeapBytes: 16 << 20, HashPower: 10},
	})
	if err != nil {
		return err
	}
	defer c.Shutdown() //nolint:errcheck // in-memory shards: nothing to flush
	cc, err := c.NewClientProcess(2001)
	if err != nil {
		return err
	}
	cs, err := cc.NewSession()
	if err != nil {
		return err
	}
	defer cs.Close()
	val := bytes.Repeat([]byte{'v'}, 128)
	owner := make([]*memcached.Session, len(keys))
	for i, k := range keys {
		if err := cs.Set(k, val, 0, 0); err != nil {
			return err
		}
		owner[i] = cs.Session(c.ShardFor(k))
	}
	var fe firstErr
	note := fe.note
	_, _, route := perCallPair(21, 4000, func(i int) {
		_, _, err := owner[i%len(keys)].Get(keys[i%len(keys)])
		note(err)
	}, func(i int) {
		_, _, err := cs.Get(keys[i%len(keys)])
		note(err)
	})
	m["cluster.route_ns"] = metric{route, "ns"}

	srv, err := c.ServeRemote("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	cl, err := client.Dial("tcp", srv.Addr().String(), client.Binary)
	if err != nil {
		return err
	}
	defer cl.Close()
	m["proxy.get_rtt_us"] = metric{perCall(15, 500, func(i int) {
		_, _, _, err := cl.Get(keys[i%len(keys)])
		note(err)
	}) / 1e3, "us"}
	m["proxy.mget16_rtt_us"] = metric{perCall(15, 200, func(i int) {
		j := (i * mgetKeys) % (len(keys) - mgetKeys)
		got, err := cl.MGet(keys[j : j+mgetKeys])
		if err == nil && len(got) != mgetKeys {
			err = fmt.Errorf("mget returned %d of %d keys", len(got), mgetKeys)
		}
		note(err)
	}) / 1e3, "us"}
	if fe.err != nil {
		return fmt.Errorf("cluster ladder: %w", fe.err)
	}
	return nil
}

// calibrate times a fixed pure-Go loop (xorshift, 65536 rounds) and returns
// the median of 31 runs in nanoseconds: a host-speed reference that no
// change to the program can move.
func calibrate() float64 {
	var sink uint64
	times := make([]float64, 31)
	for r := range times {
		x := uint64(88172645463325252)
		start := time.Now()
		for i := 0; i < 1<<16; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		times[r] = float64(time.Since(start))
		sink += x
	}
	runtime.KeepAlive(sink)
	slices.Sort(times)
	return times[len(times)/2]
}
