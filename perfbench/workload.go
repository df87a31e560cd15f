package main

import (
	"fmt"
	"math/rand"
	"time"

	"plibmc/internal/ycsb"
)

// The three workloads. Every one is a closed loop: two client goroutines
// (one per vCPU of the reference 2-vCPU host) each wait for a reply before
// sending the next request, because that is how this system is called —
// application threads call the library synchronously and proxy clients
// wait on every request. An open-loop generator was tried and measured the
// host's scheduler, not the program: sleep pacing added ~380 µs of sender
// lateness to a ~10 µs median, and spin pacing still saw millisecond
// scheduling gaps in its p99.
//
// Keys are YCSB's scrambled Zipf(0.99) over the record set (internal/ycsb),
// and every value is deterministic for its key (ycsb.FillValue), so each
// byte a read returns can be checked. Bookkeeper maintenance runs at the
// daemon's deployed cadence (one pass a second) in all three.
//
// Why each workload exists, and which layers it loads or bypasses:
//
//   - lib-read128: memcached.Session over one in-memory store, 95/3/2
//     get/set/multi-get, 128 B values, 200 k records inside a 256 MiB heap.
//     The paper's headline path (Fig. 5 at 128 B, Figs. 6–7): the Hodor gate
//     crossing and the core seqlock Get dominate. It bypasses the 5 KB
//     copy and checksum costs, eviction, checkpointing, ring routing and
//     the socket.
//   - cluster-write5k: memcached.ClusterSession over two file-backed
//     shards, 48/50/2 get/set/multi-get, 5 KB values, a record set twice
//     the shards' combined MemLimit, Cluster.StartCheckpointing every 4 s.
//     Writes beside reads with a working set larger than the cache: heap
//     copies and the value checksum, ralloc's large size classes,
//     eviction and checkpoint pauses dominate; the gate is a small share.
//     The checkpoint pause shows in ops_per_s rather than in p50/p99.
//   - proxy-mixed128: a 4-shard in-memory Cluster behind
//     Cluster.ServeRemote on loopback TCP, driven by two binary-protocol
//     internal/client connections, 85/10/5 get/set/16-key multi-get,
//     128 B values. The socket, protocol parsing, ring routing and the
//     per-shard ExecBatch partitioning dominate. The proxy's contexts
//     bypass the gate, so gate costs are absent.
//
// Each workload carries a small multi-get share so that every run reports
// the mget_* metrics; an mget counts as one operation in ops_per_s.
//
// The layer-to-end-to-end map the traced run is read against (on every
// workload not named, the prediction is no change):
//
//	layer (module)             per-layer metrics                     moves                          on
//	internal/shm               shm.{read,write}_bytes_ns.{128,5k}    get/set_p50_us, ops_per_s      cluster-write5k (not lib-read128)
//	internal/ralloc            ralloc.malloc_free_ns.{128,5k}        set_p50_us                     cluster-write5k
//	internal/core              core.{get,set}_ns.{128,5k}            get/set_p50_us                 lib-read128, cluster-write5k
//	internal/core              core.fastpath_ratio,                  get_p99_us, get_hit_ratio      cluster-write5k
//	                           core.seqlock_retries_per_get,
//	                           core.evictions_per_set
//	internal/hodor             hodor.empty_call_ns, hodor.gate_ns,   get_p50_us, ops_per_s          lib-read128 (not proxy-mixed128)
//	                           hodor.crossings_per_op, hodor.rejected
//	memcached Session          session.{get,set}_ns.{128,5k}         get_p50_us                     lib-read128
//	memcached Cluster, ring    cluster.route_ns, ring.shard_ns,      ops_per_s                      cluster-write5k, proxy-mixed128
//	                           cluster.shard_skew
//	memcached checkpoint,      checkpoint.{pause_ms,count,failures,  ops_per_s, set_p99_us          cluster-write5k only
//	maintenance                image_bytes_per_user_byte},
//	                           maint.pass_ms
//	memcached proxy,           proxy.{get,mget16}_rtt_us,            ops_per_s, get_p50_us,         proxy-mixed128 (not lib-read128)
//	internal/protocol          protocol.{read_binary_command,        mget_p50_us
//	                           write_binary_reply}_ns,
//	                           proxy.mean_batch_size
//	Go runtime                 go.allocs_per_op, go.gc_cycles_per_s  ops_per_s                      proxy-mixed128
//	harness                    loadgen.ops_over_1ms_per_s,           none: stalls, host drift and   all
//	                           host.calib_ns, trace.overhead_ratio   tracing cost
//
// The ROADMAP's measurement ladder maps onto these rungs: copy and hash
// (shm.*), ralloc (ralloc.*), core op (core.*), gate crossing (hodor.*,
// session.*), cluster routing (cluster.*, ring.*) and the socket proxy
// (proxy.*, protocol.*); the three workloads are the end-to-end rung.

// clients is the closed loop's concurrency: one client per vCPU.
const clients = 2

// mgetKeys is the multi-get width.
const mgetKeys = 16

// keyLen is the length of every key ycsb.KeyInto renders.
const keyLen = 20

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opMGet
	numKinds
)

var kindNames = [numKinds]string{"get", "set", "mget"}

// spec is one workload definition. Mix shares are in percent.
type spec struct {
	name      string
	records   int
	valueSize int
	getPct    int
	setPct    int // the rest of 100 is multi-get
	streamLen int // pre-generated ops per client; the stream repeats
	build     func(sp *spec, dir string) (*system, error)

	// Store sizing: shard count (clusters), per-store heap and eviction
	// watermark (0 = the store's default), checkpoint cadence (0 = none).
	shards     int
	heapBytes  uint64
	memLimit   uint64
	checkpoint time.Duration
}

func specs() []*spec {
	const (
		clusterHeap  = 64 << 20
		clusterLimit = 40 << 20
		clusterShard = 2
		record5k     = keyLen + 5120
	)
	return []*spec{
		{
			name: "lib-read128", records: 200_000, valueSize: 128,
			getPct: 95, setPct: 3, streamLen: 1 << 20,
			heapBytes: 256 << 20,
			build:     buildLib,
		},
		{
			name: "cluster-write5k", valueSize: 5120,
			records: 2 * clusterShard * clusterLimit / record5k,
			getPct:  48, setPct: 50, streamLen: 1 << 18,
			shards: clusterShard, heapBytes: clusterHeap, memLimit: clusterLimit,
			// The timed phase starts just after a checkpoint; at a 4 s
			// cadence a 30 s phase ends 2 s after its seventh, so the count
			// inside does not depend on timing jitter.
			checkpoint: 4 * time.Second,
			build:      buildCluster,
		},
		{
			name: "proxy-mixed128", records: 100_000, valueSize: 128,
			getPct: 85, setPct: 10, streamLen: 1 << 19,
			shards: 4, heapBytes: 64 << 20,
			build: buildProxy,
		},
	}
}

func findSpec(name string) (*spec, error) {
	for _, sp := range specs() {
		if sp.name == name {
			return sp, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// shrink scales a workload down for the smoke mode: a tenth of the
// records (the cluster's memory shrinks with them, so the record set stays
// twice its MemLimit) and a short checkpoint cadence.
func (sp *spec) shrink() {
	sp.records /= 10
	sp.streamLen = 1 << 14
	if sp.memLimit != 0 {
		sp.memLimit /= 10
		sp.heapBytes /= 8
	} else {
		sp.heapBytes /= 4
	}
	if sp.checkpoint != 0 {
		sp.checkpoint = 500 * time.Millisecond
	}
}

// op is one pre-generated request: its kind and the record index of its
// key. A multi-get reads the record it names and the next mgetKeys-1
// entries' records in the stream.
type op struct {
	kind opKind
	rec  uint32
}

// records holds the rendered key of every record and the offset of its
// deterministic value inside pattern: ycsb.FillValue(buf, i) writes
// 'a'+(h(i)+j)%26, so every value is a window of one repeating alphabet.
type records struct {
	keys      [][]byte
	shift     []uint8
	pattern   []byte
	valueSize int
}

func newRecords(n, valueSize int) *records {
	r := &records{
		keys:      make([][]byte, n),
		shift:     make([]uint8, n),
		pattern:   make([]byte, valueSize+26),
		valueSize: valueSize,
	}
	for j := range r.pattern {
		r.pattern[j] = byte('a' + j%26)
	}
	// One backing array for every key keeps the garbage collector's work
	// on the harness's own data small.
	flat := make([]byte, n*keyLen)
	var one [1]byte
	for i := range r.keys {
		r.keys[i] = ycsb.KeyInto(flat[i*keyLen:i*keyLen:(i+1)*keyLen], uint64(i))
		ycsb.FillValue(one[:], uint64(i))
		r.shift[i] = one[0] - 'a'
	}
	return r
}

// value returns record i's deterministic value; callers must not modify it.
func (r *records) value(i uint32) []byte {
	s := int(r.shift[i])
	return r.pattern[s : s+r.valueSize]
}

// stream generates client c's request stream from the workload seed: keys
// from a scrambled Zipf(0.99) generator and kinds from a separate source,
// both seeded from (seed, c), so the same seed gives the same inputs.
func (sp *spec) stream(seed int64, c int) []op {
	base := seed*7919 + int64(c)*104729
	keys := ycsb.NewScrambled(uint64(sp.records), base+1)
	kinds := rand.New(rand.NewSource(base + 2))
	ops := make([]op, sp.streamLen)
	for i := range ops {
		k := opMGet
		switch p := kinds.Intn(100); {
		case p < sp.getPct:
			k = opGet
		case p < sp.getPct+sp.setPct:
			k = opSet
		}
		ops[i] = op{kind: k, rec: uint32(keys.Next())}
	}
	return ops
}
