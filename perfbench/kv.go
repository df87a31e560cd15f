package main

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"sync"
	"time"

	"plibmc/internal/client"
	"plibmc/internal/protocol"
	"plibmc/memcached"
)

// kv is one client's handle on the system under test: the benchmark's KV
// adaptor. A miss is a result (found == false, nil error); any error is a
// failed operation.
type kv interface {
	get(key []byte) (value []byte, found bool, err error)
	set(key, value []byte) error
	// mget stores key i's value in vals[i], nil on a miss, and returns how
	// many keys failed to read.
	mget(keys, vals [][]byte) (failed int, err error)
	close()
}

// system is a built system under test: one kv per client, the shards whose
// public counters the traced run reads, and its lifecycle hooks.
type system struct {
	kvs    []kv
	shards []*memcached.Bookkeeper
	dir    string // backing files, if any
	// start launches the background loops a deployment runs; stop ends
	// them and releases the system. reopen, when set, is the restart check
	// run after the timed phase: shut down, reopen from disk and return a
	// fresh kv over the reopened store.
	start  func()
	stop   func() error
	reopen func() (kv, error)
}

// hashPower sizes the bucket table to the per-shard record count, so no
// background table expansion runs inside the timed phase.
func hashPower(perShard int) uint {
	return uint(max(bits.Len(uint(perShard)), 10))
}

func buildLib(sp *spec, _ string) (*system, error) {
	b, err := memcached.CreateStore(memcached.Config{
		HeapBytes: sp.heapBytes, HashPower: hashPower(sp.records),
	})
	if err != nil {
		return nil, err
	}
	sys := &system{shards: []*memcached.Bookkeeper{b}}
	sys.start = func() { b.StartMaintenance(time.Second) }
	sys.stop = func() error {
		closeAll(sys.kvs)
		return b.Shutdown()
	}
	// One client process per client, as in the paper: each maps the heap
	// at its own base and runs the Hodor loader.
	for i := 0; i < clients; i++ {
		cp, err := b.NewClientProcess(1000 + i)
		if err != nil {
			sys.stop() //nolint:errcheck // already failing
			return nil, err
		}
		s, err := cp.NewSession()
		if err != nil {
			sys.stop() //nolint:errcheck // already failing
			return nil, err
		}
		sys.kvs = append(sys.kvs, sessionKV{s})
	}
	return sys, nil
}

func (sp *spec) clusterConfig(dir string) memcached.ClusterConfig {
	return memcached.ClusterConfig{
		Shards: sp.shards,
		Dir:    dir,
		Store: memcached.Config{
			HeapBytes: sp.heapBytes, MemLimit: sp.memLimit,
			HashPower: hashPower(sp.records / sp.shards),
		},
	}
}

// startCluster runs the cluster daemon's background loops at its deployed
// cadences, plus checkpointing when the workload asks for it.
func (sp *spec) startCluster(c *memcached.Cluster) {
	c.StartMaintenance(time.Second)
	c.StartSupervisor(time.Second)
	if sp.checkpoint > 0 {
		c.StartCheckpointing(sp.checkpoint)
	}
}

func clusterKVs(c *memcached.Cluster, n int) ([]kv, error) {
	var kvs []kv
	for i := 0; i < n; i++ {
		cc, err := c.NewClientProcess(1000 + i)
		if err == nil {
			var s *memcached.ClusterSession
			if s, err = cc.NewSession(); err == nil {
				kvs = append(kvs, clusterKV{s})
				continue
			}
		}
		closeAll(kvs)
		return nil, err
	}
	return kvs, nil
}

func shardsOf(c *memcached.Cluster) []*memcached.Bookkeeper {
	out := make([]*memcached.Bookkeeper, c.Shards())
	for i := range out {
		out[i] = c.Shard(i)
	}
	return out
}

func buildCluster(sp *spec, dir string) (*system, error) {
	cfg := sp.clusterConfig(dir)
	c, err := memcached.CreateCluster(cfg)
	if err != nil {
		return nil, err
	}
	kvs, err := clusterKVs(c, clients)
	if err != nil {
		c.Shutdown() //nolint:errcheck // already failing
		return nil, err
	}
	sys := &system{kvs: kvs, shards: shardsOf(c), dir: dir}
	sys.start = func() { sp.startCluster(c) }
	sys.stop = func() error {
		closeAll(sys.kvs)
		err := c.Shutdown()
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		return err
	}
	sys.reopen = func() (kv, error) {
		closeAll(sys.kvs)
		sys.kvs = nil
		if err := c.Shutdown(); err != nil {
			return nil, fmt.Errorf("cluster shutdown: %w", err)
		}
		c2, err := memcached.OpenCluster(cfg)
		if err != nil {
			return nil, fmt.Errorf("reopen cluster: %w", err)
		}
		// From here stop releases the reopened cluster and its session.
		c = c2
		if sys.kvs, err = clusterKVs(c2, 1); err != nil {
			return nil, err
		}
		return sys.kvs[0], nil
	}
	return sys, nil
}

func buildProxy(sp *spec, _ string) (*system, error) {
	c, err := memcached.CreateCluster(sp.clusterConfig(""))
	if err != nil {
		return nil, err
	}
	srv, err := c.ServeRemote("tcp", "127.0.0.1:0")
	if err != nil {
		c.Shutdown() //nolint:errcheck // already failing
		return nil, err
	}
	sys := &system{shards: shardsOf(c)}
	sys.start = func() { sp.startCluster(c) }
	sys.stop = func() error {
		closeAll(sys.kvs)
		srv.Close()
		return c.Shutdown()
	}
	for i := 0; i < clients; i++ {
		cl, err := client.Dial("tcp", srv.Addr().String(), client.Binary)
		if err != nil {
			sys.stop() //nolint:errcheck // already failing
			return nil, err
		}
		sys.kvs = append(sys.kvs, proxyKV{cl})
	}
	return sys, nil
}

func closeAll(kvs []kv) {
	for _, k := range kvs {
		k.close()
	}
}

// sessionKV adapts memcached.Session (one store, through the Hodor gate).
type sessionKV struct{ s *memcached.Session }

func (a sessionKV) get(key []byte) ([]byte, bool, error) {
	return missIsResult(a.s.Get(key))
}
func (a sessionKV) set(key, value []byte) error { return a.s.Set(key, value, 0, 0) }
func (a sessionKV) mget(keys, vals [][]byte) (int, error) {
	return batchGet(a.s.ExecBatch, keys, vals)
}
func (a sessionKV) close() { a.s.Close() }

// clusterKV adapts memcached.ClusterSession (ring-routed shards).
type clusterKV struct{ s *memcached.ClusterSession }

func (a clusterKV) get(key []byte) ([]byte, bool, error) {
	return missIsResult(a.s.Get(key))
}
func (a clusterKV) set(key, value []byte) error { return a.s.Set(key, value, 0, 0) }
func (a clusterKV) mget(keys, vals [][]byte) (int, error) {
	return batchGet(a.s.ExecBatch, keys, vals)
}
func (a clusterKV) close() { a.s.Close() }

func missIsResult(v []byte, _ uint32, err error) ([]byte, bool, error) {
	if errors.Is(err, memcached.ErrNotFound) {
		return nil, false, nil
	}
	return v, err == nil, err
}

// batchGet runs a multi-get as one ExecBatch rather than MGet, because
// MGet folds a per-key failure into a miss and the benchmark must count it.
func batchGet(exec func([]memcached.BatchOp) ([]memcached.BatchResult, error), keys, vals [][]byte) (int, error) {
	ops := make([]memcached.BatchOp, len(keys))
	for i, k := range keys {
		ops[i] = memcached.BatchOp{Code: memcached.BatchGet, Key: k}
	}
	res, err := exec(ops)
	if err != nil {
		return 0, err
	}
	failed := 0
	for i := range res {
		vals[i] = nil
		switch {
		case res[i].Err == nil:
			vals[i] = res[i].Value
		case !errors.Is(res[i].Err, memcached.ErrNotFound):
			failed++
		}
	}
	return failed, nil
}

// proxyKV adapts a binary-protocol internal/client connection to the
// cluster proxy. client.MGet reports only the keys that came back, so a
// per-key error status there reads as a miss: on proxy-mixed128 every
// record stays resident, so it would show as get_hit_ratio below 1.
type proxyKV struct{ c *client.Client }

var errNotFound = "memcached: " + protocol.StatusKeyNotFound.String()

func (a proxyKV) get(key []byte) ([]byte, bool, error) {
	v, _, _, err := a.c.Get(key)
	if err != nil && err.Error() == errNotFound {
		return nil, false, nil
	}
	return v, err == nil, err
}
func (a proxyKV) set(key, value []byte) error { return a.c.Set(key, value, 0, 0) }
func (a proxyKV) mget(keys, vals [][]byte) (int, error) {
	got, err := a.c.MGet(keys)
	if err != nil {
		return 0, err
	}
	for i, k := range keys {
		vals[i] = got[string(k)]
	}
	return 0, nil
}
func (a proxyKV) close() { a.c.Close() }

// preload stores every record once, the clients splitting the record set.
func preload(sys *system, recs *records) error {
	var wg sync.WaitGroup
	errs := make([]error, len(sys.kvs))
	for c, k := range sys.kvs {
		wg.Add(1)
		go func(c int, k kv) {
			defer wg.Done()
			for i := c; i < len(recs.keys); i += len(sys.kvs) {
				if err := k.set(recs.keys[i], recs.value(uint32(i))); err != nil {
					errs[c] = fmt.Errorf("preload record %d: %w", i, err)
					return
				}
			}
		}(c, k)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// dataDir makes a fresh directory for backing files under root.
func dataDir(root, name string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, name+"-")
}
