package client

import (
	"fmt"
	"strings"

	"plibmc/internal/ring"
)

// Multi-server support: libmemcached distributes keys across a server list
// with consistent hashing, so that adding a server at the end of the list
// remaps only ~1/n of the key space. This is the client-side half of how
// memcached scales out in a data center — and exactly the part that still
// matters in the paper's hybrid deployment, where remote clients keep using
// sockets while local ones use the protected library. Placement uses the
// same ring as the cluster's shards (internal/ring): server i of the list
// is shard i.

// MultiClient is a client over several servers with consistent hashing:
// the memcached_st with a populated server list. Like Client, it is not
// safe for concurrent use.
type MultiClient struct {
	ring  *ring.Ring
	names []string
	conns []*Client
}

// DialMulti connects to every server in the list. Each entry is
// "network:address", e.g. "unix:/tmp/a.sock" or "tcp:127.0.0.1:11211".
func DialMulti(servers []string, proto Protocol) (*MultiClient, error) {
	r, err := ring.New(len(servers), 0)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	mc := &MultiClient{ring: r, names: append([]string(nil), servers...),
		conns: make([]*Client, len(servers))}
	for i, s := range servers {
		network, addr, ok := strings.Cut(s, ":")
		if !ok {
			mc.Close()
			return nil, fmt.Errorf("client: server %q is not network:address", s)
		}
		c, err := Dial(network, addr, proto)
		if err != nil {
			mc.Close()
			return nil, fmt.Errorf("client: dial %s: %w", s, err)
		}
		mc.conns[i] = c
	}
	return mc, nil
}

// Close closes every connection.
func (mc *MultiClient) Close() error {
	var first error
	for _, c := range mc.conns {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ServerFor reports which server name owns key (for tests and diagnostics).
func (mc *MultiClient) ServerFor(key []byte) string {
	return mc.names[mc.ring.Shard(key)]
}

func (mc *MultiClient) conn(key []byte) *Client { return mc.conns[mc.ring.Shard(key)] }

// Get fetches key from its owning server.
func (mc *MultiClient) Get(key []byte) ([]byte, uint32, uint64, error) {
	return mc.conn(key).Get(key)
}

// Set stores key on its owning server.
func (mc *MultiClient) Set(key, value []byte, flags uint32, exptime int64) error {
	return mc.conn(key).Set(key, value, flags, exptime)
}

// Delete removes key from its owning server.
func (mc *MultiClient) Delete(key []byte) error { return mc.conn(key).Delete(key) }

// Increment adjusts a counter on its owning server.
func (mc *MultiClient) Increment(key []byte, delta uint64) (uint64, error) {
	return mc.conn(key).Increment(key, delta)
}

// MGet batches a multi-key get per owning server: keys are grouped by
// ring placement, each group goes out as one pipelined quiet-get batch,
// and the results are merged.
func (mc *MultiClient) MGet(keys [][]byte) (map[string][]byte, error) {
	groups := make(map[int][][]byte)
	for _, k := range keys {
		si := mc.ring.Shard(k)
		groups[si] = append(groups[si], k)
	}
	out := make(map[string][]byte, len(keys))
	for si, group := range groups {
		part, err := mc.conns[si].MGet(group)
		if err != nil {
			return nil, fmt.Errorf("client: mget on %s: %w", mc.names[si], err)
		}
		for k, v := range part {
			out[k] = v
		}
	}
	return out, nil
}

// FlushAll flushes every server.
func (mc *MultiClient) FlushAll() error {
	for _, c := range mc.conns {
		if err := c.FlushAll(); err != nil {
			return err
		}
	}
	return nil
}
