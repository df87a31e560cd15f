package client

import (
	"fmt"
	"path/filepath"
	"testing"

	"plibmc/internal/server"
)

func startServer(t *testing.T, name string) string {
	t.Helper()
	sock := filepath.Join(t.TempDir(), name+".sock")
	srv, err := server.New(server.Config{Network: "unix", Addr: sock, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return sock
}

func TestMultiClientEndToEnd(t *testing.T) {
	socks := []string{
		"unix:" + startServer(t, "a"),
		"unix:" + startServer(t, "b"),
		"unix:" + startServer(t, "c"),
	}
	mc, err := DialMulti(socks, Binary)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	// Spread writes; every key must be readable and live on its ring
	// owner only.
	servers := map[string]int{}
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		if err := mc.Set(k, []byte(fmt.Sprintf("val-%03d", i)), 0, 0); err != nil {
			t.Fatal(err)
		}
		servers[mc.ServerFor(k)]++
	}
	if len(servers) != 3 {
		t.Fatalf("keys spread over %d servers, want 3: %v", len(servers), servers)
	}
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		v, _, _, err := mc.Get(k)
		if err != nil || string(v) != fmt.Sprintf("val-%03d", i) {
			t.Fatalf("get %s = %q, %v", k, v, err)
		}
	}

	// Batched multi-get across all three servers.
	var keys [][]byte
	for i := 0; i < 200; i += 2 {
		keys = append(keys, []byte(fmt.Sprintf("key-%03d", i)))
	}
	got, err := mc.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("mget returned %d, want 100", len(got))
	}
	for i := 0; i < 200; i += 2 {
		k := fmt.Sprintf("key-%03d", i)
		if string(got[k]) != fmt.Sprintf("val-%03d", i) {
			t.Fatalf("mget[%s] = %q", k, got[k])
		}
	}

	// Counters and deletes route consistently.
	mc.Set([]byte("ctr"), []byte("5"), 0, 0)
	if v, err := mc.Increment([]byte("ctr"), 3); err != nil || v != 8 {
		t.Fatalf("incr = %d, %v", v, err)
	}
	if err := mc.Delete([]byte("ctr")); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := mc.Get([]byte("ctr")); err == nil {
		t.Fatal("deleted key still present")
	}
	if err := mc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := mc.Get([]byte("key-000")); err == nil {
		t.Fatal("flushed key still present")
	}
}

func TestDialMultiValidation(t *testing.T) {
	if _, err := DialMulti(nil, Binary); err == nil {
		t.Fatal("empty server list should fail")
	}
	if _, err := DialMulti([]string{"garbage"}, Binary); err == nil {
		t.Fatal("malformed server spec should fail")
	}
	if _, err := DialMulti([]string{"unix:/nonexistent/never.sock"}, Binary); err == nil {
		t.Fatal("unreachable server should fail")
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial("unix", "/nonexistent/never.sock", Binary); err == nil {
		t.Fatal("dial of missing socket should fail")
	}
}

func TestASCIIMGetSingleServer(t *testing.T) {
	sock := startServer(t, "ascii")
	c, err := Dial("unix", sock, ASCII)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		if err := c.Set([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	keys := [][]byte{[]byte("k1"), []byte("k3"), []byte("missing"), []byte("k7")}
	got, err := c.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got["k3"]) != "v3" {
		t.Fatalf("ascii mget = %v", got)
	}
}
