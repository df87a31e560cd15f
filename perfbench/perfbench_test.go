package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"plibmc/internal/ycsb"
)

// manifest is the part of BENCHMARK.json the self-test checks against.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// lastLine runs the command line, fails the test unless it exits 0, and
// returns the last line of its standard output.
func lastLine(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	return []byte(lines[len(lines)-1])
}

// TestSmokeEveryWorkload runs each workload shrunk, untraced and traced,
// and checks the result line against BENCHMARK.json: exactly the four
// top-level keys, a correct run with no failures, and every metric the
// manifest names with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	m := loadManifest(t)
	if len(m.Workloads) == 0 {
		t.Fatal("no workloads in BENCHMARK.json")
	}
	for _, w := range m.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				line := lastLine(t, "--workload", w.Name, "--seed", "7", "--seconds", "0.5",
					"--trace", trace, "--smoke", "--dir", t.TempDir())
				var top map[string]json.RawMessage
				var res result
				if err := json.Unmarshal(line, &top); err != nil {
					t.Fatalf("last line is not a JSON object: %v\n%s", err, line)
				}
				if err := json.Unmarshal(line, &res); err != nil {
					t.Fatal(err)
				}
				keys := make([]string, 0, len(top))
				for k := range top {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
					t.Fatalf("top-level keys %v, want %v", keys, want)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				want := m.EndToEnd
				if trace == "1" {
					want = m.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, manifest names %d", len(res.Metrics), len(want))
				}
				for _, w := range want {
					got, ok := res.Metrics[w.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", w.Name)
					case got.Unit != w.Unit:
						t.Errorf("metric %s unit %q, want %q", w.Name, got.Unit, w.Unit)
					}
				}
			})
		}
	}
}

// corruptKV flips one byte of every tenth hit a single get returns.
type corruptKV struct {
	kv
	n int
}

func (c *corruptKV) get(key []byte) ([]byte, bool, error) {
	v, found, err := c.kv.get(key)
	if found && len(v) > 0 {
		if c.n++; c.n%10 == 0 {
			v = append([]byte(nil), v...)
			v[len(v)/2] ^= 0x20
		}
	}
	return v, found, err
}

// TestCorruptValueFailsRun feeds corrupted values through the benchmark's
// own adaptor and expects the run to be reported incorrect.
func TestCorruptValueFailsRun(t *testing.T) {
	for _, w := range []string{"lib-read128", "proxy-mixed128"} {
		t.Run(w, func(t *testing.T) {
			var summary, log bytes.Buffer
			res, err := runWorkload(options{
				workload: w, seed: 3, seconds: 0.3, smoke: true, dir: t.TempDir(),
				wrap: func(k kv) kv { return &corruptKV{kv: k} },
			}, &summary, &log)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct {
				t.Fatalf("corrupted values passed the check\n%s", &log)
			}
			if !strings.Contains(log.String(), "VALUE MISMATCH") {
				t.Errorf("no mismatch reported:\n%s", &log)
			}
		})
	}
}

// TestValuesMatchFillValue checks the windowed value shortcut against
// ycsb.FillValue, and that no two records share a key.
func TestValuesMatchFillValue(t *testing.T) {
	for _, sp := range specs() {
		recs := newRecords(sp.records, sp.valueSize)
		seen := make(map[string]bool, len(recs.keys))
		want := make([]byte, sp.valueSize)
		for i, k := range recs.keys {
			if seen[string(k)] {
				t.Fatalf("%s: duplicate key %s", sp.name, k)
			}
			seen[string(k)] = true
			if i%97 == 0 {
				ycsb.FillValue(want, uint64(i))
				if !bytes.Equal(recs.value(uint32(i)), want) {
					t.Fatalf("%s: record %d value differs from ycsb.FillValue", sp.name, i)
				}
			}
		}
	}
}

// TestStreamsFollowSeed checks that a seed fixes the inputs and another
// seed changes them.
func TestStreamsFollowSeed(t *testing.T) {
	sp, err := findSpec("proxy-mixed128")
	if err != nil {
		t.Fatal(err)
	}
	sp.shrink()
	a, b, c := sp.stream(1, 0), sp.stream(1, 0), sp.stream(2, 0)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different streams")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave the same stream")
	}
	if slices.Equal(a, sp.stream(1, 1)) {
		t.Fatal("two clients got the same stream")
	}
	var kinds [numKinds]int
	for _, o := range a {
		kinds[o.kind]++
	}
	for k, n := range kinds {
		if n == 0 {
			t.Errorf("no %s in the stream", kindNames[k])
		}
	}
}

func TestRecorderQuantiles(t *testing.T) {
	var r recorder
	for i := 1; i <= 1000; i++ {
		r.add(time.Duration(i) * 10 * time.Nanosecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 5000}, {0.99, 9900}, {0.001, 10}} {
		got := r.quantile(c.q)
		if d := (got - c.want) / c.want; d < -0.003 || d > 0.003 {
			t.Errorf("q%.3f = %.1f, want %.1f within 0.3%%", c.q, got, c.want)
		}
	}
	if r.slow != 0 {
		t.Errorf("slow = %d, want 0", r.slow)
	}
	r.add(2 * time.Millisecond)
	if r.slow != 1 {
		t.Errorf("slow = %d after a 2 ms op, want 1", r.slow)
	}
}
