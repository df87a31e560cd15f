// Command perfbench is the repository's benchmark. It builds the system
// under test in-process, loads it, runs one closed-loop workload for a
// fixed time, checks every value it reads, and prints each metric by name
// with its unit; the last line of standard output is one JSON object.
//
//	go run . --workload lib-read128 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records sampled spans in alternate windows of the timed phase, reads the
// layers' public counters, times a ladder of direct calls into each layer,
// and reports the per-layer metrics instead. run.sh
// builds and runs it from the repository root. Workload definitions and
// the reasons for them are in workload.go.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// setupReps is how many times an untraced run builds and loads the system;
// it reports the median and keeps the last.
const setupReps = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // scratch directory for backing files and span dumps
	smoke    bool
	// wrap, when set, wraps every client's adaptor (a test hook).
	wrap func(kv) kv
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: lib-read128, cluster-write5k or proxy-mixed128")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&o.dir, "dir", ".bench_build/data", "scratch directory for backing files and span dumps")
	fs.BoolVar(&o.smoke, "smoke", false, "shrink the record set and cadences for a quick self-test")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	res, err := runWorkload(o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload and returns its result. A readable summary
// goes to summary and progress to log; the caller prints the JSON line.
func runWorkload(o options, summary, log io.Writer) (*result, error) {
	sp, err := findSpec(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if o.smoke {
		sp.shrink()
	}
	recs := newRecords(sp.records, sp.valueSize)
	cs := make([]*loadClient, clients)
	for c := range cs {
		cs[c] = newLoadClient(c, nil, sp.stream(o.seed, c))
	}

	reps := setupReps
	if o.trace {
		reps = 1
	}
	sys, setups, err := setUp(sp, recs, o.dir, reps)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			sys.stop() //nolint:errcheck // already returning an error
		}
	}()
	for c, k := range sys.kvs {
		if o.wrap != nil {
			k = o.wrap(k)
		}
		cs[c].kv = k
	}
	fmt.Fprintf(log, "%s: %d records of %d B, set-up %.3fs (median of %d)\n",
		sp.name, sp.records, sp.valueSize, median(setups), len(setups))

	sys.start()
	length := time.Duration(o.seconds * float64(time.Second))
	warm, err := warmUp(sp, sys, cs, recs, min(time.Second, length))
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if o.trace {
		tr = newTracer(o.seconds)
		tr.sample(sys.shards)
	}
	before := snapshotCounters(sys)
	timed, elapsed := phase(cs, recs, tr, 10*time.Millisecond, func(e time.Duration) bool {
		if tr != nil {
			tr.tick(e)
		}
		return e >= length
	})
	after := snapshotCounters(sys)
	if tr != nil {
		tr.finish(elapsed)
		tr.stopSampling()
	}

	all := newTally()
	all.merge(warm)
	all.merge(timed)
	if sys.reopen != nil {
		rc, err := restartCheck(sys, recs)
		if err != nil {
			return nil, err
		}
		all.merge(rc)
		fmt.Fprintf(log, "restart check: %d of %d records present after reopen, all verified\n",
			rc.hits, rc.reads)
	}
	stopped = true
	if err := sys.stop(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	if all.firstErr != nil {
		fmt.Fprintf(log, "first failure: %v\n", all.firstErr)
	}
	if all.firstBad != "" {
		fmt.Fprintf(log, "VALUE MISMATCH (%d): %s\n", all.mismatches, all.firstBad)
	}

	res := &result{
		Correct:   all.mismatches == 0,
		Attempted: all.ops,
		Failed:    all.failed,
		Metrics:   map[string]metric{},
	}
	if o.trace {
		layerMetrics(res.Metrics, sp, tr, timed, elapsed, before, after)
		runtime.GC()
		if err := ladder(res.Metrics); err != nil {
			return nil, fmt.Errorf("layer ladder: %w", err)
		}
		if path, err := tr.dump(o.dir, sp.name, o.seed); err != nil {
			fmt.Fprintf(log, "span dump: %v\n", err)
		} else {
			fmt.Fprintf(log, "spans: %s\n", path)
		}
	} else {
		endToEnd(res.Metrics, sp, timed, elapsed, setups, after)
	}
	printSummary(summary, sp, o, res, timed)
	return res, nil
}

// setUp builds and loads the system reps times, timing each, and keeps the
// last. Earlier copies are stopped and their memory returned first, so each
// build starts from the same state.
func setUp(sp *spec, recs *records, root string, reps int) (*system, []float64, error) {
	var sys *system
	var times []float64
	for rep := 0; rep < reps; rep++ {
		if sys != nil {
			if err := sys.stop(); err != nil {
				return nil, nil, fmt.Errorf("set-up teardown: %w", err)
			}
			sys = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		dir := ""
		if sp.checkpoint > 0 {
			var err error
			if dir, err = dataDir(root, sp.name); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		var err error
		sys, err = sp.build(sp, dir)
		if err != nil {
			os.RemoveAll(dir) //nolint:errcheck // already failing
			return nil, nil, fmt.Errorf("build %s: %w", sp.name, err)
		}
		if err := preload(sys, recs); err != nil {
			sys.stop() //nolint:errcheck // already failing
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return sys, times, nil
}

// warmUp runs the load untimed until the system is in steady state: at
// least minimum of traffic and, on a checkpointing workload, memory full
// and evicting, with at least one checkpoint completed on every shard. The
// timed phase then starts just after a checkpoint, so the number of
// checkpoints inside it is the same on every run.
func warmUp(sp *spec, sys *system, cs []*loadClient, recs *records, minimum time.Duration) (*tally, error) {
	const limit = 60 * time.Second
	ready := func() bool { return true }
	if sp.checkpoint > 0 {
		ev0 := sumStats(sys).Evictions
		ready = func() bool {
			for _, b := range sys.shards {
				if b.Metrics().Checkpoint.Checkpoints == 0 {
					return false
				}
			}
			return sumStats(sys).Evictions > ev0
		}
	}
	var timedOut bool
	t, _ := phase(cs, recs, nil, 20*time.Millisecond, func(e time.Duration) bool {
		timedOut = e > limit
		return timedOut || (e >= minimum && ready())
	})
	if timedOut {
		return nil, fmt.Errorf("warm-up: no steady state after %v", limit)
	}
	return t, nil
}

// restartCheck shuts the cluster down, reopens it from its images and
// reads every record: each one still present must hold its value.
func restartCheck(sys *system, recs *records) (*tally, error) {
	k, err := sys.reopen()
	if err != nil {
		return nil, err
	}
	t := newTally()
	for i, key := range recs.keys {
		v, found, err := k.get(key)
		if err != nil {
			return nil, fmt.Errorf("read after reopen: %w", err)
		}
		if !found {
			v = nil
		}
		t.check(recs, uint32(i), v)
	}
	if t.hits == 0 {
		return nil, errors.New("restart check: no record survived the reopen")
	}
	return t, nil
}

// endToEnd reports the timed phase's throughput, latency percentiles over
// every operation of the phase, hit ratio and space amplification.
func endToEnd(m map[string]metric, sp *spec, t *tally, elapsed time.Duration, setups []float64, after counters) {
	us := func(k opKind, q float64) float64 { return t.rec[k].quantile(q) / 1e3 }
	m["setup_s"] = metric{median(setups), "s"}
	m["ops_per_s"] = metric{float64(t.ops) / elapsed.Seconds(), "1/s"}
	m["get_p50_us"] = metric{us(opGet, 0.50), "us"}
	m["get_p99_us"] = metric{us(opGet, 0.99), "us"}
	m["set_p50_us"] = metric{us(opSet, 0.50), "us"}
	m["set_p99_us"] = metric{us(opSet, 0.99), "us"}
	m["mget_p50_us"] = metric{us(opMGet, 0.50), "us"}
	m["mget_p99_us"] = metric{us(opMGet, 0.99), "us"}
	m["get_hit_ratio"] = metric{ratio(t.hits, t.reads), "ratio"}
	m["space_amp"] = metric{ratio(after.liveBytes, after.stats.CurrItems*uint64(keyLen+sp.valueSize)), "B/B"}
}

func printSummary(w io.Writer, sp *spec, o options, res *result, t *tally) {
	fmt.Fprintf(w, "%s seed=%d seconds=%g trace=%v: %d attempted, %d failed, correct=%v\n",
		sp.name, o.seed, o.seconds, o.trace, res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", n, m.Value, m.Unit)
	}
	if !o.trace {
		fmt.Fprintf(w, "  latency samples: get %d, set %d, mget %d\n",
			t.rec[opGet].n, t.rec[opSet].n, t.rec[opMGet].n)
	}
}

// median returns the median of xs, or 0 when xs is empty.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 { return div(float64(a), float64(b)) }

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
