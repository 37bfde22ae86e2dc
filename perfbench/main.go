// Command perfbench is the repository's end-to-end benchmark. It builds
// the serving tier in-process from its public constructors (serve.New,
// gateway.New, monitorhub.New), drives one named workload over loopback
// for a fixed number of operations on a seeded input sequence, checks
// every answer against oracles independent of the identification code,
// and prints one JSON result as its last line:
//
//	perfbench --workload serve-distinct --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced run
// and reports the per-layer metrics. --seconds sizes the fixed operation
// count (about that long on a 2-core machine). See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// The workloads.
const (
	serveDistinct = "serve-distinct"
	gatewayReplay = "gateway-replay"
	hubFleet      = "hub-fleet"
)

var workloads = []string{serveDistinct, gatewayReplay, hubFleet}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics every traced run reports.
var perLayer = []metricDef{
	{"serve.decode_us", "us"},
	{"trace.decode_us", "us"},
	{"core.features_us", "us"},
	{"core.classify_us", "us"},
	{"core.identify_us", "us"},
	{"core.identify_batch_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.residual_ms", "ms"},
	{"serve.p50_traced_ms", "ms"},
	{"serve.p50_untraced_ms", "ms"},
	{"parallel.batch_size_mean", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"gateway.hop_ms", "ms"},
	{"gateway.flush_size_mean", "count"},
	{"gateway.coalesced_ratio", "ratio"},
	{"gateway.conn_reuse_ratio", "ratio"},
	{"gateway.retried", "count"},
	{"monitor.segment_us", "us"},
	{"monitorhub.ingest_us", "us"},
	{"monitorhub.drain_ms", "ms"},
	{"monitorhub.sessions_per_round", "count"},
	{"monitorhub.shed", "count"},
	{"monitorhub.low_confidence", "count"},
	{"core.train_features_s", "s"},
	{"core.train_fit_s", "s"},
	{"registry.open_ms", "ms"},
	{"go.allocs_per_op", "count"},
	{"go.gc_per_kop", "count"},
	{"go.heap_peak_mb", "MiB"},
}

// Fixed operation counts. A run does about this much work per second of
// --seconds on a 2-core machine; the count depends only on the flags, so
// every run of a workload scores the same number of operations.
const (
	serveRate   = 420  // requests/s
	gatewayRate = 1000 // requests/s
	hubRate     = 100  // rounds/s
)

// serveBlocks is the serve-distinct length in whole blocks.
func serveBlocks(seconds int) int { return max(measuredSegments, serveRate*seconds/blockLen) }

// gatewayOps is the gateway-replay length in requests.
func gatewayOps(seconds int) int { return max(400, gatewayRate*seconds) }

// hubRounds is the hub-fleet length in rounds.
func hubRounds(seconds int) int { return max(4*hubCycleRound, hubRate*seconds) }

// setupSamples is how many set-ups a run times: its own and the rest in
// fresh child processes. It reports their median.
const setupSamples = 7

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newResult checks that values holds exactly the defined metrics, each a
// finite number.
func newResult(correct bool, attempted, failed int, defs []metricDef, values map[string]float64) (*result, error) {
	if len(values) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, defined %d", len(values), len(defs))
	}
	r := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	return r, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// runUntraced is the --trace 0 run of workload w.
func runUntraced(w string, seed int64, seconds int) (*result, error) {
	st, d, err := timedSetUp(w, nil)
	if err != nil {
		return nil, err
	}
	defer st.close()
	setups := []float64{d.Seconds()}
	for len(setups) < setupSamples {
		d, err := setupSample(w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}

	var (
		e       e2e
		failed  int
		ok      bool
		why     string
		started = time.Now()
	)
	switch w {
	case serveDistinct:
		calls, err := serveDistinctCalls(seed, serveBlocks(seconds))
		if err != nil {
			return nil, err
		}
		o := newOracle()
		if e, err = runServeDistinct(st, calls, o); err != nil {
			return nil, err
		}
		failed = e.failed
		ok, why = o.verdict()
		logf("%s: %d of %d distinct lab captures right", w, o.right, o.scored)
	case gatewayReplay:
		in, err := gatewayReplayCalls(seed, gatewayOps(seconds))
		if err != nil {
			return nil, err
		}
		o := newOracle()
		if e, err = runGatewayReplay(st, in, o); err != nil {
			return nil, err
		}
		failed = e.failed
		ok, why = o.verdict()
		logf("%s: %d of %d distinct lab captures right", w, o.right, o.scored)
	case hubFleet:
		rounds := hubRounds(seconds)
		script, err := newHubScript(seed, hubWarmupRounds+rounds)
		if err != nil {
			return nil, err
		}
		o := &hubOracle{}
		if e, err = runHubFleet(st, script, rounds, o); err != nil {
			return nil, err
		}
		failed = e.failed
		ok, why = o.verdict()
		logf("%s: %d of %d placements confirmed the scripted liquid", w, o.right, o.placements)
	}
	if !ok {
		logf("%s: %s", w, why)
	}
	logf("%s: %d operations in %.1fs", w, e.ops, time.Since(started).Seconds())
	return newResult(ok, e.ops, failed, endToEnd, map[string]float64{
		"setup_s":          median(setups),
		"p50_ms":           e.p50,
		"p90_ms":           e.p90,
		"throughput_per_s": e.throughput,
		"cpu_ms_per_op":    e.cpuPerOp,
		"peak_rss_mb":      peakRSSMiB(),
	})
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: serve-distinct, gateway-replay or hub-fleet")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "run length; sizes the fixed operation count")
		traced   = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		child    = flag.Bool(setupChildFlag, false, "time one set-up and exit (used by the run itself)")
	)
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *child {
		if err := runSetupChild(*workload); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	run := runUntraced
	if *traced == 1 {
		run = runTraced
	}
	res, err := run(*workload, *seed, *seconds)
	if err != nil {
		logf("%s: %v", *workload, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
