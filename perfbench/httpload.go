package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
)

// clientConns is the load generator's connection count: closed-loop
// callers, one per connection, each sending its next request only after
// its previous answer arrived.
const clientConns = 2

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clientConns,
		MaxIdleConnsPerHost: clientConns,
		DisableCompression:  true,
	}}
}

// post sends one identify request and decodes the answer.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) (answer, http.Header, error) {
	resp, err := c.Post(url+"/v1/identify", "application/json", bytes.NewReader(body))
	if err != nil {
		return answer{}, nil, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return answer{}, nil, err
	}
	a := answer{status: resp.StatusCode}
	if a.status == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &a); err != nil {
			return answer{}, nil, fmt.Errorf("decoding answer: %w", err)
		}
	}
	return a, resp.Header, nil
}

// loopResult is one closed-loop pass: per-call latency and answer.
type loopResult struct {
	lat  []time.Duration
	ans  []answer
	wall time.Duration
	cpu  time.Duration
}

// closedLoop sends calls[i] in order of i from clientConns callers. after,
// when set, runs on caller w's goroutine once call i is answered, before
// that caller takes its next call; the traced run hangs its layer timings
// there.
func closedLoop(c *http.Client, url string, calls []call, after func(w, i int) error) (*loopResult, error) {
	res := &loopResult{lat: make([]time.Duration, len(calls)), ans: make([]answer, len(calls))}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, clientConns)
	cpu0, t0 := cpuTime(), time.Now()
	for w := 0; w < clientConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(calls) {
					return
				}
				start := time.Now()
				a, _, err := post(c, url, calls[i].body, &buf)
				res.lat[i] = time.Since(start)
				if err != nil {
					errs[w] = err
					next.Store(int64(len(calls)))
					return
				}
				res.ans[i] = a
				if after != nil {
					if err := after(w, i); err != nil {
						errs[w] = err
						next.Store(int64(len(calls)))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	res.wall, res.cpu = time.Since(t0), cpuTime()-cpu0
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// e2e is a run's end-to-end figures before set-up and memory are added.
type e2e struct {
	p50, p90, throughput, cpuPerOp float64
	ops, failed                    int
}

// score runs every answer through the oracle and computes the latency,
// throughput and CPU figures. Failed calls count as +Inf latency and are
// left out of throughput.
func score(calls []call, res *loopResult, o *oracle) e2e {
	lat := make([]float64, len(calls))
	ok := 0
	for i, c := range calls {
		o.check(c, res.ans[i])
		if res.ans[i].status == http.StatusOK {
			lat[i] = ms(res.lat[i])
			ok++
		} else {
			lat[i] = math.Inf(1)
		}
	}
	return e2e{
		p50:        percentile(lat, 50),
		p90:        percentile(lat, 90),
		throughput: float64(ok) / res.wall.Seconds(),
		cpuPerOp:   ms(res.cpu) / float64(len(calls)),
		ops:        len(calls),
		failed:     len(calls) - ok,
	}
}

// measuredSegments is how many consecutive segments a measured pass is
// cut into. A run reports the median of its segments' figures, so a burst
// of outside load during one segment does not move the run's result.
const measuredSegments = 15

// combine folds segment figures into the run's: the median of each figure,
// and the operations and failures summed.
func combine(parts []e2e) e2e {
	pick := func(f func(e2e) float64) float64 {
		xs := make([]float64, len(parts))
		for i, p := range parts {
			xs[i] = f(p)
		}
		return median(xs)
	}
	out := e2e{
		p50:        pick(func(e e2e) float64 { return e.p50 }),
		p90:        pick(func(e e2e) float64 { return e.p90 }),
		throughput: pick(func(e e2e) float64 { return e.throughput }),
		cpuPerOp:   pick(func(e e2e) float64 { return e.cpuPerOp }),
	}
	for _, p := range parts {
		out.ops += p.ops
		out.failed += p.failed
	}
	return out
}

// measure sends calls in measuredSegments closed-loop passes, each a whole
// number of `unit` calls, and scores every answer.
func measure(c *http.Client, url string, calls []call, unit int, o *oracle) (e2e, error) {
	var parts []e2e
	for _, r := range segments(len(calls)/unit, measuredSegments) {
		seg := calls[r[0]*unit : r[1]*unit]
		res, err := closedLoop(c, url, seg, nil)
		if err != nil {
			return e2e{}, err
		}
		parts = append(parts, score(seg, res, o))
	}
	return combine(parts), nil
}

// serveWarmupCalls is how many requests run before measuring.
const serveWarmupCalls = 2 * blockLen

// serveWarmup sends the first calls unmeasured; their answers are checked
// and pin what the measured repeats must answer.
func serveWarmup(c *http.Client, url string, calls []call, o *oracle) error {
	warm, err := closedLoop(c, url, calls[:serveWarmupCalls], nil)
	if err != nil {
		return err
	}
	for i, a := range warm.ans {
		o.check(calls[i], a)
	}
	return nil
}

// runServeDistinct drives the serve-distinct workload: warm-up, then the
// measured pass.
func runServeDistinct(st *stack, calls []call, o *oracle) (e2e, error) {
	c, url := newClient(), st.backendSvc[0].url
	if err := serveWarmup(c, url, calls, o); err != nil {
		return e2e{}, err
	}
	return measure(c, url, calls, blockLen, o)
}

// gatewayWarmup pins every hot body's answer from direct calls to both
// backends (a cache miss on each, and the reference for the later cache
// hits through the gateway), then replays the hot set through the
// gateway once.
func gatewayWarmup(st *stack, in *gatewayInputs, o *oracle) error {
	c := newClient()
	var buf bytes.Buffer
	for _, h := range in.hot {
		for _, b := range st.backendSvc {
			a, _, err := post(c, b.url, h.body, &buf)
			if err != nil {
				return err
			}
			o.check(h, a)
		}
	}
	res, err := closedLoop(c, st.gwSvc.url, in.hot, nil)
	if err != nil {
		return err
	}
	for i, h := range in.hot {
		o.check(h, res.ans[i])
	}
	return nil
}

// runGatewayReplay drives the gateway-replay workload.
func runGatewayReplay(st *stack, in *gatewayInputs, o *oracle) (e2e, error) {
	if err := gatewayWarmup(st, in, o); err != nil {
		return e2e{}, err
	}
	return measure(newClient(), st.gwSvc.url, in.calls, 1, o)
}

// hopMs is the gateway's own share of a cached answer: the median latency
// of the hot bodies sent through the gateway minus sent straight to the
// backend that answered them, over `rounds` sequential passes.
func hopMs(st *stack, in *gatewayInputs, rounds int) (float64, error) {
	c := newClient()
	var buf bytes.Buffer
	var via, direct []float64
	for r := 0; r < rounds; r++ {
		for _, h := range in.hot {
			t0 := time.Now()
			_, hdr, err := post(c, st.gwSvc.url, h.body, &buf)
			if err != nil {
				return 0, err
			}
			via = append(via, ms(time.Since(t0)))
			t0 = time.Now()
			if _, _, err := post(c, hdr.Get(gateway.BackendHeader), h.body, &buf); err != nil {
				return 0, err
			}
			direct = append(direct, ms(time.Since(t0)))
		}
	}
	return median(via) - median(direct), nil
}
