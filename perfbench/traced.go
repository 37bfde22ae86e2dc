package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/trace"
)

// The traced run drives every workload once, on the same seeded inputs as
// the untraced runs but a quarter of their length, and times the calls
// into each layer's public functions from here, around the services
// rather than inside them. The go.* metrics come from the named
// workload's untraced pass.

// tracedShare is the traced run's length relative to an untraced run.
const tracedShare = 4

// layerTimes holds one traced caller's per-call layer timings.
type layerTimes struct {
	decode, traceDecode, features, classify, identify, encode []float64 // µs
}

func (l *layerTimes) merge(o *layerTimes) {
	l.decode = append(l.decode, o.decode...)
	l.traceDecode = append(l.traceDecode, o.traceDecode...)
	l.features = append(l.features, o.features...)
	l.classify = append(l.classify, o.classify...)
	l.identify = append(l.identify, o.identify...)
	l.encode = append(l.encode, o.encode...)
}

// traceLayers runs serve's stages on one body the way serve does, timing
// each: request decode, .csitrace decode of both captures, feature
// extraction with the model's pinned subcarriers, classification, the
// whole identification on a warmed pipeline, and response encode.
func traceLayers(body []byte, id *core.Identifier, pipeline core.Config, pl *core.Pipeline, lt *layerTimes) error {
	t0 := time.Now()
	var req serve.IdentifyRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	t1 := time.Now()
	base, err := trace.NewReader(bytes.NewReader(req.Baseline))
	if err != nil {
		return err
	}
	baseline, err := base.ReadAll()
	if err != nil {
		return err
	}
	tgt, err := trace.NewReader(bytes.NewReader(req.Target))
	if err != nil {
		return err
	}
	target, err := tgt.ReadAll()
	if err != nil {
		return err
	}
	session := &csi.Session{Carrier: base.Header().Carrier, Baseline: *baseline, Target: *target}
	t2 := time.Now()
	feats, err := core.ExtractFeatures(session, pipeline)
	if err != nil {
		return err
	}
	t3 := time.Now()
	label := id.IdentifyFeatures(feats.Vector)
	t4 := time.Now()
	det, err := id.IdentifyDetailedP(pl, session)
	if err != nil {
		return err
	}
	if det.Material != label {
		return fmt.Errorf("IdentifyFeatures says %s, IdentifyDetailedP %s", label, det.Material)
	}
	t5 := time.Now()
	if _, err := json.Marshal(serve.IdentifyResponse{
		Material: det.Material, Omega: det.Omega, Confidence: det.Confidence, ModelVersion: "sha256:000000000000",
	}); err != nil {
		return err
	}
	t6 := time.Now()
	lt.decode = append(lt.decode, us(t1.Sub(t0)))
	lt.traceDecode = append(lt.traceDecode, us(t2.Sub(t1)))
	lt.features = append(lt.features, us(t3.Sub(t2)))
	lt.classify = append(lt.classify, us(t4.Sub(t3)))
	lt.identify = append(lt.identify, us(t5.Sub(t4)))
	lt.encode = append(lt.encode, us(t6.Sub(t5)))
	return nil
}

// tracedPart is one workload's share of the traced run.
type tracedPart struct {
	ops, failed int
	ok          bool
	why         string
	mem         memDelta
}

func (p *tracedPart) judge(ok bool, why string) { p.ok, p.why = ok, why }

// traceServe: the untraced pass (p50 and batch sizes), then the same
// calls again with every caller timing serve's layers on each body it
// was just answered for.
func traceServe(st *stack, seed int64, seconds int, split *setupSplit, m map[string]float64) (*tracedPart, error) {
	calls, err := serveDistinctCalls(seed, serveBlocks(seconds)/tracedShare)
	if err != nil {
		return nil, err
	}
	o := newOracle()
	c, url, s := newClient(), st.backendSvc[0].url, st.backends[0]
	if err := serveWarmup(c, url, calls, o); err != nil {
		return nil, err
	}
	before := s.Stats()
	mw := watchMem()
	untraced, err := closedLoop(c, url, calls, nil)
	mem := mw.finish()
	if err != nil {
		return nil, err
	}
	e := score(calls, untraced, o)
	batches, slots := batchSizeDelta(before.BatchSizes, s.Stats().BatchSizes)

	id := st.reg.Active().Identifier
	pls := make([]*core.Pipeline, clientConns)
	times := make([]layerTimes, clientConns)
	for w := range pls {
		pls[w] = core.NewPipeline()
		if err := traceLayers(calls[0].body, id, split.pipeline, pls[w], &layerTimes{}); err != nil {
			return nil, err
		}
	}
	res, err := closedLoop(c, url, calls, func(w, i int) error {
		if calls[i].kind == kindPoisoned {
			return nil
		}
		return traceLayers(calls[i].body, id, split.pipeline, pls[w], &times[w])
	})
	if err != nil {
		return nil, err
	}
	traced := score(calls, res, o)
	var lt layerTimes
	for w := range times {
		lt.merge(&times[w])
	}
	m["serve.p50_untraced_ms"] = e.p50
	m["serve.p50_traced_ms"] = traced.p50
	m["serve.decode_us"] = median(lt.decode)
	m["trace.decode_us"] = median(lt.traceDecode)
	m["core.features_us"] = median(lt.features)
	m["core.classify_us"] = median(lt.classify)
	m["core.identify_us"] = median(lt.identify)
	m["serve.encode_us"] = median(lt.encode)
	m["serve.residual_ms"] = traced.p50 -
		(median(lt.decode)+median(lt.traceDecode)+median(lt.identify)+median(lt.encode))/1000
	m["parallel.batch_size_mean"] = ratio(slots, batches)
	p := &tracedPart{ops: e.ops, failed: e.failed, mem: mem}
	p.judge(o.verdict())
	return p, nil
}

// batchSizeDelta turns two batch-size histograms (index i counts batches
// of i+1) into the batches and slots between them.
func batchSizeDelta(before, after []uint64) (batches, slots uint64) {
	for i := range after {
		n := after[i]
		if i < len(before) {
			n -= before[i]
		}
		batches += n
		slots += n * uint64(i+1)
	}
	return batches, slots
}

// traceGateway: the replay with the services' counters read around it,
// then the gateway hop on cached bodies.
func traceGateway(st *stack, seed int64, seconds int, m map[string]float64) (*tracedPart, error) {
	in, err := gatewayReplayCalls(seed, gatewayOps(seconds)/tracedShare)
	if err != nil {
		return nil, err
	}
	o := newOracle()
	if err := gatewayWarmup(st, in, o); err != nil {
		return nil, err
	}
	var hits0, miss0 uint64
	for _, b := range st.backends {
		s := b.Stats()
		hits0, miss0 = hits0+s.CacheHits, miss0+s.CacheMisses
	}
	g0 := st.gw.Stats()
	mw := watchMem()
	res, err := closedLoop(newClient(), st.gwSvc.url, in.calls, nil)
	mem := mw.finish()
	if err != nil {
		return nil, err
	}
	e := score(in.calls, res, o)
	var hits, miss uint64
	for _, b := range st.backends {
		s := b.Stats()
		hits, miss = hits+s.CacheHits, miss+s.CacheMisses
	}
	hits, miss = hits-hits0, miss-miss0
	g := st.gw.Stats()
	flushes, slots := batchSizeDelta(g0.BatchSizes, g.BatchSizes)
	m["serve.cache_hit_ratio"] = ratio(hits, hits+miss)
	m["gateway.flush_size_mean"] = ratio(slots, flushes)
	m["gateway.coalesced_ratio"] = ratio(g.Coalesced-g0.Coalesced, uint64(len(in.calls)))
	m["gateway.conn_reuse_ratio"] = ratio(g.UpstreamConnsReused-g0.UpstreamConnsReused,
		g.UpstreamConns-g0.UpstreamConns)
	m["gateway.retried"] = float64(g.Retried - g0.Retried + g.Hedged - g0.Hedged)
	if m["gateway.hop_ms"], err = hopMs(st, in, 8); err != nil {
		return nil, err
	}
	p := &tracedPart{ops: e.ops, failed: e.failed, mem: mem}
	p.judge(o.verdict())
	return p, nil
}

// traceHub: the fleet with every feed call timed, then the same script
// through stand-alone segmenters (the hub's default segmentation) and
// their sessions through batched classification at the hub's batch size.
func traceHub(st *stack, seed int64, seconds int, m map[string]float64) (*tracedPart, error) {
	rounds := hubRounds(seconds) / tracedShare
	script, err := newHubScript(seed, hubWarmupRounds+rounds)
	if err != nil {
		return nil, err
	}
	o := &hubOracle{}
	if _, err := runHubRounds(st, script, 0, hubWarmupRounds, o, nil); err != nil {
		return nil, err
	}
	tr := &hubTrace{}
	mw := watchMem()
	res, err := runHubRounds(st, script, hubWarmupRounds, hubWarmupRounds+rounds, o, tr)
	mem := mw.finish()
	if err != nil {
		return nil, err
	}
	m["monitorhub.ingest_us"] = us(tr.feed) / float64(tr.packets)
	m["monitorhub.drain_ms"] = median(tr.drain)
	m["monitorhub.sessions_per_round"] = float64(res.sessions()) / float64(rounds)
	m["monitorhub.shed"] = float64(res.end.Shed - res.start.Shed)
	m["monitorhub.low_confidence"] = float64(res.end.LowConfidence - res.start.LowConfidence)

	segUs, batchUs, err := traceSegmentAndBatch(st.reg.Active().Identifier, script, hubWarmupRounds+rounds)
	if err != nil {
		return nil, err
	}
	m["monitor.segment_us"] = segUs
	m["core.identify_batch_us"] = batchUs
	p := &tracedPart{ops: int(res.sessions()), failed: int(o.shed + o.failed), mem: mem}
	p.judge(o.verdict())
	return p, nil
}

// hubBatch is the hub's default cross-stream batch size.
const hubBatch = 8

// traceSegmentAndBatch feeds the script through one monitor.Segmenter per
// stream, timing each Feed, and classifies the emitted sessions in
// batches of hubBatch with per-stream baseline caches, as a hub worker
// does. It returns µs per packet and µs per session.
func traceSegmentAndBatch(id *core.Identifier, script *hubScript, rounds int) (float64, float64, error) {
	segs := make([]*monitor.Segmenter, hubStreams)
	caches := make([]core.BaselineCache, hubStreams)
	for s := range segs {
		var err error
		segs[s], err = monitor.NewSegmenterOpts(monitor.Config{BaselinePackets: hubBaseline}, 5.32e9,
			monitor.SegmenterOptions{Settle: 5, TargetLen: 20, BaselineLen: 20, Stride: hubStride})
		if err != nil {
			return 0, 0, err
		}
	}
	var (
		bs        core.BatchScratch
		pls       = make([]*core.Pipeline, hubBatch)
		batch     = make([]*csi.Session, 0, hubBatch)
		bcs       = make([]*core.BaselineCache, 0, hubBatch)
		segTime   time.Duration
		batchTime time.Duration
		packets   int
		sessions  int
	)
	for i := range pls {
		pls[i] = core.NewPipeline()
	}
	flush := func() error {
		t0 := time.Now()
		_, errs := id.IdentifyDetailedBatchCachedP(&bs, pls[:len(batch)], batch, bcs, 1)
		batchTime += time.Since(t0)
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("batched classify: %w", err)
			}
			batch[i].Release()
		}
		sessions += len(batch)
		batch, bcs = batch[:0], bcs[:0]
		return nil
	}
	for r := 0; r < rounds; r++ {
		for p := 0; p < hubStride; p++ {
			for s, sg := range segs {
				pkt := script.packet(s, r*hubStride+p)
				t0 := time.Now()
				session, _, err := sg.Feed(pkt)
				segTime += time.Since(t0)
				packets++
				if err != nil {
					return 0, 0, err
				}
				if session == nil {
					continue
				}
				batch, bcs = append(batch, session), append(bcs, &caches[s])
				if len(batch) == hubBatch {
					if err := flush(); err != nil {
						return 0, 0, err
					}
				}
			}
		}
	}
	if len(batch) > 0 {
		if err := flush(); err != nil {
			return 0, 0, err
		}
	}
	if sessions == 0 {
		return 0, 0, fmt.Errorf("segmenters emitted no session")
	}
	return us(segTime) / float64(packets), us(batchTime) / float64(sessions), nil
}

// runTraced is the --trace 1 run of workload w.
func runTraced(w string, seed int64, seconds int) (*result, error) {
	split := &setupSplit{}
	st, _, err := timedSetUp(w, split)
	if err != nil {
		return nil, err
	}
	defer st.close()
	m := map[string]float64{
		"core.train_features_s": split.features.Seconds(),
		"core.train_fit_s":      split.fit.Seconds(),
		"registry.open_ms":      ms(split.open),
	}
	var own *tracedPart
	correct := true
	for _, part := range workloads {
		pst := st
		if part != w {
			if pst, err = st.sibling(part); err != nil {
				return nil, err
			}
		}
		var p *tracedPart
		switch part {
		case serveDistinct:
			p, err = traceServe(pst, seed, seconds, split, m)
		case gatewayReplay:
			p, err = traceGateway(pst, seed, seconds, m)
		case hubFleet:
			p, err = traceHub(pst, seed, seconds, m)
		}
		if pst != st {
			pst.close()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", part, err)
		}
		if !p.ok {
			correct = false
			logf("%s: %s", part, p.why)
		}
		if part == w {
			own = p
		}
	}
	m["go.allocs_per_op"] = float64(own.mem.mallocs) / float64(own.ops)
	m["go.gc_per_kop"] = float64(own.mem.gcs) * 1000 / float64(own.ops)
	m["go.heap_peak_mb"] = own.mem.peakMiB
	return newResult(correct, own.ops, own.failed, perLayer, m)
}
