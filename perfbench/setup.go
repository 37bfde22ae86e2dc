package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/gateway"
	"repro/internal/monitor"
	"repro/internal/monitorhub"
	"repro/internal/registry"
	"repro/internal/serve"
)

// service is one HTTP handler listening on loopback.
type service struct {
	url string
	srv *http.Server
}

func listen(h http.Handler) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return &service{url: "http://" + ln.Addr().String(), srv: srv}, nil
}

// stack is the system under test for one workload.
type stack struct {
	dir       string
	modelPath string
	reg       *registry.Registry

	backends   []*serve.Server
	backendSvc []*service
	gw         *gateway.Gateway
	gwSvc      *service

	hub   *monitorhub.Hub
	feeds []func(csi.Packet) error
}

// setupSplit is the traced set-up's per-layer breakdown, plus the
// pipeline configuration with the model's pinned subcarriers.
type setupSplit struct {
	features, fit, open time.Duration
	pipeline            core.Config
}

// trainConfig is the repository's default training configuration.
func trainConfig() core.IdentifierConfig {
	return core.IdentifierConfig{Pipeline: core.DefaultConfig()}
}

// train fits the identifier. Traced, it takes TrainIdentifier's steps one
// by one — subcarrier calibration and feature extraction, then the fit —
// so each is timed; the model is the same either way.
func train(sessions []*csi.Session, labels []string, split *setupSplit) (*core.Identifier, error) {
	cfg := trainConfig()
	if split == nil {
		return core.TrainIdentifier(sessions, labels, cfg)
	}
	t0 := time.Now()
	good, err := core.CalibrateSubcarriers(sessions, core.AllPairs(sessions[0].Baseline.NumAntennas())[0],
		cfg.Pipeline.GoodSubcarriers)
	if err != nil {
		return nil, err
	}
	cfg.Pipeline.ForcedSubcarriers = good
	split.pipeline = cfg.Pipeline
	ds := &classify.Dataset{}
	for i, s := range sessions {
		f, err := core.ExtractFeatures(s, cfg.Pipeline)
		if err != nil {
			return nil, err
		}
		ds.Append(f.Vector, labels[i])
	}
	t1 := time.Now()
	id, err := core.TrainIdentifierOnFeatures(ds, cfg)
	split.features, split.fit = t1.Sub(t0), time.Since(t1)
	return id, err
}

// setUp trains the model, saves it, opens it through the registry, builds
// the workload's services and waits until they are ready. The caller times
// it; simulating the training sessions is not part of it.
func setUp(w string, sessions []*csi.Session, labels []string, split *setupSplit) (*stack, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir, modelPath: filepath.Join(dir, "model.json")}
	fail := func(err error) (*stack, error) {
		st.close()
		return nil, err
	}
	id, err := train(sessions, labels, split)
	if err != nil {
		return fail(err)
	}
	f, err := os.Create(st.modelPath)
	if err != nil {
		return fail(err)
	}
	if err := id.Save(f); err != nil {
		_ = f.Close()
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	t0 := time.Now()
	if st.reg, err = registry.Open(st.modelPath); err != nil {
		return fail(err)
	}
	if split != nil {
		split.open = time.Since(t0)
	}
	if err := st.startServices(w); err != nil {
		return fail(err)
	}
	return st, nil
}

// startServices builds workload w's services over the stack's registry.
func (st *stack) startServices(w string) error {
	switch w {
	case serveDistinct:
		return st.startServe(serve.Config{}, 1)
	case gatewayReplay:
		return st.startGateway()
	case hubFleet:
		return st.startHub()
	}
	return fmt.Errorf("unknown workload %q", w)
}

// sibling builds workload w's services over the same model, for the
// traced run, which drives every workload in one process.
func (st *stack) sibling(w string) (*stack, error) {
	sib := &stack{modelPath: st.modelPath, reg: st.reg}
	if err := sib.startServices(w); err != nil {
		sib.close()
		return nil, err
	}
	return sib, nil
}

// startServe brings up n serve.New backends on loopback and waits for
// each /readyz.
func (st *stack) startServe(cfg serve.Config, n int) error {
	cfg.Registry = st.reg
	for i := 0; i < n; i++ {
		s, err := serve.New(cfg)
		if err != nil {
			return err
		}
		st.backends = append(st.backends, s)
		svc, err := listen(s.Handler())
		if err != nil {
			return err
		}
		st.backendSvc = append(st.backendSvc, svc)
		if err := waitReady(svc.url); err != nil {
			return err
		}
	}
	return nil
}

// startGateway brings up two verdict-cached backends behind a batching
// gateway (BatchMax 8 as cluster-smoke runs it, the default zero linger)
// and waits until the gateway routes to both.
func (st *stack) startGateway() error {
	if err := st.startServe(serve.Config{VerdictCache: verdictCache}, 2); err != nil {
		return err
	}
	digest, err := registry.SourceDigest(st.modelPath)
	if err != nil {
		return err
	}
	urls := make([]string, len(st.backendSvc))
	for i, b := range st.backendSvc {
		urls[i] = b.url
	}
	st.gw, err = gateway.New(gateway.Config{
		Backends:        urls,
		ExpectedVersion: digest,
		BatchMax:        8,
	})
	if err != nil {
		return err
	}
	if st.gwSvc, err = listen(st.gw.Handler()); err != nil {
		return err
	}
	return waitReady(st.gwSvc.url)
}

// startHub builds the monitor hub (BenchmarkHubStreams' 30-packet
// detector learning, defaults otherwise) and registers every stream's
// feed. The hub is ready for packets once its feeds exist.
func (st *stack) startHub() error {
	h, err := monitorhub.New(monitorhub.Config{
		Identifier: st.reg.Active().Identifier,
		Monitor:    monitor.Config{BaselinePackets: hubBaseline},
	})
	if err != nil {
		return err
	}
	st.hub = h
	for i := 0; i < hubStreams; i++ {
		feed, err := h.RegisterFeed(streamID(i))
		if err != nil {
			return err
		}
		st.feeds = append(st.feeds, feed)
	}
	return nil
}

// waitReady polls url/readyz until it answers 200.
func waitReady(url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			_, _ = bytes.NewBuffer(nil).ReadFrom(resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready", url)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops every service and removes the run's files.
func (st *stack) close() {
	if st.gwSvc != nil {
		_ = st.gwSvc.srv.Close()
	}
	if st.gw != nil {
		st.gw.Close()
	}
	for _, svc := range st.backendSvc {
		_ = svc.srv.Close()
	}
	for _, s := range st.backends {
		s.Shutdown()
	}
	if st.hub != nil {
		st.hub.Close()
	}
	if st.dir != "" {
		_ = os.RemoveAll(st.dir)
	}
}

// timedSetUp simulates the training set (untimed) and returns the stack
// with its set-up time.
func timedSetUp(w string, split *setupSplit) (*stack, time.Duration, error) {
	sessions, labels, err := trainingSet()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	st, err := setUp(w, sessions, labels, split)
	return st, time.Since(t0), err
}

// setupChildFlag makes the binary set up once, print the time and exit.
const setupChildFlag = "setup-child"

// setupSample runs one set-up in a fresh child process: in one process,
// repeated training slows as the heap grows, so each sample starts clean.
func setupSample(w string) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var out, errOut bytes.Buffer
	cmd := exec.Command(exe, "--"+setupChildFlag, "--workload", w)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("set-up child: %v: %s", err, strings.TrimSpace(errOut.String()))
	}
	var last string
	for sc := bufio.NewScanner(&out); sc.Scan(); {
		last = sc.Text()
	}
	secs, err := strconv.ParseFloat(strings.TrimPrefix(last, "setup_s="), 64)
	if err != nil || !strings.HasPrefix(last, "setup_s=") {
		return 0, errors.Join(fmt.Errorf("set-up child printed %q", last), err)
	}
	return time.Duration(secs * float64(time.Second)), nil
}

// runSetupChild is the child side of setupSample.
func runSetupChild(w string) error {
	st, d, err := timedSetUp(w, nil)
	if err != nil {
		return err
	}
	st.close()
	fmt.Printf("setup_s=%.9f\n", d.Seconds())
	return nil
}
