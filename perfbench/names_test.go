package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run spawns its fresh-process set-up samples.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--"+setupChildFlag {
		main()
		return
	}
	os.Exit(m.Run())
}

type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// units maps metric names to units as a printed result carries them.
func units(r *result) map[string]string {
	out := map[string]string{}
	for name, m := range r.Metrics {
		out[name] = m.Unit
	}
	return out
}

func specUnits(ms []struct{ Name, Unit string }) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func sameUnits(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	var names []string
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if got[n] != want[n] {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, n, got[n], want[n])
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			t.Errorf("%s: prints %s, which BENCHMARK.json does not define", what, n)
		}
	}
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i])
		}
	}
}

// TestPrintedMetricsMatchSpec runs a short untraced and traced hub-fleet
// run in-process and checks the metrics they would print against
// BENCHMARK.json.
func TestPrintedMetricsMatchSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	spec := loadSpec(t)
	r, err := runUntraced(hubFleet, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Errorf("untraced hub-fleet: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	sameUnits(t, "--trace 0", units(r), specUnits(spec.EndToEnd))

	r, err = runTraced(serveDistinct, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed*blockLen != r.Attempted {
		t.Errorf("traced serve-distinct: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	sameUnits(t, "--trace 1", units(r), specUnits(spec.PerLayer))
}
