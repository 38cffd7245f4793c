package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/value"
)

// smallConfig is workloads.json shrunk to smoke scale: every workload, every
// phase, in about a second each.
func smallConfig(t *testing.T) *config {
	t.Helper()
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.SetupReps = 2
	cfg.PoolOps = 4096
	cfg.LayerFrames = 20
	cfg.OverheadSeconds = 0.1
	cfg.ClosedShare, cfg.ReferenceShare = 0.3, 0.3
	for _, w := range cfg.Workloads {
		w.Records = 3000
		w.WarmOps = 3000
		w.RestartTailOps = 3000
		w.LadderOpsS = []float64{5000, 5400}
	}
	return cfg
}

// benchSpec is the part of BENCHMARK.json the program must honour.
type benchSpec struct {
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

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmokeEveryWorkload runs every workload of BENCHMARK.json untraced and
// traced at smoke scale and checks the result line: all its outputs correct,
// and every metric BENCHMARK.json names present, finite and in its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	cfg := smallConfig(t)
	for _, wl := range spec.Workloads {
		w, ok := cfg.Workloads[wl.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %s is not in workloads.json", wl.Name)
		}
		for _, traced := range []bool{false, true} {
			b := &bench{cfg: cfg, name: wl.Name, w: w, seed: 3, seconds: 1, trace: traced, out: t.TempDir()}
			rep, err := b.run(&bytes.Buffer{})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, traced, err)
			}
			var out bytes.Buffer
			if err := rep.print(&out, traced); err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool  `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, traced, m.Name)
				case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", wl.Name, traced, m.Name, *got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", wl.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestWrongReadBackCounted stores a column the model never saw acknowledged
// and checks that the restart's read-back counts that record as a failed op,
// which error_rate then reports.
func TestWrongReadBackCounted(t *testing.T) {
	cfg := smallConfig(t)
	w := cfg.Workloads["mycsb_a_logged"]
	b := &bench{cfg: cfg, name: "mycsb_a_logged", w: w, seed: 5, seconds: 1, out: t.TempDir()}
	in, err := genInputs(w, b.seed, cfg.Connections, cfg.PoolOps)
	if err != nil {
		t.Fatal(err)
	}
	b.in = in
	for c := 0; c < cfg.Connections; c++ {
		b.checkers = append(b.checkers, &checker{w: w, keys: in.keys, model: newModel(w.Records, w.Columns)})
	}
	dir, err := runDir(b.out, b.name)
	if err != nil {
		t.Fatal(err)
	}
	sv, _, err := b.setup(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := sv.store.Session(0)
	sess.Put(in.keys[7], []value.ColPut{{Col: 3, Data: []byte("bad!")}})
	sess.Close()
	sv.stop()
	if err := sv.store.Close(); err != nil {
		t.Fatal(err)
	}
	sv, _, _, rb, err := b.restart(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	sv.stop()
	sv.store.Close()
	if rb.attempted != int64(w.Records) || rb.failed != 1 {
		t.Fatalf("read back %d records with %d failed, want %d with 1", rb.attempted, rb.failed, w.Records)
	}
	if errorRate(rb) <= 0 {
		t.Fatalf("error_rate %v, want > 0", errorRate(rb))
	}
}
