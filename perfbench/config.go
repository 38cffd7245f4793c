package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
)

// workloads.json is the benchmark's single record of its inputs: the
// program reads every size, window, batch and rate from it, so the file
// cannot drift from what a run does.
//
//go:embed workloads.json
var workloadsJSON []byte

// config is the benchmark-wide part of workloads.json.
type config struct {
	// LatencyLimitUS is the p99 limit a ladder step must meet to count
	// toward max_rate_ops_s.
	LatencyLimitUS float64 `json:"latency_limit_us"`
	// Connections is the number of client.Conn connections (and load
	// goroutines) driving the server.
	Connections int `json:"connections"`
	// ConnWindow bounds each Conn's in-flight frames. It only has to
	// exceed the closed-loop window and the open loop's queue at the
	// highest ladder rate.
	ConnWindow int `json:"conn_window"`
	// SetupReps is how many times a --trace 0 run sets the store up;
	// setup_s and mem_bytes_per_key are the medians.
	SetupReps int `json:"setup_reps"`
	// ClosedShare and ReferenceShare split --seconds: the closed loop
	// takes ClosedShare, the reference (lowest) ladder rate ReferenceShare,
	// and the other ladder steps share the rest equally.
	ClosedShare    float64 `json:"closed_share"`
	ReferenceShare float64 `json:"reference_share"`
	// PoolOps is the length of each connection's pre-built op stream; the
	// loops cycle through it.
	PoolOps int `json:"pool_ops"`
	// LayerFrames is how many frames the traced run replays through the
	// layers one by one.
	LayerFrames int `json:"layer_frames"`
	// OverheadSeconds is the length of each half of the traced/untraced
	// closed-loop pair that measures tracing overhead.
	OverheadSeconds float64 `json:"overhead_seconds"`

	Workloads map[string]*workloadConfig `json:"workloads"`
}

// workloadConfig is one workload's inputs.
type workloadConfig struct {
	Why string `json:"why"`
	// Kind is "mycsb" (MYCSB records of Columns x ColumnBytes, gets of the
	// full value and one-column puts) or "cache" (cache-aside gets with
	// PutTTL fills of ValueBytes-byte payloads derived from the key).
	Kind        string `json:"kind"`
	Mix         string `json:"mix,omitempty"`
	Records     int    `json:"records"`
	Columns     int    `json:"columns,omitempty"`
	ColumnBytes int    `json:"column_bytes,omitempty"`
	ValueBytes  int    `json:"value_bytes,omitempty"`
	// MaxBytesShare sets kvstore.Config.MaxBytes to this share of the
	// working set's packed bytes (cache only).
	MaxBytesShare float64 `json:"max_bytes_share,omitempty"`
	TTLSeconds    uint32  `json:"ttl_seconds,omitempty"`
	// WarmOps is the number of cache-aside gets (with their fills) that
	// setup issues to fill the cache before timing.
	WarmOps int `json:"warm_ops,omitempty"`

	// Persist turns logging and checkpoints on, with Workers per-worker
	// logs, FlushIntervalMS group commit and SyncWrites fsync policy.
	Persist         bool `json:"persist"`
	Workers         int  `json:"workers"`
	FlushIntervalMS int  `json:"flush_interval_ms,omitempty"`
	SyncWrites      bool `json:"sync_writes"`
	// RestartTailOps is how many stream ops each connection sends after
	// the last checkpoint, for the restart to replay (Persist only).
	RestartTailOps int `json:"restart_tail_ops,omitempty"`

	// Window frames of Batch ops each are in flight per connection in
	// the closed loop.
	Window int `json:"window"`
	Batch  int `json:"batch"`
	// LadderOpsS is the open loop's schedule of total offered rates,
	// ascending; the first is the reference rate.
	LadderOpsS []float64 `json:"ladder_ops_s"`
}

func loadConfig() (*config, error) {
	var c config
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	if c.Connections < 1 || c.ConnWindow < 1 || c.SetupReps < 1 || c.PoolOps < 1 {
		return nil, fmt.Errorf("workloads.json: connections, conn_window, setup_reps and pool_ops must be positive")
	}
	for name, w := range c.Workloads {
		if err := w.validate(c.ConnWindow); err != nil {
			return nil, fmt.Errorf("workloads.json: %s: %w", name, err)
		}
	}
	return &c, nil
}

func (w *workloadConfig) validate(connWindow int) error {
	switch w.Kind {
	case "mycsb":
		if w.Mix != "A" && w.Mix != "B" {
			return fmt.Errorf("mix %q, want A or B", w.Mix)
		}
		if w.Columns < 1 || w.Columns > 255 || w.ColumnBytes < 1 {
			return fmt.Errorf("bad column shape")
		}
	case "cache":
		if w.ValueBytes < 8 || w.ValueBytes%8 != 0 || w.MaxBytesShare <= 0 || w.MaxBytesShare >= 1 {
			return fmt.Errorf("bad cache shape")
		}
	default:
		return fmt.Errorf("kind %q, want mycsb or cache", w.Kind)
	}
	if w.Records < 1 || w.Workers < 1 || w.Batch < 1 || w.Window < 1 || w.Window > connWindow {
		return fmt.Errorf("records, workers, batch and window must be positive, window at most conn_window")
	}
	if len(w.LadderOpsS) == 0 || !sort.Float64sAreSorted(w.LadderOpsS) {
		return fmt.Errorf("ladder must be non-empty and ascending")
	}
	for i := 1; i < len(w.LadderOpsS); i++ {
		if w.LadderOpsS[i] >= 1.1*w.LadderOpsS[i-1] {
			return fmt.Errorf("ladder rates %v and %v differ by a tenth or more", w.LadderOpsS[i-1], w.LadderOpsS[i])
		}
	}
	return nil
}
