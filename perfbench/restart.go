package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/wire"
)

// restart reopens the closed store's directory, timing kvstore.Open, serves
// it, and reads every record back against the model of acknowledged puts.
// It returns the served store, the recovery time, the recovery phases the
// store's flight recorder logged (seconds by phase code), and the read-back
// tally.
func (b *bench) restart(dir string, sb *spanBuf) (*served, float64, map[uint64]float64, tally, error) {
	var t tally
	start := time.Now()
	s0 := sb.now()
	store, err := kvstore.Open(storeConfig(b.w, dir))
	sb.add("kvstore.open", s0, sb.now(), -1, 0)
	recovery := time.Since(start).Seconds()
	if err != nil {
		return nil, 0, nil, t, fmt.Errorf("reopen store: %w", err)
	}
	phases := map[uint64]float64{}
	for _, ev := range store.Obs().Recorder().Events() {
		if ev.Kind == obs.EvRecoveryPhase {
			phases[ev.Arg1] += float64(ev.Arg2) / 1e9
		}
	}
	sv, err := serve(store, b.w.Workers, b.cfg.Connections, b.cfg.ConnWindow)
	if err != nil {
		store.Close()
		return nil, 0, nil, t, err
	}
	models := make([]*model, len(b.checkers))
	for i, ck := range b.checkers {
		models[i] = ck.model
	}
	t, err = b.readBack(sv, mergeModels(models))
	if err != nil {
		sv.stop()
		store.Close()
		return nil, 0, nil, t, err
	}
	return sv, recovery, phases, t, nil
}

// readBack gets every record over the first connection and compares each
// column with the model: the newest acknowledged put's payload, or the
// loaded column where no put was acknowledged. Each record is one op; a
// record with any wrong or missing column is a failed op.
func (b *bench) readBack(sv *served, m *model) (tally, error) {
	var t tally
	w := b.w
	reqs := make([]wire.Request, loadBatch)
	want := make([]byte, w.ColumnBytes)
	frames := (w.Records + loadBatch - 1) / loadBatch
	err := pipeline(sv.conns[0], w.Window, frames, func(f int) []wire.Request {
		k := min(loadBatch, w.Records-f*loadBatch)
		for i := 0; i < k; i++ {
			reqs[i] = wire.Request{Op: wire.OpGet, Key: b.in.keys[f*loadBatch+i]}
		}
		t.attempted += int64(k)
		return reqs[:k]
	}, func(f int, resps []wire.Response) error {
		for i := range resps {
			rec := uint32(f*loadBatch + i)
			r := &resps[i]
			good := r.Status == wire.StatusOK && len(r.Cols) == w.Columns
			for c := 0; good && c < w.Columns; c++ {
				j := int(rec)*w.Columns + c
				if m.ver[j] != 0 {
					copy(want, m.pay[j][:])
				} else {
					loadColumn(want, rec, c)
				}
				good = bytes.Equal(r.Cols[c], want)
			}
			if good {
				t.ok++
			} else {
				t.failed++
			}
		}
		return nil
	})
	return t, err
}
