package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/value"
	"repro/internal/wire"
)

// served is one store behind a server.Server on loopback TCP, with the
// benchmark's client connections to it.
type served struct {
	store *kvstore.Store
	srv   *server.Server
	conns []*client.Conn
}

// serve starts a server for store and dials conns connections to it.
func serve(store *kvstore.Store, workers, conns, window int) (*served, error) {
	sv := &served{store: store, srv: server.New(store, workers)}
	if err := sv.srv.Listen("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	for i := 0; i < conns; i++ {
		c, err := client.DialConn(sv.srv.Addr().String(), client.WithWindow(window))
		if err != nil {
			sv.stop()
			return nil, fmt.Errorf("dial: %w", err)
		}
		sv.conns = append(sv.conns, c)
	}
	return sv, nil
}

// stop closes the connections and the server; the store stays open.
func (sv *served) stop() {
	for _, c := range sv.conns {
		c.Close()
	}
	sv.conns = nil
	sv.srv.Close()
}

// storeConfig is the kvstore configuration a workload runs with.
func storeConfig(w *workloadConfig, dir string) kvstore.Config {
	cfg := kvstore.Config{Workers: w.Workers}
	if w.Persist {
		cfg.Dir = dir
		cfg.FlushInterval = time.Duration(w.FlushIntervalMS) * time.Millisecond
		cfg.SyncWrites = w.SyncWrites
	}
	if w.Kind == "cache" {
		cfg.MaxBytes = int(w.MaxBytesShare * float64(w.Records) * float64(cacheValueSize(w)))
	}
	return cfg
}

// cacheValueSize is the packed size of one cache-aside value: the working
// set's packed bytes are Records times this.
func cacheValueSize(w *workloadConfig) int {
	v := value.BuildTTLAt(nil, []value.ColPut{{Col: 0, Data: make([]byte, w.ValueBytes)}}, 1, 0, math.MaxInt64)
	return v.Size()
}

// setupResult is one set-up's cost.
type setupResult struct {
	seconds     float64 // kvstore.Open until the timed phases can start
	memPerKey   float64 // HeapInuse growth across set-up per record
	ckptSeconds float64
	ckptBytes   int64
	keys        int
}

// setup opens a store in dir, serves it, and loads it over the benchmark's
// connections: MYCSB records, or for the cache the warm-up gets and fills.
// A persistent store then takes a checkpoint.
func (b *bench) setup(dir string, sb *spanBuf) (*served, setupResult, error) {
	var res setupResult
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	start := time.Now()
	t0 := sb.now()
	store, err := kvstore.Open(storeConfig(b.w, dir))
	sb.add("kvstore.open", t0, sb.now(), -1, 0)
	if err != nil {
		return nil, res, fmt.Errorf("open store: %w", err)
	}
	sv, err := serve(store, b.w.Workers, b.cfg.Connections, b.cfg.ConnWindow)
	if err != nil {
		store.Close()
		return nil, res, err
	}
	fail := func(err error) (*served, setupResult, error) {
		sv.stop()
		store.Close()
		return nil, res, err
	}
	switch b.w.Kind {
	case "mycsb":
		err = b.load(sv)
	case "cache":
		if sum := b.closedLoop(sv, b.in.warm, 0, b.w.WarmOps, nil).tally; sum.failed > 0 {
			err = fmt.Errorf("cache warm-up: %d of %d ops failed", sum.failed, sum.attempted)
		}
	}
	if err != nil {
		return fail(err)
	}
	if b.w.Persist {
		c0 := time.Now()
		t0 := sb.now()
		_, _, err := store.Checkpoint()
		sb.add("checkpoint.write", t0, sb.now(), -1, 0)
		res.ckptSeconds = time.Since(c0).Seconds()
		if err != nil {
			return fail(fmt.Errorf("checkpoint: %w", err))
		}
		res.ckptBytes = dirBytes(dir, "ckpt-", ".ckpt")
	}
	res.seconds = time.Since(start).Seconds()

	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.keys = store.Len()
	if res.keys == 0 {
		return fail(errors.New("set-up left the store empty"))
	}
	res.memPerKey = (float64(m1.HeapInuse) - float64(m0.HeapInuse)) / float64(res.keys)
	return sv, res, nil
}

// loadBatch is how many records one load frame carries.
const loadBatch = 256

// load puts every MYCSB record, all columns, each connection loading its
// own share of the records.
func (b *bench) load(sv *served) error {
	w := b.w
	n := len(sv.conns)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := range sv.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lo, hi := w.Records*c/n, w.Records*(c+1)/n
			reqs := make([]wire.Request, loadBatch)
			cols := make([]wire.ColData, loadBatch*w.Columns)
			data := make([]byte, loadBatch*w.Columns*w.ColumnBytes)
			frames := (hi - lo + loadBatch - 1) / loadBatch
			errs[c] = pipeline(sv.conns[c], b.w.Window, frames, func(f int) []wire.Request {
				first := lo + f*loadBatch
				k := min(loadBatch, hi-first)
				for i := 0; i < k; i++ {
					rec := uint32(first + i)
					pc := cols[i*w.Columns : (i+1)*w.Columns]
					for col := range pc {
						d := data[(i*w.Columns+col)*w.ColumnBytes:][:w.ColumnBytes]
						loadColumn(d, rec, col)
						pc[col] = wire.ColData{Col: col, Data: d}
					}
					reqs[i] = wire.Request{Op: wire.OpPut, Key: b.in.keys[rec], Puts: pc}
				}
				return reqs[:k]
			}, func(f int, resps []wire.Response) error {
				for i := range resps {
					if resps[i].Status != wire.StatusOK {
						return fmt.Errorf("load put of record %d: status %d", lo+f*loadBatch+i, resps[i].Status)
					}
				}
				return nil
			})
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// pipeline sends frames 0..frames-1 on c with up to window in flight and
// hands each frame's responses to check, in order. build's requests are
// encoded before the next build call, so it may reuse its buffers.
func pipeline(c *client.Conn, window, frames int, build func(f int) []wire.Request, check func(f int, resps []wire.Response) error) error {
	ring := make([]*client.Pending, window)
	var firstErr error
	for f := 0; f < frames+window; f++ {
		if f >= window {
			p := ring[f%window]
			resps, err := p.Wait()
			if err == nil {
				err = check(f-window, resps)
			}
			p.Release()
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if f < frames {
			ring[f%window] = c.Go(build(f))
		}
	}
	return firstErr
}

// dirBytes sums the sizes of the files in dir named prefix*suffix.
func dirBytes(dir, prefix, suffix string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), prefix) || !strings.HasSuffix(e.Name(), suffix) {
			continue
		}
		if fi, err := e.Info(); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// logBytes is the total size of the store's WAL files in dir.
func logBytes(dir string) int64 { return dirBytes(dir, "log-", ".wal") }

// stats reads the server's counters through the wire Stats op.
func stats(c *client.Conn) (map[string]int64, error) {
	m, err := c.Stats()
	if err != nil {
		return nil, fmt.Errorf("stats op: %w", err)
	}
	return m, nil
}

// execStems are the histograms that time the server's execution of
// requests; their sums add up to the server's busy time.
var execStems = []string{"get", "put", "get_batch", "put_batch", "cas", "getorload", "scan"}

// execNanos is the server's total request-execution time in a stats map.
func execNanos(m map[string]int64) int64 {
	var n int64
	for _, s := range execStems {
		n += m["lat_"+s+"_sum"]
	}
	return n
}

// diff returns after[k]-before[k].
func diff(before, after map[string]int64, k string) int64 { return after[k] - before[k] }

// runDir makes a fresh directory for this run's store data under out.
func runDir(out, workload string) (string, error) {
	base := filepath.Join(out, "runs")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, workload+"-")
}

// histSet is a snapshot of every store histogram, indexed by obs.HistID.
type histSet []obs.HistSnapshot

// snapHists reads the store's histograms through its obs registry.
func snapHists(reg *obs.Registry) histSet {
	s := reg.Snapshots()
	if len(s) < int(obs.NumHists) {
		s = make([]obs.HistSnapshot, obs.NumHists)
	}
	return s
}

// histDelta is the histogram of the observations made between snapshots
// before and after.
func histDelta(after, before obs.HistSnapshot) obs.HistSnapshot {
	d := after
	for i := range d.Buckets {
		d.Buckets[i] -= before.Buckets[i]
	}
	d.Sum -= before.Sum
	return d
}

// peakSampler tracks the highest accounted live bytes seen while it runs.
type peakSampler struct {
	store *kvstore.Store
	peak  atomic.Int64
	done  chan struct{}
	quit  chan struct{}
}

func startPeakSampler(store *kvstore.Store) *peakSampler {
	p := &peakSampler{store: store, done: make(chan struct{}), quit: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			if b := store.CacheStats().BytesLive; b > p.peak.Load() {
				p.peak.Store(b)
			}
			select {
			case <-tick.C:
			case <-p.quit:
				return
			}
		}
	}()
	return p
}

// stop ends sampling and returns the peak; 0 for a nil sampler.
func (p *peakSampler) stop() int64 {
	if p == nil {
		return 0
	}
	close(p.quit)
	<-p.done
	return p.peak.Load()
}
