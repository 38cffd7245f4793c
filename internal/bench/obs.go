package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/server"
)

// Obs measures what the observability subsystem costs the data plane: the
// same get/put round-trip workload runs twice over localhost TCP — once
// with the store opened NoObs (no registry, every instrument nil) and once
// with the default-on instrumentation (per-op latency histograms, WAL and
// maintenance timers, flight recorder armed) — and the ratio is the
// overhead. Two microbenchmark columns pin the per-record cost directly:
// nanoseconds per Hist.Record and heap allocations across a record loop
// (must be 0 — the record path is one atomic add into a preallocated
// shard, which is the whole design).
func Obs(sc Scale) *Table {
	sc = sc.withDefaults()
	t := &Table{
		ID:      "obs",
		Title:   "observability overhead: get/put round-trips with instrumentation off vs on",
		Headers: []string{"config", "ops/s", "vs_off", "record_ns", "record_allocs"},
	}
	offRate := obsRoundTripRate(sc, true)
	onRate := obsRoundTripRate(sc, false)
	recNS, recAllocs := obsRecordCost()
	t.Rows = append(t.Rows,
		[]string{"obs off (Config.NoObs)", fmt.Sprintf("%.0f", offRate), "1.00", "-", "-"},
		[]string{"obs on (default)", fmt.Sprintf("%.0f", onRate), ratio(onRate, offRate),
			fmt.Sprintf("%.1f", recNS), fmt.Sprintf("%d", recAllocs)},
	)
	t.Notes = append(t.Notes,
		"mix: 80% get / 20% put, one round trip per op over localhost TCP; vs_off ≥ 0.97 is the acceptance bar (<3% overhead)",
		"record_ns/record_allocs: direct Hist.Record microbenchmark — the per-observation cost every timed op pays, allocation-free by construction")
	return t
}

// obsRoundTripRate serves the mixed workload from an in-memory store behind
// a real server and returns ops/sec of single-op round trips.
func obsRoundTripRate(sc Scale, noObs bool) float64 {
	st, err := kvstore.Open(kvstore.Config{Workers: sc.Workers, MaintainEvery: -1, NoObs: noObs})
	if err != nil {
		panic(err)
	}
	defer st.Close()
	srv := server.New(st, sc.Workers)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		panic(err)
	}
	defer srv.Close()

	keys := sc.Keys
	if keys > 20_000 {
		keys = 20_000 // round trips, not batches: keep the seed phase cheap
	}
	clients := make([]*client.Conn, sc.Workers)
	for w := range clients {
		c, err := client.DialConn(srv.Addr().String())
		if err != nil {
			panic(err)
		}
		clients[w] = c
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	val := []byte("obs-bench-value-0123456789abcdef")
	for i := 0; i < keys; i++ {
		if _, err := clients[i%len(clients)].PutSimple(obsKey(i, keys), val); err != nil {
			panic(err)
		}
	}

	perWorker := sc.Ops / sc.Workers
	if perWorker < 1 {
		perWorker = 1
	}
	return measure(sc.Workers, perWorker, func(w, i int) {
		c := clients[w]
		k := obsKey((w*perWorker+i)*13, keys)
		if i%5 == 0 {
			if _, err := c.PutSimple(k, val); err != nil {
				panic(err)
			}
		} else if _, _, _, err := c.Get(k, nil); err != nil {
			panic(err)
		}
	})
}

func obsKey(i, keys int) []byte {
	return []byte(fmt.Sprintf("ob%07d", i%keys))
}

// obsRecordCost times a tight Hist.Record loop and counts its heap
// allocations via runtime.MemStats deltas (the bench package stays outside
// the testing framework, so no AllocsPerRun).
func obsRecordCost() (nsPerRecord float64, allocs uint64) {
	h := obs.NewHist("bench", 1)
	const n = 1 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		// Spread observations across buckets so the loop is not one
		// perfectly-predicted branch pattern.
		h.Record(0, time.Duration(1+(i&0xffff)))
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), after.Mallocs - before.Mallocs
}
