package server

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/kvstore"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// assertNumericStats checks the numeric-stats contract on a raw stats map:
// every key except flush_last_error, the one string-valued stat, is a
// base-10 integer. Conn.Stats and cluster.StatsAggregate silently skip
// values that are not integers, so a stat that broke the contract would
// vanish from them rather than fail.
func assertNumericStats(t *testing.T, raw map[string]string) {
	t.Helper()
	for k, v := range raw {
		if k == "flush_last_error" {
			continue
		}
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			t.Fatalf("stat %q=%q is not numeric", k, v)
		}
	}
}

// TestFlushLastErrorInStats pins the one string-valued stat: while a flush
// error is latched, the stats response carries its text as
// flush_last_error, every other stat stays numeric, and the numeric view
// (Conn.Stats) skips the string instead of failing on it.
func TestFlushLastErrorInStats(t *testing.T) {
	mem := vfs.NewMemFS()
	fault := vfs.NewFault(mem)
	store, err := kvstore.Open(kvstore.Config{
		Dir: "/data", Workers: 1, FS: fault, SyncWrites: true,
		FlushInterval: time.Hour, MaintainEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, 1)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})

	// Latch a flush failure: CrashAt resets the boundary counter, so arming
	// at 1 makes the very next filesystem op (the flush's write) fail.
	store.PutSimple(0, []byte("k"), []byte("v"))
	fault.CrashAt(1)
	if err := store.Flush(); err == nil {
		t.Fatal("flush unexpectedly succeeded")
	}
	if n, last := store.FlushStats(); n == 0 || last == nil {
		t.Fatalf("flush error not latched: n=%d last=%v", n, last)
	}

	c := dialConn(t, srv.Addr().String())
	raw, err := c.StatsRaw()
	if err != nil {
		t.Fatal(err)
	}
	if msg, present := raw["flush_last_error"]; !present || msg == "" {
		t.Fatalf("stats missing flush_last_error: %v", raw)
	}
	assertNumericStats(t, raw)
	if raw["flush_errors"] == "0" {
		t.Fatal("flush_errors did not report the failure")
	}
	stats, err := c.Stats() // numeric view skips the string
	if err != nil {
		t.Fatalf("numeric Stats failed on the string metric: %v", err)
	}
	if _, present := stats["flush_last_error"]; present {
		t.Fatal("numeric Stats kept the string-valued flush_last_error")
	}
}

// TestStatsNumericWithBreakerTripped audits the state-machine metrics
// against the numeric-stats contract while they are *non-zero*: with the
// backend breaker freshly tripped, breaker_state must report its state as
// an integer (1 = open, never a name like "open") and every other stat
// must stay ParseInt-clean, or Conn.Stats and cluster.StatsAggregate would
// drop it mid-outage, when an operator most needs it. The cluster client's
// node_state follows the identical convention (pinned by
// TestClusterStatsAllNumeric); this is the server half of that audit.
func TestStatsNumericWithBreakerTripped(t *testing.T) {
	m := backend.NewMock(0)
	w := backend.Wrap(m, backend.WrapConfig{BreakerFailures: 1, BreakerOpenFor: time.Hour})
	store, err := kvstore.Open(kvstore.Config{Workers: 1, MaintainEvery: -1, Backend: w})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, 1)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})

	// Trip the breaker through the wire path: one failing read-through load.
	m.SetError(errors.New("backend down"))
	c := dialConn(t, srv.Addr().String())
	if _, _, _, _, err := c.GetOrLoad([]byte("absent"), nil); err == nil {
		t.Fatal("getorload against a dead backend succeeded")
	}
	if st := store.LoaderStats(); st.Backend.BreakerState != backend.BreakerOpen {
		t.Fatalf("breaker not open: %+v", st.Backend)
	}

	raw, err := c.StatsRaw()
	if err != nil {
		t.Fatal(err)
	}
	state, present := raw["breaker_state"]
	if !present {
		t.Fatal("breaker_state missing from stats")
	}
	if n, err := strconv.ParseInt(state, 10, 64); err != nil || n != int64(backend.BreakerOpen) {
		t.Fatalf("breaker_state=%q, want the integer %d", state, backend.BreakerOpen)
	}
	assertNumericStats(t, raw)
}

// TestStatsHistogramKeysNumeric sweeps the histogram-derived stats keys:
// every lat_* key (counts, sums, quantiles, raw lat_*_b<i> buckets) must be
// a base-10 integer, and traffic must actually surface them. The bucket
// keys are what cluster.StatsAggregate sums across nodes to re-derive
// quantiles, so a non-numeric bucket would silently drop out of every
// aggregate.
func TestStatsHistogramKeysNumeric(t *testing.T) {
	store, err := kvstore.Open(kvstore.Config{Workers: 1, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, 1)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})

	c := dialConn(t, srv.Addr().String())
	for i := 0; i < 8; i++ {
		key := []byte("compat-key-" + strconv.Itoa(i))
		if _, err := c.Do([]wire.Request{{Op: wire.OpPut, Key: key, Puts: []wire.ColData{{Col: 0, Data: []byte("compat-value")}}}}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Do([]wire.Request{{Op: wire.OpGet, Key: key}}); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := c.StatsRaw()
	if err != nil {
		t.Fatal(err)
	}
	assertNumericStats(t, raw)
	lat, buckets := 0, 0
	for k := range raw {
		if strings.HasPrefix(k, "lat_") {
			lat++
			if i := strings.LastIndex(k, "_b"); i > 0 {
				if _, err := strconv.Atoi(k[i+2:]); err == nil {
					buckets++
				}
			}
		}
	}
	if lat == 0 || buckets == 0 {
		t.Fatalf("stats carry %d histogram keys, %d of them buckets; want both non-zero", lat, buckets)
	}
	for _, k := range []string{"lat_get_count", "lat_get_p50", "lat_get_p999", "lat_put_count"} {
		if raw[k] == "" || raw[k] == "0" {
			t.Fatalf("%s=%q after traffic, want non-zero", k, raw[k])
		}
	}
}
