package server

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/wire"
)

func dialConn(t *testing.T, addr string, opts ...client.ConnOption) *client.Conn {
	t.Helper()
	c, err := client.DialConn(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestConnEndToEnd(t *testing.T) {
	_, addr := startServer(t, "")
	c := dialConn(t, addr)

	v1, err := c.PutSimple([]byte("hello"), []byte("world"))
	if err != nil || v1 == 0 {
		t.Fatalf("put: %d %v", v1, err)
	}
	got, ver, ok, err := c.Get([]byte("hello"), nil)
	if err != nil || !ok || string(got[0]) != "world" {
		t.Fatalf("get: %q %v %v", got, ok, err)
	}
	if ver != v1 {
		t.Fatalf("get version %d, put returned %d", ver, v1)
	}
	if _, _, ok, _ := c.Get([]byte("missing"), nil); ok {
		t.Fatal("phantom key")
	}

	// CAS through the async client: success, then conflict.
	v2, ok, err := c.CasPut([]byte("hello"), v1, []wire.ColData{{Col: 0, Data: []byte("world2")}})
	if err != nil || !ok || v2 <= v1 {
		t.Fatalf("cas: %d %v %v", v2, ok, err)
	}
	cur, ok, err := c.CasPut([]byte("hello"), v1, []wire.ColData{{Col: 0, Data: []byte("stale")}})
	if err != nil || ok || cur != v2 {
		t.Fatalf("stale cas: ver=%d ok=%v err=%v want ver=%d", cur, ok, err, v2)
	}
	if got, _, _, _ := c.Get([]byte("hello"), nil); string(got[0]) != "world2" {
		t.Fatalf("stale cas mutated value: %q", got)
	}

	// Range + stats + remove round out the wrapper surface.
	pairs, err := c.GetRange([]byte("h"), 10, nil)
	if err != nil || len(pairs) != 1 || string(pairs[0].Key) != "hello" {
		t.Fatalf("getrange: %v %v", pairs, err)
	}
	stats, err := c.Stats()
	if err != nil || stats["keys"] != 1 {
		t.Fatalf("stats: %v %v", stats, err)
	}
	existed, err := c.Remove([]byte("hello"))
	if err != nil || !existed {
		t.Fatalf("remove: %v %v", existed, err)
	}
}

// Many goroutines share one Conn, each pipelining its own keys; tag
// matching must route every response to its issuer.
func TestConnConcurrent(t *testing.T) {
	_, addr := startServer(t, "")
	c := dialConn(t, addr, client.WithWindow(8))

	const goroutines = 8
	const rounds = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := []byte(fmt.Sprintf("g%02d-key%03d", g, i))
				val := []byte(fmt.Sprintf("g%02d-val%03d", g, i))
				if _, err := c.PutSimple(key, val); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				got, _, ok, err := c.Get(key, nil)
				if err != nil || !ok || string(got[0]) != string(val) {
					t.Errorf("get %q: %q %v %v", key, got, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// A Go that outlives several others must still find its response: issue a
// window's worth of batches, wait for them out of order.
func TestConnOutOfOrderWait(t *testing.T) {
	_, addr := startServer(t, "")
	c := dialConn(t, addr, client.WithWindow(8))

	var pendings []*client.Pending
	for i := 0; i < 8; i++ {
		pendings = append(pendings, c.Go([]wire.Request{
			{Op: wire.OpPut, Key: []byte(fmt.Sprintf("k%d", i)),
				Puts: []wire.ColData{{Col: 0, Data: []byte(fmt.Sprintf("v%d", i))}}},
		}))
	}
	// Wait newest-first: responses arrived tag-ordered, Wait order must not
	// matter.
	for i := len(pendings) - 1; i >= 0; i-- {
		resps, err := pendings[i].Wait()
		if err != nil || len(resps) != 1 || resps[0].Status != wire.StatusOK {
			t.Fatalf("pending %d: %v %v", i, resps, err)
		}
		pendings[i].Release()
	}
	for i := 0; i < 8; i++ {
		got, _, ok, _ := c.Get([]byte(fmt.Sprintf("k%d", i)), nil)
		if !ok || string(got[0]) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d: %q %v", i, got, ok)
		}
	}
}

// A raw v1 connection and a v2 Conn with window 1 must see identical
// responses for the same operation sequence against identically seeded
// stores.
func TestInteropV1V2Identical(t *testing.T) {
	_, addr1 := startServer(t, "")
	_, addr2 := startServer(t, "")
	v1c := dialV1(t, addr1)
	v2c := dialConn(t, addr2, client.WithWindow(1))

	batches := [][]wire.Request{
		{
			{Op: wire.OpPut, Key: []byte("a"), Puts: []wire.ColData{{Col: 0, Data: []byte("1")}, {Col: 1, Data: []byte("x")}}},
			{Op: wire.OpPut, Key: []byte("b"), Puts: []wire.ColData{{Col: 0, Data: []byte("2")}}},
			{Op: wire.OpPut, Key: []byte("c"), Puts: []wire.ColData{{Col: 0, Data: []byte("3")}}},
		},
		{
			{Op: wire.OpGet, Key: []byte("a")},
			{Op: wire.OpGet, Key: []byte("b"), Cols: []int{0}},
			{Op: wire.OpGet, Key: []byte("nope")},
			{Op: wire.OpCas, Key: []byte("fresh"), ExpectVersion: 0, Puts: []wire.ColData{{Col: 0, Data: []byte("created")}}},
			{Op: wire.OpCas, Key: []byte("fresh"), ExpectVersion: 0, Puts: []wire.ColData{{Col: 0, Data: []byte("stale")}}},
			{Op: wire.OpRemove, Key: []byte("c")},
			{Op: wire.OpRemove, Key: []byte("never")},
			{Op: wire.OpGetRange, Key: nil, N: 10},
		},
	}
	for bi, reqs := range batches {
		r1, err := v1c.Do(reqs)
		if err != nil {
			t.Fatalf("batch %d via v1: %v", bi, err)
		}
		r2, err := v2c.Do(reqs)
		if err != nil {
			t.Fatalf("batch %d via v2: %v", bi, err)
		}
		// Response contents must match exactly — same statuses, versions
		// (both stores start from the same clock), columns, and pairs. The
		// v2 frame differs only by its tag header, which the client strips.
		if !reflect.DeepEqual(normalizeResps(r1), normalizeResps(r2)) {
			t.Fatalf("batch %d diverged:\nv1: %+v\nv2: %+v", bi, r1, r2)
		}
	}
}

// normalizeResps maps empty and nil slices together so DeepEqual compares
// contents, not alloc-path artifacts.
func normalizeResps(in []wire.Response) []wire.Response {
	out := make([]wire.Response, len(in))
	for i, r := range in {
		if len(r.Cols) == 0 {
			r.Cols = nil
		}
		if len(r.Pairs) == 0 {
			r.Pairs = nil
		}
		for j := range r.Cols {
			if len(r.Cols[j]) == 0 {
				r.Cols[j] = nil
			}
		}
		out[i] = r
	}
	return out
}

// A malformed request (unknown opcode) inside a decodable frame must fail
// alone with StatusError — the rest of the batch executes, the connection
// survives, and the errored_requests stat counts it. The decoder cannot
// re-sync past an unknown opcode's unknown payload, so everything from the
// first bad request onward is errored.
func TestMalformedRequestSurvivesV1(t *testing.T) {
	testMalformedRequestSurvives(t, func(t *testing.T, addr string) doer {
		return dialV1(t, addr)
	})
}

func TestMalformedRequestSurvivesV2(t *testing.T) {
	testMalformedRequestSurvives(t, func(t *testing.T, addr string) doer {
		return dialConn(t, addr)
	})
}

type doer interface {
	Do([]wire.Request) ([]wire.Response, error)
	Stats() (map[string]int64, error)
}

func testMalformedRequestSurvives(t *testing.T, dial func(*testing.T, string) doer) {
	_, addr := startServer(t, "")
	c := dial(t, addr)

	// Request 1 of 3 is an unknown opcode: the encoder emits op+key with no
	// payload, exactly what a newer client speaking an op this server does
	// not know would send.
	reqs := []wire.Request{
		{Op: wire.OpPut, Key: []byte("good"), Puts: []wire.ColData{{Col: 0, Data: []byte("v")}}},
		{Op: wire.OpCode(99), Key: []byte("bad")},
		{Op: wire.OpGet, Key: []byte("good")},
	}
	resps, err := c.Do(reqs)
	if err != nil {
		t.Fatalf("connection died on malformed request: %v", err)
	}
	if len(resps) != 3 {
		t.Fatalf("got %d responses, want 3", len(resps))
	}
	if resps[0].Status != wire.StatusOK {
		t.Fatalf("good put errored: status %d", resps[0].Status)
	}
	if resps[1].Status != wire.StatusError || resps[2].Status != wire.StatusError {
		t.Fatalf("undecodable tail statuses %d,%d want %d,%d",
			resps[1].Status, resps[2].Status, wire.StatusError, wire.StatusError)
	}

	// The connection survives: the next (well-formed) batch works.
	resps, err = c.Do([]wire.Request{{Op: wire.OpGet, Key: []byte("good")}})
	if err != nil || resps[0].Status != wire.StatusOK || string(resps[0].Cols[0]) != "v" {
		t.Fatalf("connection unusable after malformed request: %v %+v", err, resps)
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["errored_requests"] != 2 {
		t.Fatalf("errored_requests = %d, want 2", stats["errored_requests"])
	}
}

// CAS linearizability across the network: goroutines on separate
// connections CAS-increment one key; no update may be lost. Run under
// -race in CI.
func TestCasIncrementOverNetwork(t *testing.T) {
	_, addr := startServer(t, "")
	seed := dialConn(t, addr)
	if _, ok, err := seed.CasPut([]byte("ctr"), 0, []wire.ColData{{Col: 0, Data: []byte("0")}}); !ok || err != nil {
		t.Fatalf("seed: %v %v", ok, err)
	}

	const goroutines = 4
	const increments = 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.DialConn(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; i < increments; i++ {
				for {
					cols, ver, ok, err := c.Get([]byte("ctr"), nil)
					if err != nil || !ok {
						t.Errorf("get: %v %v", ok, err)
						return
					}
					var n int
					fmt.Sscanf(string(cols[0]), "%d", &n)
					_, ok, err = c.CasPut([]byte("ctr"), ver,
						[]wire.ColData{{Col: 0, Data: []byte(fmt.Sprint(n + 1))}})
					if err != nil {
						t.Errorf("cas: %v", err)
						return
					}
					if ok {
						break
					}
				}
			}
		}()
	}
	wg.Wait()

	cols, _, _, err := seed.Get([]byte("ctr"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprint(goroutines * increments); string(cols[0]) != want {
		t.Fatalf("lost updates: counter %q want %q", cols[0], want)
	}
}

// The async client's steady state is allocation-pinned: a Go/Wait/Release
// cycle reuses the connection's encode buffer, a recycled Pending, and its
// decode scratch. The measured budget covers the whole process (client,
// server pipeline, and the runtime's netpoll machinery — the latter is why
// the bound is not zero).
func TestConnSteadyStateAllocs(t *testing.T) {
	_, addr := startServer(t, "")
	c := dialConn(t, addr)

	const batch = 16
	reqs := make([]wire.Request, batch)
	for i := range reqs {
		key := []byte(fmt.Sprintf("alloc-key-%04d", i))
		if _, err := c.PutSimple(key, []byte("alloc-test-value")); err != nil {
			t.Fatal(err)
		}
		reqs[i] = wire.Request{Op: wire.OpGet, Key: key}
	}
	roundTrip := func() {
		p := c.Go(reqs)
		resps, err := p.Wait()
		if err != nil || len(resps) != batch || resps[0].Status != wire.StatusOK {
			t.Fatalf("round trip: %v (%d resps)", err, len(resps))
		}
		p.Release()
	}
	for i := 0; i < 50; i++ {
		roundTrip() // warm every buffer, map bucket, and goroutine stack
	}
	allocs := testing.AllocsPerRun(300, roundTrip)
	// ~2 allocs/op of poller noise is the historical floor for this
	// process-wide measurement (see BENCH_pipeline.json); 8 leaves slack
	// without masking a real per-op allocation regression in the client.
	if allocs > 8 {
		t.Fatalf("steady-state Go/Wait/Release allocates %.1f per round trip, want <= 8", allocs)
	}
}

// A batch that cannot be encoded (past wire.MaxMessage) fails alone: no
// bytes reach the wire, so the Conn — and other traffic on it — stays
// usable.
func TestConnOversizedBatchFailsAlone(t *testing.T) {
	_, addr := startServer(t, "")
	c := dialConn(t, addr)

	huge := make([]byte, 64<<20+1) // one ColPut past MaxMessage
	p := c.Go([]wire.Request{{Op: wire.OpPut, Key: []byte("big"),
		Puts: []wire.ColData{{Col: 0, Data: huge}}}})
	if _, err := p.Wait(); err == nil {
		t.Fatal("oversized batch succeeded")
	}
	p.Release()

	if _, err := c.PutSimple([]byte("small"), []byte("v")); err != nil {
		t.Fatalf("connection poisoned by oversized batch: %v", err)
	}
	if got, _, ok, err := c.Get([]byte("small"), nil); err != nil || !ok || string(got[0]) != "v" {
		t.Fatalf("get after oversized batch: %q %v %v", got, ok, err)
	}
}
