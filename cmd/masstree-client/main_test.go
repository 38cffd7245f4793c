package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/server"
)

// TestMain lets the test binary double as the client binary: with the
// reexec marker set it runs main() on its own arguments instead of the
// tests, so every command's stdout and exit code are observed exactly as a
// shell would see them.
func TestMain(m *testing.M) {
	if os.Getenv("MASSTREE_CLIENT_REEXEC") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startNode runs one in-process server with one worker over an in-memory
// store whose backend serves the key "upstream". One worker and no
// maintenance loop keep the version sequence deterministic.
func startNode(t *testing.T) string {
	t.Helper()
	m := backend.NewMock(time.Minute)
	m.Seed("upstream", backend.EncodeCols([][]byte{[]byte("loaded")}))
	store, err := kvstore.Open(kvstore.Config{MaintainEvery: -1, Backend: m})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(store, 1)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})
	return srv.Addr().String()
}

// runCLI re-execs this binary as masstree-client and returns its stdout
// and exit code.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MASSTREE_CLIENT_REEXEC=1")
	out, err := cmd.Output()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &ee):
		return string(out), ee.ExitCode()
	}
	t.Fatalf("masstree-client %v: %v", args, err)
	return "", 0
}

type cliStep struct {
	args []string
	out  string
	code int
}

func runSteps(t *testing.T, flags []string, steps []cliStep) {
	t.Helper()
	for _, st := range steps {
		out, code := runCLI(t, append(append([]string(nil), flags...), st.args...)...)
		if out != st.out || code != st.code {
			t.Errorf("%v: got exit %d, stdout\n%q\nwant exit %d, stdout\n%q", st.args, code, out, st.code, st.out)
		}
	}
}

// statsHeaders returns the grouped stats view's "[group]" lines in order.
func statsHeaders(out string) []string {
	var hs []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "[") {
			hs = append(hs, line)
		}
	}
	return hs
}

// checkStats pins the shape of `stats` and `stats -json`: the group order,
// the exact keys line, and JSON numbers for numeric values.
func checkStats(t *testing.T, flags []string, keys int64, wantHeaders string) {
	t.Helper()
	out, code := runCLI(t, append(append([]string(nil), flags...), "stats")...)
	if code != 0 {
		t.Fatalf("stats: exit %d", code)
	}
	if got := strings.Join(statsHeaders(out), " "); got != wantHeaders {
		t.Errorf("stats groups %q, want %q", got, wantHeaders)
	}
	if want := "\n  keys                   " + strconv.FormatInt(keys, 10) + "\n"; !strings.Contains(out, want) {
		t.Errorf("stats: no %q line in\n%s", want, out)
	}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 2 && obs.IsBucketKey(f[0]) {
			t.Errorf("stats: grouped view shows raw histogram bucket %q", f[0])
		}
	}

	out, code = runCLI(t, append(append([]string(nil), flags...), "-json", "stats")...)
	if code != 0 {
		t.Fatalf("stats -json: exit %d", code)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(out), &m); err != nil {
		t.Fatalf("stats -json: %v\n%s", err, out)
	}
	if got, ok := m["keys"].(float64); !ok || int64(got) != keys {
		t.Errorf("stats -json keys = %v, want %d", m["keys"], keys)
	}
	buckets := 0
	for k, v := range m {
		if _, ok := v.(float64); ok && obs.IsBucketKey(k) {
			buckets++
		}
	}
	if buckets == 0 {
		t.Errorf("stats -json: no raw lat_*_b<i> bucket numbers in\n%s", out)
	}
}

// TestCLISingleNode drives every command against one server and pins each
// one's stdout and exit code.
func TestCLISingleNode(t *testing.T) {
	flags := []string{"-addr", startNode(t)}
	runSteps(t, flags, []cliStep{
		{[]string{"get", "k1"}, "(not found)\n", 1},
		{[]string{"put", "k1", "v1"}, "ok (version 1)\n", 0},
		{[]string{"get", "k1"}, "version 1\ncol 0: \"v1\"\n", 0},
		{[]string{"putcol", "k2", "0", "a", "1", "b"}, "ok (version 2)\n", 0},
		{[]string{"get", "k2", "1"}, "version 2\ncol 0: \"b\"\n", 0},
		{[]string{"cas", "k1", "1", "v2"}, "ok (version 3)\n", 0},
		{[]string{"cas", "k1", "1", "v3"}, "conflict (current version 3)\n", 1},
		{[]string{"cas", "k4", "0", "new"}, "ok (version 4)\n", 0},
		{[]string{"putttl", "k3", "v3", "60"}, "ok (version 5, ttl 60s)\n", 0},
		{[]string{"touch", "k3", "120"}, "ok (version 6, ttl 120s)\n", 0},
		{[]string{"touch", "missing", "5"}, "(not found or expired)\n", 1},
		{[]string{"getorload", "upstream"}, "version 7\ncol 0: \"loaded\"\n", 0},
		{[]string{"getorload", "nowhere"}, "(not found)\n", 1},
		{[]string{"del", "k2"}, "removed: true\n", 0},
		{[]string{"del", "k2"}, "removed: false\n", 0},
		{[]string{"scan", "k", "10"}, "\"k1\": [\"v2\"]\n\"k3\": [\"v3\"]\n\"k4\": [\"new\"]\n\"upstream\": [\"loaded\"]\n", 0},
		{[]string{"scan", "k3", "1"}, "\"k3\": [\"v3\"]\n", 0},
		{[]string{"bogus"}, "", 2},
		{[]string{"put", "k1"}, "", 2},
		{nil, "", 2},
	})
	checkStats(t, flags, 4, "[tree] [server] [cache] [logging] [backend] [latency]")
}

// TestCLICluster drives the keyed commands, stats and the refused scan in
// -addrs mode against two servers, pinning the "node N" suffixes.
func TestCLICluster(t *testing.T) {
	addrs := []string{startNode(t), startNode(t)}
	ring := cluster.NewRing(addrs, 0)
	var keys [2]string
	for i := 0; keys[0] == "" || keys[1] == ""; i++ {
		k := "key" + strconv.Itoa(i)
		if n := ring.Owner([]byte(k)); keys[n] == "" {
			keys[n] = k
		}
	}
	a, b := keys[0], keys[1]
	// "upstream" loads on its owner as that node's next version: node 0
	// has drawn two versions by then (put, cas), node 1 four (put, putcol,
	// putttl, touch).
	loadVer := [2]string{"3", "5"}[ring.Owner([]byte("upstream"))]
	flags := []string{"-addrs", strings.Join(addrs, ",")}
	runSteps(t, flags, []cliStep{
		{[]string{"get", a}, "(not found)\n", 1},
		{[]string{"put", a, "va"}, "ok (version 1, node 0)\n", 0},
		{[]string{"put", b, "vb"}, "ok (version 1, node 1)\n", 0},
		{[]string{"get", a}, "version 1 (node 0)\ncol 0: \"va\"\n", 0},
		{[]string{"putcol", b, "0", "x", "1", "y"}, "ok (version 2, node 1)\n", 0},
		{[]string{"get", b, "0", "1"}, "version 2 (node 1)\ncol 0: \"x\"\ncol 1: \"y\"\n", 0},
		{[]string{"cas", a, "1", "va2"}, "ok (version 2)\n", 0},
		{[]string{"cas", a, "1", "va3"}, "conflict (current version 2)\n", 1},
		{[]string{"putttl", b, "vb3", "60"}, "ok (version 3, ttl 60s)\n", 0},
		{[]string{"touch", b, "90"}, "ok (version 4, ttl 90s)\n", 0},
		{[]string{"touch", "missing", "5"}, "(not found or expired)\n", 1},
		{[]string{"getorload", "upstream"}, "version " + loadVer + "\ncol 0: \"loaded\"\n", 0},
		{[]string{"del", a}, "removed: true\n", 0},
		{[]string{"del", a}, "removed: false\n", 0},
		{[]string{"scan", a, "10"}, "", 1},
		{[]string{"bogus"}, "", 2},
	})
	checkStats(t, flags, 2, "[tree] [server] [cache] [logging] [backend] [latency] [cluster]")
}
