package server

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"testing"
	"time"

	"repro/internal/wire"
)

// v1Conn speaks protocol v1 in raw frames — no hello, one length-prefixed
// request frame answered by one response frame — for the tests that pin
// how the server still serves v1 clients.
type v1Conn struct {
	net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	enc []byte
}

func dialV1(t *testing.T, addr string) *v1Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &v1Conn{Conn: nc, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}
}

// send writes one request frame without waiting for its responses.
func (c *v1Conn) send(reqs []wire.Request) error {
	return wire.WriteRequestsInto(c.w, reqs, &c.enc)
}

// Do sends one frame and reads the response frame answering it.
func (c *v1Conn) Do(reqs []wire.Request) ([]wire.Response, error) {
	if err := c.send(reqs); err != nil {
		return nil, err
	}
	resps, err := wire.ReadResponses(c.r)
	if err == nil && len(resps) != len(reqs) {
		err = fmt.Errorf("%d responses for %d requests", len(resps), len(reqs))
	}
	return resps, err
}

// StatsRaw returns every stat the server reports on this connection.
func (c *v1Conn) StatsRaw() (map[string]string, error) {
	resps, err := c.Do([]wire.Request{{Op: wire.OpStats}})
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(resps[0].Pairs))
	for _, p := range resps[0].Pairs {
		out[string(p.Key)] = string(p.Cols[0])
	}
	return out, nil
}

// Stats returns the numeric stats.
func (c *v1Conn) Stats() (map[string]int64, error) {
	raw, err := c.StatsRaw()
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(raw))
	for k, v := range raw {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			out[k] = n
		}
	}
	return out, nil
}

func TestTCPPipelining(t *testing.T) {
	_, addr := startServer(t, "")
	c := dialV1(t, addr)
	// Three batches in flight before reading any responses.
	for b := 0; b < 3; b++ {
		reqs := make([]wire.Request, 10)
		for i := range reqs {
			reqs[i] = wire.Request{Op: wire.OpPut, Key: []byte(fmt.Sprintf("p%d-%d", b, i)),
				Puts: []wire.ColData{{Col: 0, Data: []byte("v")}}}
		}
		if err := c.send(reqs); err != nil {
			t.Fatal(err)
		}
	}
	for b := 0; b < 3; b++ {
		resps, err := wire.ReadResponses(c.r)
		if err != nil {
			t.Fatal(err)
		}
		if len(resps) != 10 {
			t.Fatalf("batch %d: %d responses", b, len(resps))
		}
		for _, r := range resps {
			if r.Status != wire.StatusOK {
				t.Fatal("pipelined put failed")
			}
		}
	}
	// All writes visible afterwards.
	resps, err := c.Do([]wire.Request{{Op: wire.OpGet, Key: []byte("p2-9")}})
	if err != nil || resps[0].Status != wire.StatusOK || string(resps[0].Cols[0]) != "v" {
		t.Fatalf("pipelined write lost: %+v %v", resps, err)
	}
}

// A connection that opens with a tagged v2 frame instead of a hello reads
// as v1 with an impossible length word: the server must drop it without
// answering, and keep serving v1 connections opened afterwards.
func TestV1RejectsTaggedFrameWithoutHello(t *testing.T) {
	_, addr := startServer(t, "")
	raw := dialV1(t, addr)
	tagged, err := wire.AppendTaggedRequests(nil, 7, []wire.Request{{Op: wire.OpGet, Key: []byte("k")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(tagged); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2048)
	if n, err := raw.Read(buf); err == nil {
		t.Fatalf("server answered a tagged frame without hello with %d bytes", n)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server kept a connection that sent a tagged frame without hello")
	}

	c := dialV1(t, addr)
	resps, err := c.Do([]wire.Request{
		{Op: wire.OpPut, Key: []byte("k"), Puts: []wire.ColData{{Col: 0, Data: []byte("v")}}},
		{Op: wire.OpGet, Key: []byte("k")},
	})
	if err != nil || resps[0].Status != wire.StatusOK || string(resps[1].Cols[0]) != "v" {
		t.Fatalf("v1 connection after a rejected tagged frame: %v %+v", err, resps)
	}
}
