package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

// rawConn speaks protocol v2 in raw bytes, for the tests that pin what the
// server does at the socket: the hello exchange and the order in which
// tagged frames are answered. client.Conn hides both.
type rawConn struct {
	net.Conn
	r   *bufio.Reader
	dec wire.RespDecodeBuf
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawConn{Conn: nc, r: bufio.NewReader(nc)}
}

// send writes one tagged request frame without waiting for its responses.
func (c *rawConn) send(t *testing.T, tag uint32, reqs []wire.Request) {
	t.Helper()
	frame, err := wire.AppendTaggedRequests(nil, tag, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// recv reads the next tagged response frame.
func (c *rawConn) recv(t *testing.T) (uint32, []wire.Response) {
	t.Helper()
	tag, n, err := wire.ReadTaggedHeader(c.r)
	if err != nil {
		t.Fatal(err)
	}
	resps, err := wire.ReadTaggedResponseBody(c.r, n, &c.dec)
	if err != nil {
		t.Fatal(err)
	}
	return tag, resps
}

// expectDropped asserts the server closes the connection without writing a
// single byte.
func (c *rawConn) expectDropped(t *testing.T) {
	t.Helper()
	got, err := io.ReadAll(c.r)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server kept the connection open")
	}
	if len(got) != 0 {
		t.Fatalf("server answered with %d bytes: % x", len(got), got)
	}
}

// Three tagged frames in flight before any response is read: the server
// answers all of them, in arrival order, each carrying its frame's tag.
func TestTCPPipelining(t *testing.T) {
	_, addr := startServer(t, "")
	c := dialRaw(t, addr)
	if _, err := c.Write(wire.AppendHello(nil, wire.Version2)); err != nil {
		t.Fatal(err)
	}
	if ver, err := wire.ReadHello(c.r); err != nil || ver != wire.Version2 {
		t.Fatalf("hello answer: %d %v", ver, err)
	}
	for b := 0; b < 3; b++ {
		reqs := make([]wire.Request, 10)
		for i := range reqs {
			reqs[i] = wire.Request{Op: wire.OpPut, Key: []byte(fmt.Sprintf("p%d-%d", b, i)),
				Puts: []wire.ColData{{Col: 0, Data: []byte("v")}}}
		}
		c.send(t, uint32(100+b), reqs)
	}
	for b := 0; b < 3; b++ {
		tag, resps := c.recv(t)
		if tag != uint32(100+b) {
			t.Fatalf("response %d carries tag %d, want %d", b, tag, 100+b)
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
	c.send(t, 200, []wire.Request{{Op: wire.OpGet, Key: []byte("p2-9")}})
	if tag, resps := c.recv(t); tag != 200 || resps[0].Status != wire.StatusOK || string(resps[0].Cols[0]) != "v" {
		t.Fatalf("pipelined write lost: tag %d %+v", tag, resps)
	}
}

// TestHelloNegotiation pins the server's side of the hello exchange. A
// stream that opens without a hello, or with a hello proposing a version
// older than Version2, is closed unanswered; a hello proposing a newer
// version is answered with Version2 and then served. A client connection
// open beside them is unaffected throughout.
func TestHelloNegotiation(t *testing.T) {
	_, addr := startServer(t, "")
	conn := dialConn(t, addr)
	checkConn := func(t *testing.T, key string) {
		t.Helper()
		if _, err := conn.PutSimple([]byte(key), []byte("v")); err != nil {
			t.Fatalf("concurrent client broken: %v", err)
		}
		if got, _, ok, err := conn.Get([]byte(key), nil); err != nil || !ok || string(got[0]) != "v" {
			t.Fatalf("concurrent client read %q %v %v", got, ok, err)
		}
	}
	checkConn(t, "before")

	t.Run("no hello", func(t *testing.T) {
		c := dialRaw(t, addr)
		c.send(t, 7, []wire.Request{{Op: wire.OpPut, Key: []byte("nohello"),
			Puts: []wire.ColData{{Col: 0, Data: []byte("v")}}}})
		c.expectDropped(t)
		checkConn(t, "after-no-hello")
		if _, _, ok, err := conn.Get([]byte("nohello"), nil); err != nil || ok {
			t.Fatalf("frame sent without a hello was executed: %v %v", ok, err)
		}
	})

	t.Run("version 1", func(t *testing.T) {
		c := dialRaw(t, addr)
		if _, err := c.Write(wire.AppendHello(nil, 1)); err != nil {
			t.Fatal(err)
		}
		c.expectDropped(t)
		checkConn(t, "after-version-1")
	})

	t.Run("newer version", func(t *testing.T) {
		c := dialRaw(t, addr)
		if _, err := c.Write(wire.AppendHello(nil, 7)); err != nil {
			t.Fatal(err)
		}
		answer := make([]byte, wire.HelloSize)
		if _, err := io.ReadFull(c.r, answer); err != nil {
			t.Fatal(err)
		}
		if want := wire.AppendHello(nil, wire.Version2); !bytes.Equal(answer, want) {
			t.Fatalf("hello answer % x, want % x", answer, want)
		}
		c.send(t, 9, []wire.Request{
			{Op: wire.OpPut, Key: []byte("newer"), Puts: []wire.ColData{{Col: 0, Data: []byte("v7")}}},
			{Op: wire.OpGet, Key: []byte("newer")},
		})
		tag, resps := c.recv(t)
		if tag != 9 || len(resps) != 2 || resps[0].Status != wire.StatusOK || string(resps[1].Cols[0]) != "v7" {
			t.Fatalf("served after a newer hello: tag %d %+v", tag, resps)
		}
		checkConn(t, "after-newer-version")
	})
}
