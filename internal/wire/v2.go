package wire

// Protocol v2: hello negotiation and tagged frames. See the package comment
// for the layouts. The helpers here are split so each side of a connection
// can choose the scratch a frame decodes into *after* learning its tag —
// the async client reads a header, looks up the in-flight request with that
// tag, and reads the body straight into that request's reusable buffers.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
)

// Protocol versions negotiated by the hello exchange. Version1 is the
// original one-frame-in-flight protocol spoken by clients that send no
// hello; Version2 adds tagged frames and pipelining.
const (
	Version1 uint8 = 1
	Version2 uint8 = 2
)

// MaxVersion is the newest protocol version this build speaks; the server
// answers a hello proposing anything newer with MaxVersion.
const MaxVersion = Version2

// helloMagic precedes the version byte in a hello frame. Its first four
// bytes decode as an impossible v1 frame length (far above MaxMessage) and
// an impossible v2 header (a masked length above MaxMessage), so every
// legacy decoder rejects a hello cleanly instead of misreading it.
var helloMagic = [8]byte{0xff, 0xff, 0xff, 0xff, 'M', 'T', 'K', 'V'}

// HelloSize is the encoded size of a hello frame.
const HelloSize = 9

// v2FrameBit marks a length word as a v2 tagged-frame header. MaxMessage is
// far below 1<<31, so the bit never collides with an honest v1 length — a
// v1-only peer rejects a v2 frame as oversized instead of misparsing the tag
// as a batch count.
const v2FrameBit = uint32(1) << 31

// taggedHeaderSize is the v2 frame header: marked length plus tag.
const taggedHeaderSize = 8

var (
	errNotV2      = errors.New("wire: frame is not protocol v2")
	errBadHello   = errors.New("wire: bad hello magic")
	errBadVersion = errors.New("wire: bad hello version")
)

// AppendHello appends a hello frame proposing (or, server-side, accepting)
// the given protocol version.
func AppendHello(dst []byte, version uint8) []byte {
	dst = append(dst, helloMagic[:]...)
	return append(dst, version)
}

// WriteHello writes one hello frame. Callers flush their own writers.
func WriteHello(w io.Writer, version uint8) error {
	var buf [HelloSize]byte
	b := AppendHello(buf[:0], version)
	_, err := w.Write(b)
	return err
}

// IsHelloPrefix reports whether the first four bytes read from a connection
// begin a hello frame rather than a v1 or v2 length header.
func IsHelloPrefix(b []byte) bool {
	return len(b) >= 4 && b[0] == 0xff && b[1] == 0xff && b[2] == 0xff && b[3] == 0xff
}

// ReadHello consumes one hello frame and returns the version it carries.
func ReadHello(r io.Reader) (uint8, error) {
	var buf [HelloSize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	if !bytes.Equal(buf[:8], helloMagic[:]) {
		return 0, errBadHello
	}
	if buf[8] < Version1 {
		return 0, errBadVersion
	}
	return buf[8], nil
}

// AppendTaggedRequests appends a complete v2 tagged request frame to dst.
func AppendTaggedRequests(dst []byte, tag uint32, reqs []Request) ([]byte, error) {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, tag)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(reqs)))
	for i := range reqs {
		dst = appendRequest(dst, &reqs[i])
	}
	return finishTaggedFrame(dst, base)
}

// AppendTaggedResponses appends a complete v2 tagged response frame to dst.
func AppendTaggedResponses(dst []byte, tag uint32, resps []Response) ([]byte, error) {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, tag)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resps)))
	for i := range resps {
		dst = appendResponse(dst, &resps[i])
	}
	return finishTaggedFrame(dst, base)
}

// finishTaggedFrame patches the marked length header reserved at base; the
// length covers the tag plus the body.
func finishTaggedFrame(dst []byte, base int) ([]byte, error) {
	n := len(dst) - base - 4
	if n > MaxMessage {
		return dst[:base], errTooLarge
	}
	binary.LittleEndian.PutUint32(dst[base:], uint32(n)|v2FrameBit)
	return dst, nil
}

// ReadTaggedHeader reads one v2 frame header and returns the frame's tag
// and remaining body length. A header whose v2 bit is unset (a v1 frame on
// a negotiated-v2 connection) is a protocol violation and returns an error.
func ReadTaggedHeader(r io.Reader) (tag uint32, bodyLen int, err error) {
	var hdr [taggedHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n&v2FrameBit == 0 {
		return 0, 0, errNotV2
	}
	n &^= v2FrameBit
	if n > MaxMessage {
		return 0, 0, errTooLarge
	}
	if n < 4 {
		return 0, 0, errShort
	}
	return binary.LittleEndian.Uint32(hdr[4:]), int(n) - 4, nil
}

// ReadTaggedRequestBody reads a request frame's body (after its header was
// consumed by ReadTaggedHeader) into d's reusable frame buffer and returns
// it for ParseRequests or ParseRequestsLenient.
func ReadTaggedRequestBody(r io.Reader, bodyLen int, d *DecodeBuf) ([]byte, error) {
	return readBodyInto(r, bodyLen, &d.frame)
}

// ReadTaggedResponseBody reads and parses a response frame's body into d.
// The responses alias d and are valid until the next call with the same
// scratch.
func ReadTaggedResponseBody(r io.Reader, bodyLen int, d *RespDecodeBuf) ([]Response, error) {
	body, err := readBodyInto(r, bodyLen, &d.frame)
	if err != nil {
		return nil, err
	}
	return ParseResponses(body, d)
}

// ReadRequestBody reads one v1 framed body into d's frame buffer without
// parsing it, so the caller can choose strict (ParseRequests) or lenient
// (ParseRequestsLenient) decoding.
func ReadRequestBody(r io.Reader, d *DecodeBuf) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxMessage {
		return nil, errTooLarge
	}
	return readBodyInto(r, int(n), &d.frame)
}

// readBodyInto reads n bytes into *buf, growing it as needed; the buffer is
// retained across calls for reuse.
func readBodyInto(r io.Reader, n int, buf *[]byte) ([]byte, error) {
	if n < 0 || n > MaxMessage {
		return nil, errTooLarge
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	} else {
		*buf = (*buf)[:n]
	}
	if _, err := io.ReadFull(r, *buf); err != nil {
		return nil, err
	}
	return *buf, nil
}
