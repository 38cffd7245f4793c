package wire

import (
	"encoding/binary"
	"fmt"
)

// The copying decoders below are the reference the aliasing decoder
// (ParseRequests, ParseResponses) is checked against: every decoded field
// owns its memory, so nothing they return depends on scratch or frame
// lifetime.

// parseRequestsCopy decodes a request-batch body with the copying decoder.
func parseRequestsCopy(body []byte) ([]Request, error) {
	n, body, err := readU32(body)
	if err != nil {
		return nil, err
	}
	if int(n) > len(body)/minRequestSize {
		return nil, errShort
	}
	reqs := make([]Request, n)
	for i := range reqs {
		body, err = parseRequest(body, &reqs[i])
		if err != nil {
			return nil, err
		}
	}
	if len(body) != 0 {
		return nil, errTrailingReq
	}
	return reqs, nil
}

// parseResponsesCopy decodes a response-batch body with the copying decoder.
func parseResponsesCopy(body []byte) ([]Response, error) {
	n, body, err := readU32(body)
	if err != nil {
		return nil, err
	}
	if int(n) > len(body)/minResponseSize {
		return nil, errShort
	}
	resps := make([]Response, n)
	for i := range resps {
		body, err = parseResponse(body, &resps[i])
		if err != nil {
			return nil, err
		}
	}
	if len(body) != 0 {
		return nil, errTrailingResp
	}
	return resps, nil
}

func parseRequest(b []byte, r *Request) ([]byte, error) {
	if len(b) < 3 {
		return nil, errShort
	}
	r.Op = OpCode(b[0])
	klen := int(binary.LittleEndian.Uint16(b[1:]))
	b = b[3:]
	if len(b) < klen {
		return nil, errShort
	}
	r.Key = append([]byte(nil), b[:klen]...)
	b = b[klen:]
	switch r.Op {
	case OpGet, OpGetRange, OpGetOrLoad:
		if len(b) < 1 {
			return nil, errShort
		}
		ncols := int(b[0])
		b = b[1:]
		if len(b) < 2*ncols {
			return nil, errShort
		}
		if ncols > 0 {
			r.Cols = make([]int, ncols)
			for i := range r.Cols {
				r.Cols[i] = int(binary.LittleEndian.Uint16(b))
				b = b[2:]
			}
		}
		if r.Op == OpGetRange {
			if len(b) < 2 {
				return nil, errShort
			}
			r.N = int(binary.LittleEndian.Uint16(b))
			b = b[2:]
		}
	case OpPut, OpCas, OpPutTTL:
		if r.Op == OpCas {
			if len(b) < 8 {
				return nil, errShort
			}
			r.ExpectVersion = binary.LittleEndian.Uint64(b)
			b = b[8:]
		}
		if r.Op == OpPutTTL {
			if len(b) < 4 {
				return nil, errShort
			}
			r.TTL = binary.LittleEndian.Uint32(b)
			b = b[4:]
		}
		if len(b) < 1 {
			return nil, errShort
		}
		nputs := int(b[0])
		b = b[1:]
		r.Puts = make([]ColData, nputs)
		for i := range r.Puts {
			if len(b) < 6 {
				return nil, errShort
			}
			r.Puts[i].Col = int(binary.LittleEndian.Uint16(b))
			dlen := int(binary.LittleEndian.Uint32(b[2:]))
			b = b[6:]
			if len(b) < dlen {
				return nil, errShort
			}
			r.Puts[i].Data = append([]byte(nil), b[:dlen]...)
			b = b[dlen:]
		}
	case OpTouch:
		if len(b) < 4 {
			return nil, errShort
		}
		r.TTL = binary.LittleEndian.Uint32(b)
		b = b[4:]
	case OpRemove, OpStats:
	default:
		return nil, fmt.Errorf("wire: unknown opcode %d", r.Op)
	}
	return b, nil
}

func parseResponse(b []byte, r *Response) ([]byte, error) {
	if len(b) < 13 {
		return nil, errShort
	}
	r.Status = b[0]
	r.Version = binary.LittleEndian.Uint64(b[1:])
	ncols := int(binary.LittleEndian.Uint16(b[9:]))
	b = b[11:]
	if ncols > 0 {
		r.Cols = make([][]byte, ncols)
		for i := range r.Cols {
			var err error
			r.Cols[i], b, err = readBytes32(b)
			if err != nil {
				return nil, err
			}
		}
	}
	if len(b) < 2 {
		return nil, errShort
	}
	npairs := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if npairs > 0 {
		r.Pairs = make([]Pair, npairs)
		for i := range r.Pairs {
			if len(b) < 2 {
				return nil, errShort
			}
			klen := int(binary.LittleEndian.Uint16(b))
			b = b[2:]
			if len(b) < klen+2 {
				return nil, errShort
			}
			r.Pairs[i].Key = append([]byte(nil), b[:klen]...)
			b = b[klen:]
			nc := int(binary.LittleEndian.Uint16(b))
			b = b[2:]
			r.Pairs[i].Cols = make([][]byte, nc)
			for j := 0; j < nc; j++ {
				var err error
				r.Pairs[i].Cols[j], b, err = readBytes32(b)
				if err != nil {
					return nil, err
				}
			}
		}
	}
	return b, nil
}

func readBytes32(b []byte) ([]byte, []byte, error) {
	if len(b) < 4 {
		return nil, nil, errShort
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if len(b) < n {
		return nil, nil, errShort
	}
	return append([]byte(nil), b[:n]...), b[n:], nil
}
