package main

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"repro/internal/workload"
	"repro/internal/ycsb"
)

// Op kinds in a generated stream.
const (
	opGet uint8 = iota
	opPut
)

// op is one generated request in compact form: the loops expand it into a
// wire.Request when they send it, so a stream costs 12 bytes per op.
type op struct {
	rec  uint32 // record index; the key is keys[rec]
	kind uint8
	col  uint8
	pay  [4]byte // one-column put payload (mycsb)
}

// inputs is everything a workload sends, generated from the seed before
// any store exists.
type inputs struct {
	keys    [][]byte // record keys, keys[i] = workload.RecordKey(i)
	streams [][]op   // one cyclic op stream per connection
	warm    [][]op   // cache warm-up streams, generated from another seed
}

// genInputs builds a workload's record keys and per-connection op streams.
// The same seed gives the same inputs.
func genInputs(w *workloadConfig, seed int64, conns, poolOps int) (*inputs, error) {
	in := &inputs{keys: make([][]byte, w.Records)}
	for i := range in.keys {
		in.keys[i] = workload.RecordKey(uint64(i))
	}
	// A stream is a whole number of closed-loop batches, so a frame never
	// wraps around the end of the pool.
	n := (poolOps + w.Batch - 1) / w.Batch * w.Batch
	for c := 0; c < conns; c++ {
		connSeed := seed*1000003 + int64(c)
		s := make([]op, n)
		switch w.Kind {
		case "mycsb":
			src, err := ycsb.New(w.Mix, uint64(w.Records), connSeed)
			if err != nil {
				return nil, err
			}
			for i := range s {
				o := src.Next()
				rec, err := recordOf(o.Key)
				if err != nil {
					return nil, err
				}
				s[i] = op{rec: rec, kind: opGet}
				if o.Kind == ycsb.Update {
					s[i].kind, s[i].col = opPut, uint8(o.Col%w.Columns)
					copy(s[i].pay[:], o.Data)
				}
			}
		case "cache":
			keys := workload.ZipfKeys(connSeed, uint64(w.Records))
			for i := range s {
				rec, err := recordOf(keys.Next())
				if err != nil {
					return nil, err
				}
				s[i] = op{rec: rec, kind: opGet}
			}
		}
		in.streams = append(in.streams, s)
	}
	return in, nil
}

// recordOf parses a MYCSB key ("user<n>") back to its record index.
func recordOf(key []byte) (uint32, error) {
	n, err := strconv.ParseUint(string(key[len("user"):]), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("generated key %q: %w", key, err)
	}
	return uint32(n), nil
}

// loadColumn writes record rec's initial MYCSB column c into dst, as
// setup loads it and as the read-back oracle expects it for a column no
// acknowledged put changed.
func loadColumn(dst []byte, rec uint32, c int) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], mix64(uint64(rec)<<8|uint64(c)))
	for i := range dst {
		dst[i] = w[i%8]
	}
}

// cachePayload fills dst with the cache-aside payload derived from record
// rec: 8-byte words that differ per record and per position, so a value
// returned for the wrong key, or torn between two keys, cannot match.
func cachePayload(dst []byte, rec uint32) []byte {
	base := mix64(uint64(rec) + 0x9e3779b97f4a7c15)
	for i := 0; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], base^uint64(i)*0xbf58476d1ce4e5b9)
	}
	return dst
}

// payloadMatches reports whether b is record rec's cache-aside payload of
// n bytes, without materializing it.
func payloadMatches(b []byte, rec uint32, n int) bool {
	if len(b) != n {
		return false
	}
	base := mix64(uint64(rec) + 0x9e3779b97f4a7c15)
	for i := 0; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != base^uint64(i)*0xbf58476d1ce4e5b9 {
			return false
		}
	}
	return true
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
