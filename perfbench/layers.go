package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/value"
	"repro/internal/wire"
)

// layerResult is what the traced run's layer pass measured, per op.
type layerResult struct {
	ops, gets, puts     int64
	reqBytes, respBytes int64
	encode, decode      time.Duration
	getBatch, putBatch  time.Duration
	coreGet, corePut    time.Duration
}

// buildTwin fills a bare core.Tree with the workload's keys, for timing the
// tree's own Get and Put on the same keys the store holds. Every key maps to
// one shared value: the tree stores a pointer, so its cost does not depend
// on the value.
func buildTwin(keys [][]byte) (*core.Tree, *value.Value) {
	t := core.New()
	v := value.New([]byte("twin"))
	for _, k := range keys {
		t.Put(k, v)
	}
	return t, v
}

// layerPass replays frames of connection 0's closed-loop stream through the
// layers one call at a time, on the served store, with a span around each
// call: wire request encode and decode, the Session batch calls the server
// would make for the frame's get and put runs, the same keys on a twin
// core.Tree, and wire response encode and decode. As in the closed loop, a
// cache-aside miss is filled at the head of the next frame; fills go through
// PutBatchInto, which stores the payload without its TTL. Acknowledged puts
// enter the read-back model like any other put.
func (b *bench) layerPass(store *kvstore.Store, twin *core.Tree, twinV *value.Value, frames int, sb *spanBuf) (layerResult, error) {
	var res layerResult
	w := b.w
	sess := store.Session(0)
	defer sess.Close()
	ck := b.checkers[0]
	stream := b.in.streams[0]
	fb := newFramer(w, b.in.keys, 2*w.Batch)
	var enc, respEnc []byte
	var dec wire.DecodeBuf
	var rdec wire.RespDecodeBuf
	var resps []wire.Response
	var cols [][]byte
	var keys [][]byte
	var puts [][]value.ColPut
	var fills []uint32
	var scratch tally

	timed := func(name string, parent int, frame int64, total *time.Duration, f func()) {
		t0 := time.Now()
		s0 := sb.now()
		f()
		*total += time.Since(t0)
		sb.add(name, s0, sb.now(), parent, frame)
	}

	for f := 0; f < frames; f++ {
		pos := (f * w.Batch) % len(stream)
		ops := stream[pos : pos+w.Batch]
		frame := int64(1)<<50 | int64(f)
		root := sb.open("bench.frame", -1, frame)

		n := min(w.Batch, len(ck.misses))
		fills = append(fills[:0], ck.misses[:n]...)
		ck.misses = append(ck.misses[:0], ck.misses[n:]...)
		reqs := fb.build(fills, ops)
		var parsed []wire.Request
		var encErr, decErr error
		timed("wire.encode_req", root, frame, &res.encode, func() {
			enc, encErr = wire.AppendTaggedRequests(enc[:0], uint32(f), reqs)
		})
		timed("wire.decode_req", root, frame, &res.decode, func() {
			parsed, decErr = wire.ParseRequests(enc[8:], &dec)
		})
		if err := errors.Join(encErr, decErr); err != nil {
			return res, fmt.Errorf("layer pass, request frame %d: %w", f, err)
		}
		res.reqBytes += int64(len(enc))

		// The server's execution of the frame: runs of gets through
		// GetBatchInto, runs of puts through PutBatchInto.
		if cap(resps) < len(parsed) {
			resps = make([]wire.Response, len(parsed))
		}
		resps = resps[:len(parsed)]
		cols = cols[:0]
		for i := 0; i < len(parsed); {
			get := parsed[i].Op == wire.OpGet
			j := i + 1
			for j < len(parsed) && (parsed[j].Op == wire.OpGet) == get {
				j++
			}
			keys = keys[:0]
			for k := i; k < j; k++ {
				keys = append(keys, parsed[k].Key)
			}
			if get {
				var vals []*value.Value
				var found []bool
				timed("kvstore.get_batch", root, frame, &res.getBatch, func() {
					vals, found = sess.GetBatchInto(keys)
				})
				timed("core.get", root, frame, &res.coreGet, func() {
					for _, k := range keys {
						twin.Get(k)
					}
				})
				for k := range keys {
					if !found[k] {
						resps[i+k] = wire.Response{Status: wire.StatusNotFound}
						continue
					}
					c0 := len(cols)
					cols = kvstore.AppendCols(cols, vals[k], nil)
					resps[i+k] = wire.Response{Status: wire.StatusOK, Version: vals[k].Version(), Cols: cols[c0:len(cols):len(cols)]}
				}
				res.gets += int64(len(keys))
			} else {
				puts = puts[:0]
				for k := i; k < j; k++ {
					p := parsed[k].Puts[0]
					puts = append(puts, []value.ColPut{{Col: p.Col, Data: p.Data}})
				}
				var vers []uint64
				timed("kvstore.put_batch", root, frame, &res.putBatch, func() {
					vers = sess.PutBatchInto(keys, puts)
				})
				timed("core.put", root, frame, &res.corePut, func() {
					for _, k := range keys {
						twin.Put(k, twinV)
					}
				})
				for k := range keys {
					resps[i+k] = wire.Response{Status: wire.StatusOK, Version: vers[k]}
				}
				res.puts += int64(len(keys))
			}
			i = j
		}

		timed("wire.encode_resp", root, frame, &res.encode, func() {
			respEnc, encErr = wire.AppendTaggedResponses(respEnc[:0], uint32(f), resps)
		})
		timed("wire.decode_resp", root, frame, &res.decode, func() {
			_, decErr = wire.ParseResponses(respEnc[8:], &rdec)
		})
		if err := errors.Join(encErr, decErr); err != nil {
			return res, fmt.Errorf("layer pass, response frame %d: %w", f, err)
		}
		res.respBytes += int64(len(respEnc))
		res.ops += int64(len(resps))
		sb.close(root)

		// Check the frame like a served one.
		for i, rec := range fills {
			ck.checkFill(rec, &resps[i], &scratch)
		}
		for i := range ops {
			ck.checkOp(&ops[i], &resps[len(fills)+i], &scratch)
		}
		scratch.attempted += int64(len(resps))
	}
	b.layerTally.add(scratch)
	return res, nil
}
