package main

import (
	"math"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

// tally counts one phase's outcome on one connection.
type tally struct {
	attempted int64 // ops sent
	failed    int64 // transport errors, error statuses and wrong values
	ok        int64 // ops answered correctly
	gets      int64 // gets issued
	hits      int64 // gets answered with a (correct) value
	puts      int64 // puts acknowledged (cache fills included)
	putBytes  int64 // key plus column bytes of acknowledged puts
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.ok += o.ok
	t.gets += o.gets
	t.hits += o.hits
	t.puts += o.puts
	t.putBytes += o.putBytes
}

func sumTally(ts []tally) tally {
	var s tally
	for _, t := range ts {
		s.add(t)
	}
	return s
}

// model is the read-back oracle for one connection: per (record, column),
// the version and payload of the newest put acknowledged on it.
type model struct {
	cols int
	ver  []uint64
	pay  [][4]byte
}

func newModel(records, cols int) *model {
	return &model{cols: cols, ver: make([]uint64, records*cols), pay: make([][4]byte, records*cols)}
}

func (m *model) note(rec uint32, col uint8, ver uint64, pay [4]byte) {
	i := int(rec)*m.cols + int(col)
	if ver > m.ver[i] {
		m.ver[i], m.pay[i] = ver, pay
	}
}

// mergeModels folds the connections' models into one: the highest
// acknowledged version of each column wins.
func mergeModels(ms []*model) *model {
	out := newModel(len(ms[0].ver)/ms[0].cols, ms[0].cols)
	for _, m := range ms {
		for i, v := range m.ver {
			if v > out.ver[i] {
				out.ver[i], out.pay[i] = v, m.pay[i]
			}
		}
	}
	return out
}

// checker validates one connection's responses against what the workload
// sent. It is used by one goroutine at a time.
type checker struct {
	w      *workloadConfig
	keys   [][]byte
	model  *model   // nil unless the workload reads back after a restart
	misses []uint32 // cache-aside gets that missed, waiting for their fill
}

// checkOp validates the response to generated op o and counts it.
func (c *checker) checkOp(o *op, r *wire.Response, t *tally) bool {
	good := false
	switch {
	case o.kind == opPut:
		if r.Status == wire.StatusOK && r.Version != 0 {
			good = true
			t.puts++
			t.putBytes += int64(len(c.keys[o.rec]) + c.w.ColumnBytes)
			if c.model != nil {
				c.model.note(o.rec, o.col, r.Version, o.pay)
			}
		}
	case c.w.Kind == "mycsb":
		t.gets++
		if r.Status == wire.StatusOK && len(r.Cols) == c.w.Columns {
			good = true
			for _, col := range r.Cols {
				if len(col) != c.w.ColumnBytes {
					good = false
				}
			}
			if good {
				t.hits++
			}
		}
	default: // cache-aside get
		t.gets++
		switch r.Status {
		case wire.StatusOK:
			if len(r.Cols) == 1 && payloadMatches(r.Cols[0], o.rec, c.w.ValueBytes) {
				good = true
				t.hits++
			}
		case wire.StatusNotFound:
			good = true
			c.misses = append(c.misses, o.rec)
		}
	}
	c.count(good, t)
	return good
}

// checkFill validates a cache-aside fill's response.
func (c *checker) checkFill(rec uint32, r *wire.Response, t *tally) bool {
	good := r.Status == wire.StatusOK && r.Version != 0
	if good {
		t.puts++
		t.putBytes += int64(len(c.keys[rec]) + c.w.ValueBytes)
	}
	c.count(good, t)
	return good
}

func (c *checker) count(good bool, t *tally) {
	if good {
		t.ok++
	} else {
		t.failed++
	}
}

// framer expands generated ops into wire requests. Request payloads
// point into the op stream or the framer's own buffer, both stable until
// the next build, and Conn.Go encodes a frame before it returns.
type framer struct {
	w     *workloadConfig
	keys  [][]byte
	reqs  []wire.Request
	puts  []wire.ColData
	fillB []byte
}

func newFramer(w *workloadConfig, keys [][]byte, maxReqs int) *framer {
	return &framer{w: w, keys: keys,
		reqs: make([]wire.Request, 0, maxReqs), puts: make([]wire.ColData, maxReqs),
		fillB: make([]byte, maxReqs*max(w.ValueBytes, 8))}
}

// build returns a frame of the cache fills for fills, then ops.
func (fb *framer) build(fills []uint32, ops []op) []wire.Request {
	reqs := fb.reqs[:0]
	for i, rec := range fills {
		d := cachePayload(fb.fillB[i*fb.w.ValueBytes:][:fb.w.ValueBytes], rec)
		fb.puts[len(reqs)] = wire.ColData{Col: 0, Data: d}
		reqs = append(reqs, wire.Request{Op: wire.OpPutTTL, Key: fb.keys[rec],
			Puts: fb.puts[len(reqs) : len(reqs)+1], TTL: fb.w.TTLSeconds})
	}
	for i := range ops {
		o := &ops[i]
		if o.kind == opPut {
			fb.puts[len(reqs)] = wire.ColData{Col: int(o.col), Data: o.pay[:]}
			reqs = append(reqs, wire.Request{Op: wire.OpPut, Key: fb.keys[o.rec], Puts: fb.puts[len(reqs) : len(reqs)+1]})
		} else {
			reqs = append(reqs, wire.Request{Op: wire.OpGet, Key: fb.keys[o.rec]})
		}
	}
	fb.reqs = reqs
	return reqs
}

// rateBucket is the interval the closed loop counts completions over; its
// throughput is the median of the per-interval rates, so a stall of the
// machine that hosts the run moves one interval, not the result.
const rateBucket = 250 * time.Millisecond

// closedResult is one closed-loop run over all connections.
type closedResult struct {
	tally   tally
	elapsed time.Duration // start to last completion
	rate    float64       // ops answered correctly per second (median interval)
	rtts    []int64       // traced: each frame's Go to Wait time
}

// closedLoop drives every connection with a window of batched frames: each
// frame's completion sends the connection's next frame. It runs for dur,
// or, when dur is 0, until each connection has sent maxOps stream ops.
// A cache-aside miss is filled by the next frame the connection sends.
// Traced runs record a client.frame span per frame from Go to Wait.
func (b *bench) closedLoop(sv *served, streams [][]op, dur time.Duration, maxOps int, tr *tracer) closedResult {
	n := len(sv.conns)
	tallies := make([]tally, n)
	rtts := make([][]int64, n)
	ends := make([]time.Time, n)
	nb := int(dur/rateBucket) + 2
	buckets := make([][]int64, n)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		buckets[c] = make([]int64, nb)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &closedConn{b: b, conn: sv.conns[c], ck: b.checkers[c], stream: streams[c],
				start: start, dur: dur, maxOps: maxOps, sb: tr.buf(), t: &tallies[c], buckets: buckets[c]}
			if tr != nil {
				cl.rtts = &rtts[c]
			}
			ends[c] = cl.run(int64(c) << 40)
		}(c)
	}
	wg.Wait()
	res := closedResult{tally: sumTally(tallies)}
	for c := 0; c < n; c++ {
		if e := ends[c].Sub(start); e > res.elapsed {
			res.elapsed = e
		}
		res.rtts = append(res.rtts, rtts[c]...)
	}
	res.rate = float64(res.tally.ok) / res.elapsed.Seconds()
	// Whole intervals only: the last one is cut short by the deadline.
	if whole := int(dur / rateBucket); whole >= 3 {
		rates := make([]float64, whole)
		for i := range rates {
			for c := 0; c < n; c++ {
				rates[i] += float64(buckets[c][i])
			}
			rates[i] /= rateBucket.Seconds()
		}
		sort.Float64s(rates)
		res.rate = rates[len(rates)/2]
	}
	return res
}

// closedConn is one connection's side of a closed loop.
type closedConn struct {
	b       *bench
	conn    *client.Conn
	ck      *checker
	stream  []op
	start   time.Time
	dur     time.Duration // 0: stop after maxOps stream ops instead
	maxOps  int
	sb      *spanBuf
	t       *tally
	buckets []int64  // ops answered correctly per rateBucket since start
	rtts    *[]int64 // nil unless traced
}

type closedSlot struct {
	p     *client.Pending
	pos   int      // stream offset of the frame's ops
	fills []uint32 // cache fills at the head of the frame
	sent  time.Time
	span  int
}

// run keeps the window full until the deadline (or op budget) and then
// drains it; it returns the time of the last completion.
func (cl *closedConn) run(frameID int64) time.Time {
	b, ck, t, stream, sb := cl.b, cl.ck, cl.t, cl.stream, cl.sb
	batch, window := b.w.Batch, b.w.Window
	fb := newFramer(b.w, b.in.keys, 2*batch)
	slots := make([]closedSlot, window)
	for i := range slots {
		slots[i].fills = make([]uint32, 0, batch)
	}
	pos, sentOps := 0, 0
	deadline := cl.start.Add(cl.dur)
	more := func() bool {
		if cl.dur > 0 {
			return time.Now().Before(deadline)
		}
		return sentOps < cl.maxOps
	}
	issue := func(s *closedSlot) {
		n := min(batch, len(ck.misses))
		s.fills = append(s.fills[:0], ck.misses[:n]...)
		ck.misses = append(ck.misses[:0], ck.misses[n:]...)
		s.pos = pos
		reqs := fb.build(s.fills, stream[pos:pos+batch])
		pos = (pos + batch) % len(stream)
		sentOps += batch
		t.attempted += int64(len(reqs))
		frameID++
		s.span = sb.open("client.frame", -1, frameID)
		s.sent = time.Now()
		s.p = cl.conn.Go(reqs)
	}
	inflight := 0
	for i := range slots {
		if !more() {
			break
		}
		issue(&slots[i])
		inflight++
	}
	var last time.Time
	for head := 0; inflight > 0; head = (head + 1) % window {
		s := &slots[head]
		resps, err := s.p.Wait()
		last = time.Now()
		sb.close(s.span)
		if cl.rtts != nil {
			*cl.rtts = append(*cl.rtts, int64(last.Sub(s.sent)))
		}
		ok0 := t.ok
		nf := len(s.fills)
		if err != nil || len(resps) != nf+batch {
			t.failed += int64(nf + batch)
		} else {
			for i, rec := range s.fills {
				ck.checkFill(rec, &resps[i], t)
			}
			ops := stream[s.pos : s.pos+batch]
			for i := range ops {
				ck.checkOp(&ops[i], &resps[nf+i], t)
			}
		}
		s.p.Release()
		if bi := int(last.Sub(cl.start) / rateBucket); bi < len(cl.buckets) {
			cl.buckets[bi] += t.ok - ok0
		}
		if more() {
			issue(s)
		} else {
			inflight--
		}
	}
	return last
}

// stepResult is one open-loop ladder step.
type stepResult struct {
	rate    float64
	lat     []int64 // per scheduled op in due order, due to completion; failed ops are +inf
	rtt     []int64 // per scheduled op, send to completion
	late    []int64 // per scheduled op, due to send
	tally   tally
	overrun time.Duration // last completion past the schedule's end
	p50     int64         // median latency
	p99     int64         // median over windows of the window p99
	p99All  int64         // p99 over the whole step
	lastP50 int64         // median latency of the last window
	windows int
	pass    bool
}

// windowOps is how many consecutive scheduled ops one p99 window holds:
// enough that 10 lie beyond its p99.
const windowOps = 1000

type openItem struct {
	p    *client.Pending
	i    int // schedule index; -1 for a fill
	due  time.Time
	sent time.Time
	op   *op
	fill uint32
}

// openStep offers rate ops/s of single-op frames for dur. One sender
// goroutine sends every op at its due time (or at once, if it is late),
// round-robin over the connections; each connection has a collector that
// waits for its responses in order. Each op is timed from when it was due.
// A cache-aside miss is filled by a frame the sender sends on the same
// connection before its next op, outside the schedule.
//
// The step's p99 is the median, over consecutive windows of windowOps
// scheduled ops, of each window's p99: the virtual machines this runs on
// stall for milliseconds a few times a second, and one stall would
// otherwise decide a whole step's p99. The whole-step p99 is kept too. The
// step passes if no op failed, its p99 is within the latency limit, and the
// median latency of its last window is too: a backlog that grows over the
// step pushes its last ops past the limit, so it never passes.
func (b *bench) openStep(sv *served, rate float64, dur time.Duration) stepResult {
	n := len(sv.conns)
	interval := time.Duration(float64(time.Second) / rate)
	total := int(dur / interval)
	res := stepResult{rate: rate, lat: make([]int64, total), rtt: make([]int64, total), late: make([]int64, total)}
	tallies := make([]tally, n)
	sent := make([]int64, n) // frames the sender issued per connection
	lastDone := make([]time.Time, n)
	items := make([]chan openItem, n)
	// fills carries cache-aside misses from a collector to the sender; a
	// full channel drops the fill, which only turns a later get into a miss.
	fills := make([]chan uint32, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		// Sized so the sender never blocks on a collector before the Conn's
		// own window blocks it.
		items[c] = make(chan openItem, b.cfg.ConnWindow)
		fills[c] = make(chan uint32, b.cfg.ConnWindow)
		wg.Add(1)
		go func(c int) { // collector
			defer wg.Done()
			ck, t := b.checkers[c], &tallies[c]
			for it := range items[c] {
				resps, err := it.p.Wait()
				done := time.Now()
				good := false
				switch {
				case err != nil || len(resps) != 1:
					t.failed++
				case it.i < 0:
					good = ck.checkFill(it.fill, &resps[0], t)
				default:
					good = ck.checkOp(it.op, &resps[0], t)
				}
				it.p.Release()
				for _, rec := range ck.misses {
					select {
					case fills[c] <- rec:
					default:
					}
				}
				ck.misses = ck.misses[:0]
				lastDone[c] = done
				if it.i < 0 {
					continue
				}
				res.lat[it.i] = int64(done.Sub(it.due))
				if !good {
					res.lat[it.i] = math.MaxInt64
				}
				res.rtt[it.i] = int64(done.Sub(it.sent))
				res.late[it.i] = int64(it.sent.Sub(it.due))
			}
		}(c)
	}
	fbs := make([]*framer, n)
	for c := range fbs {
		fbs[c] = newFramer(b.w, b.in.keys, 1)
	}
	one := make([]uint32, 1)
	start := time.Now().Add(time.Millisecond)
	for i := 0; i < total; i++ {
		c := i % n
		conn, stream, fb := sv.conns[c], b.in.streams[c], fbs[c]
		due := start.Add(interval * time.Duration(i))
		sleepUntil(due)
		for drained := false; !drained; {
			select {
			case rec := <-fills[c]:
				one[0] = rec
				sent[c]++
				items[c] <- openItem{p: conn.Go(fb.build(one, nil)), i: -1, sent: time.Now(), fill: rec}
			default:
				drained = true
			}
		}
		k := (i / n) % len(stream)
		sendAt := time.Now()
		sent[c]++
		items[c] <- openItem{p: conn.Go(fb.build(nil, stream[k:k+1])), i: i, due: due, sent: sendAt, op: &stream[k]}
	}
	for c := range items {
		close(items[c])
	}
	wg.Wait()
	schedEnd := start.Add(interval * time.Duration(total))
	for c := 0; c < n; c++ {
		tallies[c].attempted = sent[c]
		res.tally.add(tallies[c])
		if d := lastDone[c].Sub(schedEnd); d > res.overrun {
			res.overrun = d
		}
	}
	var winP99 []int64
	for w := 0; w+windowOps <= total; w += windowOps {
		win := append([]int64(nil), res.lat[w:w+windowOps]...)
		sortInts(win)
		winP99 = append(winP99, quantile(win, 0.99))
		res.lastP50 = quantile(win, 0.5)
	}
	sortInts(winP99)
	res.windows = len(winP99)
	res.p99 = quantile(winP99, 0.5)
	sortInts(res.lat)
	sortInts(res.rtt)
	sortInts(res.late)
	res.p50 = quantile(res.lat, 0.5)
	res.p99All = quantile(res.lat, 0.99)
	limit := time.Duration(b.cfg.LatencyLimitUS * float64(time.Microsecond))
	res.pass = res.tally.failed == 0 && res.windows > 0 &&
		time.Duration(res.p99) <= limit && time.Duration(res.lastP50) <= limit
	return res
}

// sleepUntil blocks until t. It sleeps in nanosleep(2), not time.Sleep:
// the Go runtime rounds an idle timer wait up to a millisecond, which would
// make the sender late by more than the latency limit. nanosleep wakes
// about 60µs late here, so the sleep aims that much early; the remainder is
// lateness, reported as loadgen.late_us_p99.
func sleepUntil(t time.Time) {
	const early = 50 * time.Microsecond
	d := time.Until(t)
	if d <= 0 {
		return
	}
	d = max(d-early, time.Microsecond)
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func sortInts(s []int64) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// quantile returns the q-quantile of sorted s (nearest rank).
func quantile(s []int64, q float64) int64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
