package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"github.com/aujoin/aujoin"
)

// This file is the data plane between the coordinator and its workers: the
// two group reads (a top-k query of the replica groups a worker hosts, and a
// probe stream of one group), carried as length-prefixed binary frames on
// connections the coordinator upgrades from GET /cluster/frames on a
// worker's own mux and pools per worker, one request in flight on each.
// Everything else the two speak stays JSON over HTTP (see peer.go).
//
// A frame is a big-endian uint32 payload length and the payload. A request
// is op, the group count and the groups (strictly ascending; a probe names
// one), k and min_sim, then the query text or the probe records, each a
// uvarint length and its raw bytes. An answer is one section a group, in
// the request's order: zero or more match frames and the group's end frame.
// A match carries the record ID, the probe position for a probe match and
// the similarity's eight IEEE-754 bytes, so it round-trips exactly; an end
// frame carries the group's status and, on failure, the ErrorBody JSON an
// HTTP answer would have carried.

const (
	framesPath    = "/cluster/frames"
	frameProtocol = "aujoin-frames"
	// maxFrameBytes caps a frame. A request's fixed fields and length
	// prefixes can outgrow the brackets and quotes of the JSON body it was
	// decoded from by a few bytes, so the cap is the body cap plus that
	// slack: a probe batch that fit the client's body fits a frame.
	maxFrameBytes = maxBodyBytes + 64
	// maxFrameGroups caps the groups one request names. A worker hosts R
	// groups, and the cover plan sends it no more; the cap bounds the answer
	// a request can ask for, an end frame a group, to about a frame's size.
	maxFrameGroups = 1 << 16
	// maxIdleFrames bounds the idle connections pooled per worker.
	maxIdleFrames = 64
	// drainTimeout bounds how long a query read whose context ended — a
	// hedge's loser, mostly — goes on reading its answer so that its
	// connection can go back to the pool. A top-k answer is short, and the
	// worker is already computing it; past the bound the connection closes.
	drainTimeout = 250 * time.Millisecond
)

// Request ops.
const (
	opQuery byte = 1
	opProbe byte = 2
)

// Answer frame tags.
const (
	tagEnd        byte = 0
	tagQueryMatch byte = 1
	tagProbeMatch byte = 2
)

var (
	errFrameTooLarge = fmt.Errorf("frame over the %d-byte cap", maxFrameBytes)
	errFrameShort    = errors.New("truncated frame")
)

// frameRequest is one read of one or more groups.
type frameRequest struct {
	op      byte
	groups  []int // strictly ascending; a probe's holds one group
	k       int
	minSim  float64  // 0: unset
	q       string   // opQuery
	records []string // opProbe
}

// frameMatch is one decoded answer frame: a match, or (end) the status and
// the ErrorBody bytes of a failure.
type frameMatch struct {
	tag    byte
	id     int
	pos    int // a probe match's position in the batch
	sim    float64
	status int
	body   []byte
}

// appendRequest appends req to b as one frame.
func appendRequest(b []byte, req *frameRequest) []byte {
	at := len(b)
	b = append(b, 0, 0, 0, 0, req.op)
	b = binary.AppendUvarint(b, uint64(len(req.groups)))
	for _, g := range req.groups {
		b = binary.AppendUvarint(b, uint64(g))
	}
	b = binary.AppendUvarint(b, uint64(req.k))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(req.minSim))
	if req.op == opQuery {
		b = appendBytes(b, req.q)
	} else {
		b = binary.AppendUvarint(b, uint64(len(req.records)))
		for _, r := range req.records {
			b = appendBytes(b, r)
		}
	}
	binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	return b
}

// requestSize is the payload size of req's frame.
func requestSize(req *frameRequest) int {
	n := 1 + uvarintLen(uint64(len(req.groups))) + uvarintLen(uint64(req.k)) + 8
	for _, g := range req.groups {
		n += uvarintLen(uint64(g))
	}
	if req.op == opQuery {
		return n + uvarintLen(uint64(len(req.q))) + len(req.q)
	}
	n += uvarintLen(uint64(len(req.records)))
	for _, r := range req.records {
		n += uvarintLen(uint64(len(r))) + len(r)
	}
	return n
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func appendBytes(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendMatch appends one match frame; pos is written for a probe match only.
func appendMatch(b []byte, tag byte, id, pos int, sim float64) []byte {
	at := len(b)
	b = append(b, 0, 0, 0, 0, tag)
	b = binary.AppendVarint(b, int64(id))
	if tag == tagProbeMatch {
		b = binary.AppendVarint(b, int64(pos))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sim))
	binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	return b
}

// appendEnd appends the end frame of an answer: the status and, on failure,
// the ErrorBody JSON.
func appendEnd(b []byte, status int, body []byte) []byte {
	at := len(b)
	b = append(b, 0, 0, 0, 0, tagEnd)
	b = binary.AppendUvarint(b, uint64(status))
	b = append(b, body...)
	binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	return b
}

// readFrame reads one frame's payload from r into buf (grown as needed). A
// frame over the cap is refused unread: its connection must be closed.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrameBytes {
		return buf, errFrameTooLarge
	}
	r.Discard(4)
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	return buf, nil
}

// frameReader decodes the fields of one payload; the first error sticks.
type frameReader struct {
	p   []byte
	err error
}

func (fr *frameReader) uvarint() uint64 {
	v, n := binary.Uvarint(fr.p)
	if n <= 0 {
		fr.fail()
		return 0
	}
	fr.p = fr.p[n:]
	return v
}

func (fr *frameReader) varint() int64 {
	v, n := binary.Varint(fr.p)
	if n <= 0 {
		fr.fail()
		return 0
	}
	fr.p = fr.p[n:]
	return v
}

// smallInt reads a uvarint that must fit an int32.
func (fr *frameReader) smallInt() int {
	v := fr.uvarint()
	if v > math.MaxInt32 {
		fr.fail()
		return 0
	}
	return int(v)
}

func (fr *frameReader) float() float64 {
	if len(fr.p) < 8 {
		fr.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(fr.p))
	fr.p = fr.p[8:]
	return v
}

func (fr *frameReader) bytes() []byte {
	n := fr.uvarint()
	if n > uint64(len(fr.p)) {
		fr.fail()
		return nil
	}
	v := fr.p[:n]
	fr.p = fr.p[n:]
	return v
}

func (fr *frameReader) fail() {
	if fr.err == nil {
		fr.err = errFrameShort
	}
	fr.p = nil
}

// done reports the first error, or trailing bytes after the last field.
func (fr *frameReader) done() error {
	if fr.err == nil && len(fr.p) > 0 {
		fr.err = errors.New("trailing bytes after the frame's last field")
	}
	return fr.err
}

// decodeRequest decodes a request payload into req, reusing its groups'
// backing array. The strings are copied out of p.
func decodeRequest(p []byte, req *frameRequest) error {
	if len(p) == 0 {
		return errFrameShort
	}
	op := p[0]
	if op != opQuery && op != opProbe {
		return fmt.Errorf("unknown frame op %d", op)
	}
	fr := frameReader{p: p[1:]}
	// Every group takes at least a byte: a count beyond the bytes left is a
	// lie, refused before it sizes anything.
	n := fr.uvarint()
	switch {
	case fr.err != nil:
	case n == 0:
		return errors.New("a request of no group")
	case n > maxFrameGroups:
		return fmt.Errorf("a request of %d groups, over the cap of %d", n, maxFrameGroups)
	case n > uint64(len(fr.p)):
		fr.fail()
	case op == opProbe && n != 1:
		return fmt.Errorf("a probe request of %d groups", n)
	}
	groups := req.groups[:0]
	for i := uint64(0); fr.err == nil && i < n; i++ {
		g := fr.smallInt()
		if len(groups) > 0 && g <= groups[len(groups)-1] {
			return errors.New("request groups not strictly ascending")
		}
		groups = append(groups, g)
	}
	*req = frameRequest{op: op, groups: groups}
	req.k = fr.smallInt()
	req.minSim = fr.float()
	if req.op == opQuery {
		req.q = string(fr.bytes())
	} else {
		// Every record takes at least its length byte, as every group does.
		n := fr.uvarint()
		if n > uint64(len(fr.p)) {
			fr.fail()
		}
		if fr.err == nil {
			req.records = make([]string, n)
			for i := range req.records {
				req.records[i] = string(fr.bytes())
			}
		}
	}
	return fr.done()
}

// decodeAnswer decodes an answer payload. An end frame's body aliases p.
func decodeAnswer(p []byte) (frameMatch, error) {
	if len(p) == 0 {
		return frameMatch{}, errFrameShort
	}
	m := frameMatch{tag: p[0]}
	fr := frameReader{p: p[1:]}
	switch m.tag {
	case tagQueryMatch, tagProbeMatch:
		m.id = int(fr.varint())
		if m.tag == tagProbeMatch {
			m.pos = int(fr.varint())
		}
		m.sim = fr.float()
	case tagEnd:
		status := fr.uvarint()
		if fr.err == nil && (status < 200 || status > 599) {
			return frameMatch{}, fmt.Errorf("end frame status %d", status)
		}
		m.status, m.body, fr.p = int(status), fr.p, nil
	default:
		return frameMatch{}, fmt.Errorf("unknown answer frame tag %d", m.tag)
	}
	if err := fr.done(); err != nil {
		return frameMatch{}, err
	}
	return m, nil
}

// --- the worker's side ---

// frames upgrades a GET /cluster/frames to the frame protocol and serves the
// coordinator's group reads on the connection until it closes.
func (wk *Worker) frames(w http.ResponseWriter, r *http.Request) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), frameProtocol) {
		writeErr(w, badRequest("frames: expected Upgrade: "+frameProtocol))
		return
	}
	srv, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	conn, rw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		writeErr(w, err)
		return
	}
	defer conn.Close()
	if !wk.trackFrames(conn, true) {
		return // the worker is shut down
	}
	defer wk.trackFrames(conn, false)
	fs := &frameServer{wk: wk, conn: conn, br: rw.Reader, w: conn}
	if srv != nil {
		fs.readTimeout, fs.idleTimeout = srv.ReadTimeout, srv.IdleTimeout
		if srv.WriteTimeout > 0 {
			fs.w = deadlineWriter{conn, srv.WriteTimeout}
		}
	}
	// The server's deadlines were armed for the upgrade request alone: an
	// idle pooled connection and a long probe stream must outlive them.
	conn.SetDeadline(time.Time{})
	fs.armIdle()
	if _, err := io.WriteString(fs.w, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+frameProtocol+"\r\n\r\n"); err != nil {
		return
	}
	fs.serve()
}

// trackFrames adds (or removes) a frame connection to the set Close closes.
// Adding fails once the worker is closed.
func (wk *Worker) trackFrames(conn net.Conn, add bool) bool {
	wk.fmu.Lock()
	defer wk.fmu.Unlock()
	if !add {
		delete(wk.fconns, conn)
		return true
	}
	if wk.fclosed {
		return false
	}
	if wk.fconns == nil {
		wk.fconns = make(map[net.Conn]struct{})
	}
	wk.fconns[conn] = struct{}{}
	return true
}

// Close closes the frame connections the worker serves and refuses new ones.
// An http.Server's Shutdown and an httptest.Server's Close do not track a
// hijacked connection, so whatever stops the worker's server calls Close.
func (wk *Worker) Close() {
	wk.fmu.Lock()
	wk.fclosed = true
	conns := wk.fconns
	wk.fconns = nil
	wk.fmu.Unlock()
	for c := range conns {
		c.Close()
	}
}

// deadlineWriter re-arms the write deadline before every write, so a stream
// dies on a stalled peer, not on its own length.
type deadlineWriter struct {
	net.Conn
	timeout time.Duration
}

func (w deadlineWriter) Write(p []byte) (int, error) {
	if err := w.SetWriteDeadline(time.Now().Add(w.timeout)); err != nil {
		return 0, err
	}
	return w.Conn.Write(p)
}

// frameServer serves one upgraded connection.
type frameServer struct {
	wk   *Worker
	conn net.Conn
	br   *bufio.Reader
	w    io.Writer // conn, or a deadlineWriter over it
	// readTimeout bounds the read of a request once its first byte arrived;
	// idleTimeout the wait for the next request. 0: no deadline.
	readTimeout, idleTimeout time.Duration
	req                      frameRequest // the request being served
	out                      []byte       // the answer frames not yet written
}

// serve reads requests and answers them in order until the connection closes
// or a frame is malformed. A reader goroutine reads each request and then
// waits on the connection while it is served, so a connection the coordinator
// closes cancels the request in flight.
func (fs *frameServer) serve() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reqs := make(chan []byte)
	go func() {
		defer close(reqs)
		defer cancel()
		// Two buffers, because the next request may be read while the last is
		// still being served.
		var bufs [2][]byte
		for i := 0; ; i ^= 1 {
			if _, err := fs.br.Peek(1); err != nil {
				return
			}
			fs.setReadDeadline(fs.readTimeout)
			p, err := readFrame(fs.br, bufs[i])
			if err != nil {
				return
			}
			fs.setReadDeadline(0)
			if cap(p) <= 64<<10 {
				bufs[i] = p // a large probe batch's buffer is not kept
			}
			select {
			case reqs <- p:
			case <-ctx.Done():
				return
			}
		}
	}()
	for p := range reqs {
		if fs.answer(ctx, p) != nil {
			break
		}
	}
	fs.conn.Close()
	cancel()
	for range reqs { // wait for the reader
	}
}

func (fs *frameServer) setReadDeadline(d time.Duration) {
	if fs.readTimeout > 0 || fs.idleTimeout > 0 {
		var at time.Time
		if d > 0 {
			at = time.Now().Add(d)
		}
		fs.conn.SetReadDeadline(at)
	}
}

// armIdle starts the wait for the next request.
func (fs *frameServer) armIdle() { fs.setReadDeadline(fs.idleTimeout) }

// answer serves one request payload: for each of its groups in turn, the
// group's match frames and its end frame. A query's answer goes out in one
// write; a probe's matches go out as they are confirmed. A failure of the
// whole request — the hook's, the query's options, readiness — is every
// group's end frame. An error is a malformed request or a dead connection,
// and closes it.
func (fs *frameServer) answer(ctx context.Context, p []byte) error {
	req := &fs.req
	if err := decodeRequest(p, req); err != nil {
		return err
	}
	fs.out = fs.out[:0]
	var err error
	if hook := fs.wk.frameHook; hook != nil {
		err = hook(ctx, req)
	}
	if err == nil {
		err = fs.wk.admit(req)
	}
	for _, g := range req.groups {
		gerr := err
		if gerr == nil {
			gerr = fs.serveGroup(ctx, req, g)
		}
		if ctx.Err() != nil {
			return ctx.Err() // the coordinator is gone
		}
		if err := fs.end(gerr); err != nil {
			return err
		}
	}
	fs.armIdle() // before the end frames go out: the next request may follow at once
	return fs.flush()
}

// admit checks a request once, before any of its groups is served, as the
// HTTP surface's /query and /probe check theirs: a query's text and options,
// then the worker's readiness.
func (wk *Worker) admit(req *frameRequest) error {
	if req.op == opQuery {
		if req.q == "" {
			return badRequest("missing q parameter")
		}
		if err := checkQueryOptions(aujoin.QueryOptions{K: req.k, MinSimilarity: req.minSim}); err != nil {
			return badRequest(err.Error())
		}
	}
	if !wk.ready.Load() {
		return notReady("worker is not configured yet")
	}
	return nil
}

// serveGroup runs the request on hosted group g through the same target
// calls as the HTTP surface, so it fails with the same errors.
func (fs *frameServer) serveGroup(ctx context.Context, req *frameRequest, g int) error {
	wg, err := fs.wk.group(g)
	if err != nil {
		return err
	}
	t := wg.be.Load()
	if req.op == opProbe {
		// Each match goes out as it is confirmed; a failure after the first
		// is still reported in the end frame, which the coordinator reads as
		// a failed stream.
		return t.probe(ctx, req.records, func(m ProbeMatch) error {
			fs.out = appendMatch(fs.out, tagProbeMatch, m.S, m.T, m.Similarity)
			return fs.flush()
		})
	}
	matches, err := t.topK(ctx, req.q, aujoin.QueryOptions{K: req.k, MinSimilarity: req.minSim})
	if err != nil {
		return err
	}
	for _, m := range matches {
		fs.out = appendMatch(fs.out, tagQueryMatch, m.Record, 0, m.Similarity)
	}
	return nil
}

// end appends a group's end frame: 200, or err's status and ErrorBody.
func (fs *frameServer) end(err error) error {
	status, body := http.StatusOK, []byte(nil)
	if err != nil {
		var b any
		status, b = failure(err)
		var merr error
		if body, merr = json.Marshal(b); merr != nil {
			return merr
		}
	}
	fs.out = appendEnd(fs.out, status, body)
	return nil
}

func (fs *frameServer) flush() error {
	_, err := fs.w.Write(fs.out)
	fs.out = fs.out[:0]
	return err
}

// --- the coordinator's side ---

// framePool is the coordinator's idle frame connections to one worker.
type framePool struct {
	mu     sync.Mutex
	idle   []*frameConn
	closed bool
}

// frameConn is one upgraded connection to a worker.
type frameConn struct {
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte // the request frame being sent
	rbuf []byte // the answer frame being read
	// probe is whether the exchange in flight is a probe stream; ended is
	// the wait for its abandon call, when its context ends mid-exchange.
	probe bool
	ended sync.WaitGroup
}

// abandon runs when the context of the exchange in flight ends. A probe
// stream is long and its matches go to a client: its connection closes at
// once. A query's answer is short: the exchange reads it to its end within
// drainTimeout, after which the connection can be pooled again.
func (fc *frameConn) abandon() {
	defer fc.ended.Done()
	if fc.probe {
		fc.conn.Close()
		return
	}
	fc.conn.SetDeadline(time.Now().Add(drainTimeout))
}

func (p *framePool) get() *frameConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if n == 0 {
		return nil
	}
	fc := p.idle[n-1]
	p.idle = p.idle[:n-1]
	return fc
}

func (p *framePool) put(fc *frameConn) {
	p.mu.Lock()
	if !p.closed && len(p.idle) < maxIdleFrames {
		p.idle, fc = append(p.idle, fc), nil
	}
	p.mu.Unlock()
	if fc != nil {
		fc.conn.Close()
	}
}

// close closes the idle connections; a connection in use is closed when it
// is put back.
func (p *framePool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, fc := range idle {
		fc.conn.Close()
	}
}

// dial opens a frame connection to the worker at addr (its advertise URL).
// A ctx that ends once the TCP connection is open lets the upgrade finish
// within drainTimeout, as an abandoned query read does: a hedge's loser
// caught mid-dial leaves a connection that roundTrip pools unused.
func dialFrames(ctx context.Context, addr string) (*frameConn, error) {
	u, err := url.Parse(addr)
	if err != nil {
		return nil, err
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", u.Host)
	if err != nil {
		return nil, err
	}
	ended := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		conn.SetDeadline(time.Now().Add(drainTimeout))
		close(ended)
	})
	fc, err := upgradeFrames(conn, u)
	if !stop() {
		<-ended // the deadline is set: it can be cleared
		if err == nil {
			err = conn.SetDeadline(time.Time{})
		}
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return fc, nil
}

func upgradeFrames(conn net.Conn, u *url.URL) (*frameConn, error) {
	req := "GET " + u.Path + framesPath + " HTTP/1.1\r\nHost: " + u.Host +
		"\r\nConnection: Upgrade\r\nUpgrade: " + frameProtocol + "\r\n\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		return nil, err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		return nil, fmt.Errorf("frame upgrade: status %s", resp.Status)
	}
	return &frameConn{conn: conn, br: br}, nil
}

// roundTrip sends req to the worker at addr on a pooled connection and hands
// fn each frame of the answer — a group's matches, then its end frame, group
// after group in req's order — returning once the last group's end frame is
// read. An end frame's body aliases the connection's buffer: fn copies what
// it keeps. A ctx that has ended by the time a connection is in hand sends
// nothing: the connection goes back to the pool.
// When ctx ends mid-exchange (abandon), a probe stream's connection is
// closed, and a query read — a hedge's loser — finishes reading its answer
// within drainTimeout and goes back to the pool, so that a hedge costs no
// later lookup a dial; it is closed only when the deadline passes first. A
// reused connection that fails before any byte of the answer — one the
// worker closed while it sat idle — is replaced by a new one once: reads are
// idempotent, and the worker must not be blamed for it.
func (p *framePool) roundTrip(ctx context.Context, addr string, req *frameRequest, fn func(frameMatch) error) error {
	fc := p.get()
	reused := fc != nil
	for {
		if fc == nil {
			var err error
			if fc, err = dialFrames(ctx, addr); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			p.put(fc) // nothing was sent on it
			return err
		}
		fc.probe = req.op == opProbe
		fc.ended.Add(1)
		stop := context.AfterFunc(ctx, fc.abandon)
		answered, err := fc.exchange(req, fn)
		abandoned := !stop()
		if abandoned {
			fc.ended.Wait() // abandon has run: its deadline can be cleared
		} else {
			fc.ended.Done()
		}
		if err == nil {
			switch {
			case !abandoned:
				p.put(fc)
			case fc.probe: // abandon closed the connection
			case fc.conn.SetDeadline(time.Time{}) == nil:
				p.put(fc)
			default:
				fc.conn.Close()
			}
			return nil
		}
		fc.conn.Close()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !reused || answered {
			return err
		}
		fc, reused = nil, false
	}
}

// exchange is one request and its answer on fc. answered reports whether any
// byte of the answer arrived; an error leaves the connection unusable.
func (fc *frameConn) exchange(req *frameRequest, fn func(frameMatch) error) (answered bool, err error) {
	fc.wbuf = appendRequest(fc.wbuf[:0], req)
	if _, err = fc.conn.Write(fc.wbuf); err != nil {
		return false, err
	}
	if len(fc.wbuf) > 64<<10 {
		fc.wbuf = nil // a large probe batch's buffer is not kept
	}
	if _, err = fc.br.Peek(1); err != nil {
		return false, err
	}
	want := tagQueryMatch
	if req.op == opProbe {
		want = tagProbeMatch
	}
	for ends := 0; ends < len(req.groups); {
		if fc.rbuf, err = readFrame(fc.br, fc.rbuf); err != nil {
			return true, err
		}
		m, err := decodeAnswer(fc.rbuf)
		switch {
		case err != nil:
			return true, err
		case m.tag == tagEnd:
			ends++
		case m.tag != want:
			return true, fmt.Errorf("answer frame tag %d to op %d", m.tag, req.op)
		}
		if err := fn(m); err != nil {
			return true, err
		}
	}
	return true, nil
}
