package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"github.com/aujoin/aujoin"
	"github.com/aujoin/aujoin/internal/cmdutil"
)

// This file is the serving protocol, written once: the public routes, their
// parameter and body validation, the input caps and the one error shape. A
// standalone daemon, a cluster worker and the coordinator mount it over a
// host and differ only in what stands behind it — none of them touches an
// http.ResponseWriter for these routes.

// host is a process that serves the public surface: it says which target a
// request addresses (or why none can answer) and supplies the /readyz and
// /stats bodies.
type host interface {
	// resolve picks the target of a request. group is a read's ?group=
	// parameter, empty on a write. The error is the refusal to answer with:
	// not ready, a group not hosted here, a write on a worker.
	resolve(group string, write bool) (target, error)
	// readyz is the /readyz body; q is the request's query, where the
	// coordinator's health check passes its epoch to a worker.
	readyz(q url.Values) (any, error)
	stats() (any, error)
}

// target answers the five data operations. Errors are the answer's failure:
// an *apiError or a *GatherError carries its own status, anything else is
// a 500.
type target interface {
	topK(ctx context.Context, q string, opts aujoin.QueryOptions) ([]aujoin.QueryMatch, error)
	// probe hands each confirmed match to emit as it is found; an error from
	// emit stops the join and is returned.
	probe(ctx context.Context, records []string, emit func(ProbeMatch) error) error
	insert(ctx context.Context, records []string) ([]int, error)
	remove(ctx context.Context, ids []int) ([]bool, error)
	checkpoint() error
}

// maxBodyBytes caps POST bodies (an insert batch has no business being
// larger), maxOrderBytes the one body that is a whole frozen-order image,
// and MaxTopK the per-query result heap, so a single request cannot balloon
// a daemon's memory.
const (
	maxBodyBytes  = 8 << 20
	maxOrderBytes = 512 << 20
	MaxTopK       = 10000
)

// apiError is a refusal with its HTTP status; writeErr answers it as body.
type apiError struct {
	status int
	body   ErrorBody
}

func (e *apiError) Error() string { return e.body.Error }

func badRequest(msg string) error {
	return &apiError{http.StatusBadRequest, ErrorBody{Error: msg}}
}

func notReady(msg string) error {
	return &apiError{http.StatusServiceUnavailable, ErrorBody{Error: msg, Code: "not_ready"}}
}

// thetaBelowBuild refuses a min_sim below the index's build θ: 400, naming
// the θ the client may ask for instead.
func thetaBelowBuild(theta float64) error {
	return &apiError{http.StatusBadRequest, ErrorBody{
		Error: fmt.Sprintf("min_sim is below the index's build threshold %v", theta),
		Code:  "theta_below_build", Theta: theta,
	}}
}

// writeErr answers a failed request: every route of every mode fails in the
// ErrorBody JSON shape (a GatherError adds its failure list to it).
func writeErr(w http.ResponseWriter, err error) {
	status, body := failure(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// failure is the status and the JSON body a failed request is answered with,
// over HTTP and in a frame answer's end frame alike.
func failure(err error) (int, any) {
	var ae *apiError
	var ge *GatherError
	switch {
	case errors.As(err, &ae):
		return ae.status, ae.body
	case errors.As(err, &ge):
		return ge.status, ge.body()
	}
	return http.StatusInternalServerError, ErrorBody{Error: err.Error()}
}

// answer finishes a JSON route: v on success, writeErr otherwise.
func answer(w http.ResponseWriter, v any, err error) {
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// decodeBody reads a capped JSON request body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v); err != nil {
		return badRequest("bad request body: " + err.Error())
	}
	return nil
}

// rpc mounts a typed function as a JSON route: the capped body decodes into
// a Req, fn's value is the answer. The public mutation routes and the
// worker and coordinator protocol routes are all mounted through it.
func rpc[Req, Resp any](limit int64, fn func(context.Context, *Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := decodeBody(w, r, limit, &req); err != nil {
			writeErr(w, err)
			return
		}
		resp, err := fn(r.Context(), &req)
		answer(w, resp, err)
	}
}

// surface is the public route set over one host.
type surface struct{ h host }

// mount registers the public routes. The mux refuses a wrong method with 405
// and an Allow header.
func mount(mux *http.ServeMux, h host) {
	s := surface{h}
	mux.HandleFunc("GET /query", s.query)
	mux.HandleFunc("POST /probe", s.probe)
	mux.HandleFunc("POST /insert", rpc(maxBodyBytes, s.insert))
	mux.HandleFunc("POST /remove", rpc(maxBodyBytes, s.remove))
	mux.HandleFunc("POST /remove-batch", rpc(maxBodyBytes, s.removeBatch))
	mux.HandleFunc("POST /snapshot", s.snapshot)
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		body, err := h.stats()
		answer(w, body, err)
	})
	// Liveness: the process is up and serving HTTP. Whether it can answer
	// correctly yet is /readyz's business.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		body, err := h.readyz(r.URL.Query())
		answer(w, body, err)
	})
}

// ParseQueryOptions validates the /query parameters, parsed once by the
// caller: k is required in [1, MaxTopK], min_sim optional in (0, 1] (a value
// below the index's build θ is refused by the target). The error text is
// the client-facing 400 body.
func ParseQueryOptions(vals url.Values) (aujoin.QueryOptions, error) {
	var opts aujoin.QueryOptions
	k, err := strconv.Atoi(vals.Get("k"))
	if err != nil || checkQueryOptions(aujoin.QueryOptions{K: k}) != nil {
		return opts, errBadK
	}
	opts.K = k
	if raw := vals.Get("min_sim"); raw != "" {
		minSim, err := strconv.ParseFloat(raw, 64)
		if err != nil || minSim == 0 {
			return opts, errBadMinSim
		}
		opts.MinSimilarity = minSim
	}
	return opts, checkQueryOptions(opts)
}

var (
	errBadK      = fmt.Errorf("k is required and must be an integer in [1, %d]", MaxTopK)
	errBadMinSim = errors.New("min_sim must be a float in (0, 1]")
)

// checkQueryOptions is the range check of a query's k and min_sim (0:
// unset), for a /query and a frame request alike.
func checkQueryOptions(opts aujoin.QueryOptions) error {
	// A missing or non-positive k is rejected rather than passed through: an
	// unbounded "all matches" response is never what a serving client wants,
	// and silently treating k=0 as "everything" made the degenerate case the
	// most expensive one.
	if opts.K < 1 || opts.K > MaxTopK {
		return errBadK
	}
	// Written as a negated range check so NaN, which ParseFloat accepts and
	// every comparison answers false for, is rejected too.
	if m := opts.MinSimilarity; m != 0 && !(m > 0 && m <= 1) {
		return errBadMinSim
	}
	return nil
}

// query answers the k best matches as NDJSON, best first.
func (s surface) query(w http.ResponseWriter, r *http.Request) {
	vals := r.URL.Query()
	q := vals.Get("q")
	if q == "" {
		writeErr(w, badRequest("missing q parameter"))
		return
	}
	opts, err := ParseQueryOptions(vals)
	if err != nil {
		writeErr(w, badRequest(err.Error()))
		return
	}
	t, err := s.h.resolve(vals.Get("group"), false)
	if err != nil {
		writeErr(w, err)
		return
	}
	matches, err := t.topK(r.Context(), q, opts)
	if r.Context().Err() != nil {
		// The client disconnected or timed out mid-verification: there is no
		// one left to tell, so the handler just stops.
		return
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	// The answer is complete before its first byte goes out: one write with
	// its length, not a flushed chunk per line.
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, m := range matches {
		if err := enc.Encode(m); err != nil {
			writeErr(w, err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Length", strconv.Itoa(body.Len()))
	w.Write(body.Bytes())
}

// probe joins a batch of records against the target and streams each match
// as an NDJSON line the moment it is confirmed — the response starts before
// the join finishes, and a client hanging up mid-stream cancels the
// remaining work through the request context. A failure before the first
// line is answered as an error; after it the connection is killed, because a
// silently truncated stream would read as a complete one.
func (s surface) probe(w http.ResponseWriter, r *http.Request) {
	var req ProbeRequest
	if err := decodeBody(w, r, maxBodyBytes, &req); err != nil {
		writeErr(w, err)
		return
	}
	t, err := s.h.resolve(r.URL.Query().Get("group"), false)
	if err != nil {
		writeErr(w, err)
		return
	}
	var nw *cmdutil.NDJSONWriter
	var werr error
	err = t.probe(r.Context(), req.Records, func(m ProbeMatch) error {
		if nw == nil {
			nw = cmdutil.NewNDJSONWriter(w)
		}
		werr = nw.Write(m)
		return werr
	})
	switch {
	case r.Context().Err() != nil || werr != nil:
		// The client is gone; an NDJSON stream has no in-band error channel
		// worth inventing for a dead peer.
	case err == nil:
		if nw == nil {
			cmdutil.NewNDJSONWriter(w) // headers for an empty (but successful) stream
		}
	case nw == nil:
		writeErr(w, err)
	default:
		panic(http.ErrAbortHandler)
	}
}

func (s surface) insert(ctx context.Context, req *InsertRequest) (InsertResponse, error) {
	t, err := s.h.resolve("", true)
	if err != nil {
		return InsertResponse{}, err
	}
	ids, err := t.insert(ctx, req.Records)
	if ids == nil {
		ids = []int{}
	}
	return InsertResponse{IDs: ids}, err
}

// remove is removeBatch with one ID.
func (s surface) remove(ctx context.Context, req *RemoveRequest) (RemoveResponse, error) {
	resp, err := s.removeBatch(ctx, &RemoveBatchRequest{IDs: []int{req.ID}})
	return RemoveResponse{Removed: resp.RemovedCount == 1}, err
}

func (s surface) removeBatch(ctx context.Context, req *RemoveBatchRequest) (RemoveBatchResponse, error) {
	t, err := s.h.resolve("", true)
	if err != nil {
		return RemoveBatchResponse{}, err
	}
	removed, err := t.remove(ctx, req.IDs)
	if removed == nil {
		removed = []bool{}
	}
	count := 0
	for _, ok := range removed {
		if ok {
			count++
		}
	}
	return RemoveBatchResponse{Removed: removed, RemovedCount: count}, err
}

// snapshot folds the target's log into a new durable snapshot generation on
// demand. Mutations stall for the duration of the checkpoint; queries do not.
func (s surface) snapshot(w http.ResponseWriter, _ *http.Request) {
	t, err := s.h.resolve("", true)
	if err == nil {
		err = t.checkpoint()
	}
	answer(w, SnapshotResponse{Checkpointed: true}, err)
}
