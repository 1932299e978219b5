package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// The package speaks to a peer through the two functions of this file and
// nowhere else: call for the control protocol, JSON over HTTP, and stream for
// the coordinator's group reads, binary frames on pooled connections
// (frames.go) — the one exchange on every lookup's path.

// call is one JSON exchange with a peer: in (POSTed when non-nil, else a
// GET) out, the answer decoded into out when non-nil. An in that is a
// json.RawMessage is sent as it is, so a fan-out encodes its body once for
// every peer. It retries nothing — callers own their retry and failover
// policy. A non-2xx answer is an error carrying the status and the head of
// the body (see statusError).
func call(ctx context.Context, client *http.Client, url string, in, out any) error {
	method, body := http.MethodGet, io.Reader(nil)
	if in != nil {
		raw, ok := in.(json.RawMessage)
		if !ok {
			var err error
			if raw, err = json.Marshal(in); err != nil {
				return err
			}
		}
		method, body = http.MethodPost, bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		head, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return statusError(resp.StatusCode, head)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// statusError reports a peer's failed answer: the status and the head of its
// body. A 400 is the peer refusing the request itself — a body too large
// once re-encoded, say — which every replica refuses alike, so it comes back
// as an *apiError with the peer's body: the client is answered the 400 and no
// replica is blamed for it (see refused).
func statusError(status int, head []byte) error {
	if status == http.StatusBadRequest {
		var body ErrorBody
		if json.Unmarshal(head, &body) != nil || body.Error == "" {
			body = ErrorBody{Error: strings.TrimSpace(string(head))}
		}
		return &apiError{http.StatusBadRequest, body}
	}
	return fmt.Errorf("status %d %s: %s", status, http.StatusText(status), strings.TrimSpace(string(head)))
}

// refused reports whether err is a peer's refusal of the request (its 400),
// which fails the request and not the replica: it is not failed over and
// does not take the replica out of service.
func refused(err error) bool {
	var ae *apiError
	return errors.As(err, &ae) && ae.status == http.StatusBadRequest
}

// stream is one read of req's groups from a worker: each match goes to fn as
// it arrives, and each group's outcome to end as the group's section of the
// answer closes — nil, or the failure its end frame carries. The last
// group's outcome waits until roundTrip has put the connection back in the
// pool: the read it completes may answer a client, whose next read must find
// the connection there rather than dial another. A frame that fails ends
// every group it left open with the failure, so end sees each group of req
// once.
func stream(ctx context.Context, ref *workerRef, req *frameRequest, fn func(frameMatch) error, end func(g int, err error)) {
	closed := 0
	var lastErr error
	err := ref.frames.roundTrip(ctx, ref.addr, req, func(m frameMatch) error {
		if m.tag != tagEnd {
			return fn(m)
		}
		g := req.groups[closed]
		closed++
		var gerr error
		if m.status != http.StatusOK {
			gerr = statusError(m.status, m.body)
		}
		if closed < len(req.groups) {
			end(g, gerr)
		} else {
			lastErr = gerr
		}
		return nil
	})
	if err != nil {
		for _, g := range req.groups[closed:] {
			end(g, err)
		}
		return
	}
	end(req.groups[closed-1], lastErr) // roundTrip read every end frame
}
