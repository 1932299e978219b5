package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/aujoin/aujoin/internal/cmdutil"
)

// The package speaks to a peer through the two functions of this file and
// nowhere else: call for the control protocol, stream for the data reads.

// call is one JSON exchange with a peer: in (POSTed when non-nil, else a
// GET) out, the answer decoded into out when non-nil. It retries nothing —
// callers own their retry and failover policy. A non-2xx answer is an error
// carrying the status and the head of the body (see statusError).
func call(ctx context.Context, client *http.Client, url string, in, out any) error {
	method, body := http.MethodGet, io.Reader(nil)
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
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
		return statusError(resp)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// statusError reports a peer's non-2xx answer: the status and the head of
// its body. A 400 is the peer refusing the request itself — a body too
// large once re-encoded, say — which every replica refuses alike, so it
// comes back as an *apiError with the peer's body: the client is answered
// the 400 and no replica is blamed for it (see refused).
func statusError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	if resp.StatusCode == http.StatusBadRequest {
		var body ErrorBody
		if json.Unmarshal(b, &body) != nil || body.Error == "" {
			body = ErrorBody{Error: strings.TrimSpace(string(b))}
		}
		return &apiError{http.StatusBadRequest, body}
	}
	return fmt.Errorf("status %s: %s", resp.Status, strings.TrimSpace(string(b)))
}

// refused reports whether err is a peer's refusal of the request (its 400),
// which fails the request and not the replica: it is not failed over and
// does not take the replica out of service.
func refused(err error) bool {
	var ae *apiError
	return errors.As(err, &ae) && ae.status == http.StatusBadRequest
}

// stream is one epoch-stamped read from a worker: the NDJSON lines of the
// answer go to line as they arrive (body is POSTed when non-nil, else the
// read is a GET). A worker whose commit is a beat behind the coordinator's
// epoch flip answers 409; that answer carries no lines, so nothing has been
// forwarded and one restamped retry covers the window — after it the 409
// counts against the worker like any other failure.
func stream[T any](ctx context.Context, c *Coordinator, url string, body []byte, line func(T) error) error {
	for retried := false; ; retried = true {
		method, rd := http.MethodGet, io.Reader(nil)
		if body != nil {
			method, rd = http.MethodPost, bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		req.Header.Set(EpochHeader, strconv.FormatInt(c.epoch.Load(), 10))
		resp, err := c.client.Do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusConflict && !retried {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(20 * time.Millisecond):
				continue
			}
		}
		defer resp.Body.Close() // the last response: the loop does not come round again
		if resp.StatusCode != http.StatusOK {
			return statusError(resp)
		}
		return cmdutil.DecodeNDJSON(resp.Body, line)
	}
}
