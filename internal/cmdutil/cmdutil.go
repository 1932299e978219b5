// Package cmdutil holds the small helpers shared by the command-line
// binaries (cmd/aujoin, cmd/aujoind): line-oriented catalog loading,
// flag-value parsing and NDJSON response streaming. It exists so the
// commands cannot drift apart on details like scanner buffer limits or
// filter spellings.
package cmdutil

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"

	"github.com/aujoin/aujoin"
)

// ReadLines reads a file into one string per line. Lines may be up to 16MB
// long (generous for catalog records).
func ReadLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	return out, sc.Err()
}

// filters are the -filter flag spellings.
var filters = map[string]aujoin.Filter{
	"u":         aujoin.UFilter,
	"heuristic": aujoin.AUFilterHeuristic,
	"dp":        aujoin.AUFilterDP,
}

// CheckFilter rejects a -filter value that is not one of the three
// spellings; every binary calls it on the flag before ParseFilter, which
// would read a misspelling as dp without a word.
func CheckFilter(name string) error {
	if _, ok := filters[name]; !ok {
		return fmt.Errorf("unknown -filter %q (want u, heuristic or dp)", name)
	}
	return nil
}

// ParseFilter maps the -filter flag spellings onto the signature filters;
// unknown values select the recommended AU-Filter (DP).
func ParseFilter(name string) aujoin.Filter {
	if f, ok := filters[name]; ok {
		return f
	}
	return aujoin.AUFilterDP
}

// NDJSONWriter streams newline-delimited JSON (one object per line) over an
// HTTP response, flushing after every line so results reach the client
// incrementally — the transport half of a streaming endpoint: a consumer can
// start processing (or hang up) long before the producer finishes.
type NDJSONWriter struct {
	enc     *json.Encoder
	flusher http.Flusher
	err     error
}

// NewNDJSONWriter prepares w for NDJSON streaming, setting the content type.
// It must be called before the first byte of the body is written.
func NewNDJSONWriter(w http.ResponseWriter) *NDJSONWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	return &NDJSONWriter{enc: json.NewEncoder(w), flusher: flusher}
}

// Write encodes one value as a JSON line and flushes it. After the first
// failure (typically the client hanging up mid-stream) every subsequent call
// returns the same error without writing, so streaming loops can simply stop
// on non-nil.
func (nw *NDJSONWriter) Write(v any) error {
	if nw.err != nil {
		return nw.err
	}
	if err := nw.enc.Encode(v); err != nil {
		nw.err = err
		return err
	}
	if nw.flusher != nil {
		nw.flusher.Flush()
	}
	return nil
}

// DecodeNDJSON is the client half of the NDJSON protocol: it decodes one
// JSON value per line from r and hands each to fn as it arrives, so a
// consumer processes a stream incrementally instead of buffering the whole
// response. fn returning an error stops the decode and surfaces that error
// (closing the body then aborts the producer). Lines may be up to 16MB, the
// same cap ReadLines applies to catalog records; the buffer starts small —
// a response is typically a few short lines, and the scanner grows it on
// demand — because one is allocated and zeroed per response.
func DecodeNDJSON[T any](r io.Reader, fn func(T) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(line, &v); err != nil {
			return err
		}
		if err := fn(v); err != nil {
			return err
		}
	}
	return sc.Err()
}
