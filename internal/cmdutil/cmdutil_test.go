package cmdutil

import (
	"bufio"
	"errors"
	"strings"
	"testing"
)

// TestDecodeNDJSON pins the line handling around the scanner buffer: it
// starts far below the line cap, so a long line must grow it, a line over the
// cap must be an error rather than a truncation, and an empty body is an
// empty stream.
func TestDecodeNDJSON(t *testing.T) {
	type rec struct {
		V string `json:"v"`
	}
	decode := func(body string) ([]rec, error) {
		var out []rec
		err := DecodeNDJSON(strings.NewReader(body), func(r rec) error {
			out = append(out, r)
			return nil
		})
		return out, err
	}

	long := strings.Repeat("x", 1<<20)
	got, err := decode(`{"v":"a"}` + "\n\n" + `{"v":"` + long + `"}` + "\n" + `{"v":"b"}`)
	if err != nil || len(got) != 3 || got[0].V != "a" || got[1].V != long || got[2].V != "b" {
		t.Fatalf("short, blank, 1 MiB, unterminated short: %d values, err %v", len(got), err)
	}

	if _, err := decode(`{"v":"` + strings.Repeat("x", 16<<20) + `"}` + "\n"); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("a line over the 16 MiB cap: err %v, want bufio.ErrTooLong", err)
	}

	if got, err := decode(""); err != nil || len(got) != 0 {
		t.Fatalf("empty body: %d values, err %v", len(got), err)
	}
}
