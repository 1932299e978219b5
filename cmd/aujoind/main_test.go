package main

import (
	"strings"
	"testing"
	"time"
)

// TestValidateFlags pins the flag-combination contract: impossible or
// ambiguous invocations are refused with an error naming the conflict
// instead of half-working.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		cfg     config
		wantErr string // substring; empty = valid
	}{
		{name: "defaults", cfg: config{addr: ":8321", shards: 1}},
		{name: "misspelt filter", cfg: config{shards: 1, filter: "heurstic"}, wantErr: `unknown -filter "heurstic"`},
		{name: "negative shards", cfg: config{shards: -1}, wantErr: "-shards"},
		{name: "zero shards is GOMAXPROCS", cfg: config{shards: 0}},
		{name: "catalog with join", cfg: config{join: "http://127.0.0.1:8080", catalog: "c.txt"}, wantErr: "-catalog conflicts with -join"},
		{name: "data-dir with join", cfg: config{join: "http://127.0.0.1:8080", dataDir: "/tmp/d"}, wantErr: "-data-dir conflicts with -join"},
		{name: "join without scheme", cfg: config{join: "127.0.0.1:8080"}, wantErr: "http(s) URL"},
		{name: "worker mode ok", cfg: config{join: "http://127.0.0.1:8080", shards: 2}},
		{name: "checkpoint without data-dir", cfg: config{ckptIvl: time.Minute}, wantErr: "-checkpoint-every requires -data-dir"},
		{name: "checkpoint with data-dir", cfg: config{dataDir: "/tmp/d", ckptIvl: time.Minute}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cfg.filter == "" {
				tc.cfg.filter = "dp" // the flag's default
			}
			err := tc.cfg.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestAdvertiseURL pins how a worker derives the address the coordinator
// calls back on.
func TestAdvertiseURL(t *testing.T) {
	cases := []struct {
		cfg  config
		want string
	}{
		{config{addr: ":8321"}, "http://127.0.0.1:8321"},
		{config{addr: "10.0.0.7:8321"}, "http://10.0.0.7:8321"},
		{config{addr: ":8321", advertise: "http://worker-3:9000"}, "http://worker-3:9000"},
		{config{addr: ":8321", advertise: "http://worker-3:9000/"}, "http://worker-3:9000"},
	}
	for _, tc := range cases {
		if got := tc.cfg.advertiseURL(); got != tc.want {
			t.Errorf("advertiseURL(%+v) = %q, want %q", tc.cfg, got, tc.want)
		}
	}
}
