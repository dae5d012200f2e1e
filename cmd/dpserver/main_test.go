package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

func TestParseConfig(t *testing.T) {
	cfg, err := parseConfig([]string{"-addr", ":9090", "-budget", "3.5", "-workers", "2", "-seed", "7"})
	if err != nil {
		t.Fatalf("parseConfig: %v", err)
	}
	if cfg.Addr != ":9090" || cfg.TenantBudget != 3.5 || cfg.Workers != 2 || cfg.Seed != 7 {
		t.Errorf("config = %+v", cfg)
	}

	if _, err := parseConfig([]string{"-no-such-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if _, err := parseConfig([]string{"stray"}); err == nil {
		t.Error("stray positional argument accepted")
	}
}

func TestParsePreloadFlags(t *testing.T) {
	cfg, err := parseConfig([]string{
		"-preload", "sales=/data/pos.dat",
		"-preload-synthetic", "demo=kosarak:100:9",
		"-preload-synthetic", "full=bmspos",
	})
	if err != nil {
		t.Fatalf("parseConfig: %v", err)
	}
	if len(cfg.Preload) != 3 {
		t.Fatalf("preloads = %+v", cfg.Preload)
	}
	if p := cfg.Preload[0]; p.Name != "sales" || p.Path != "/data/pos.dat" || p.Synthetic != "" {
		t.Errorf("file preload = %+v", p)
	}
	if p := cfg.Preload[1]; p.Name != "demo" || p.Synthetic != "kosarak" || p.Scale != 100 || p.Seed != 9 {
		t.Errorf("synthetic preload = %+v", p)
	}
	if p := cfg.Preload[2]; p.Name != "full" || p.Synthetic != "bmspos" || p.Scale != 0 || p.Seed != 0 {
		t.Errorf("synthetic preload = %+v", p)
	}

	bad := [][]string{
		{"-preload", "nopath"},
		{"-preload", "=path"},
		{"-preload", "name="},
		{"-preload-synthetic", "demo"},
		{"-preload-synthetic", "demo=kind:notanumber"},
		{"-preload-synthetic", "demo=kind:0"},
		{"-preload-synthetic", "demo=kind:1:notanumber"},
		{"-preload-synthetic", "demo=kind:1:2:3"},
	}
	for _, args := range bad {
		if _, err := parseConfig(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunServesPreloadedDataset boots the binary entry point with a
// -preload-synthetic flag and drives a dataset-backed query over HTTP.
func TestRunServesPreloadedDataset(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		err := run(ctx, []string{"-addr", "127.0.0.1:0", "-budget", "50", "-workers", "1", "-seed", "1",
			"-preload-synthetic", "pos=bmspos:1000:7"}, w)
		w.Close()
		done <- err
	}()

	br := bufio.NewReader(r)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("reading announce line: %v", err)
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		t.Fatalf("unexpected announce line %q", line)
	}
	base := "http://" + fields[3]
	if line, err = br.ReadString('\n'); err != nil || !strings.Contains(line, "pos") {
		t.Fatalf("dataset announce line = %q (err %v)", line, err)
	}

	body := `{"tenant":"cli","k":3,"epsilon":1,"dataset":"pos","queries":{"kind":"all_items"}}`
	resp, err := http.Post(base+"/v1/topk", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("topk: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topk status = %d, body = %s", resp.StatusCode, data)
	}
	var out struct {
		Selections []struct {
			Index int `json:"index"`
		} `json:"selections"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(out.Selections) != 3 {
		t.Fatalf("got %d selections, want 3: %s", len(out.Selections), data)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after shutdown", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not exit after context cancellation")
	}

	if err := run(context.Background(), []string{"-preload", "bad=/no/such/file.dat"}, os.Stdout); err == nil {
		t.Error("missing preload file accepted")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if err := run(context.Background(), []string{"-budget", "-1"}, os.Stdout); err == nil {
		t.Error("negative budget accepted")
	}
	if err := run(context.Background(), []string{"-addr", "host:notaport"}, os.Stdout); err == nil {
		t.Error("unlistenable address accepted")
	}
}

// TestRunServesAndShutsDown boots the real binary entry point on an ephemeral
// port, drives one DP query over HTTP, and checks the graceful shutdown path.
func TestRunServesAndShutsDown(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		err := run(ctx, []string{"-addr", "127.0.0.1:0", "-budget", "2", "-workers", "1", "-seed", "1"}, w)
		w.Close()
		done <- err
	}()

	// The first announced line carries the assigned address.
	br := bufio.NewReader(r)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("reading announce line: %v", err)
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		t.Fatalf("unexpected announce line %q", line)
	}
	base := "http://" + fields[3]

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}

	body := `{"tenant":"cli","k":2,"epsilon":1,"monotonic":true,"answers":[9,8,7,6,5]}`
	resp, err = http.Post(base+"/v1/topk", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("topk: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topk status = %d, body = %s", resp.StatusCode, data)
	}
	var out struct {
		Selections []struct {
			Index int     `json:"index"`
			Gap   float64 `json:"gap"`
		} `json:"selections"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(out.Selections) != 2 {
		t.Fatalf("got %d selections, want 2: %s", len(out.Selections), data)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after shutdown", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not exit after context cancellation")
	}
}

func TestParseDurabilityFlags(t *testing.T) {
	opts, err := parseConfig([]string{"-state-dir", "/var/lib/dpserver", "-fsync", "always"})
	if err != nil {
		t.Fatalf("parseConfig: %v", err)
	}
	if opts.StateDir != "/var/lib/dpserver" || opts.Fsync != "always" {
		t.Errorf("options = %+v", opts)
	}
	if opts, err := parseConfig(nil); err != nil || opts.StateDir != "" || opts.Fsync != "batch" {
		t.Errorf("defaults = %+v (err %v)", opts, err)
	}
	if _, err := parseConfig([]string{"-fsync", "sometimes"}); err == nil {
		t.Error("bad fsync mode accepted")
	}
	// The memory-mapped arena restart path and the scan fan-out knob are
	// gone; an old command line naming their flags must fail loudly rather
	// than be silently ignored.
	if _, err := parseConfig([]string{"-state-dir", "/var/lib/dpserver", "-mmap-datasets"}); err == nil {
		t.Error("removed -mmap-datasets flag accepted")
	}
	if _, err := parseConfig([]string{"-scan-workers", "1"}); err == nil {
		t.Error("removed -scan-workers flag accepted")
	}
}

// TestRunPersistsAcrossRestarts boots the real binary entry point twice on
// the same -state-dir and checks the spent budget survives the restart.
func TestRunPersistsAcrossRestarts(t *testing.T) {
	stateDir := t.TempDir()

	boot := func() (cancel context.CancelFunc, base string, done chan error) {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		ctx, cancelCtx := context.WithCancel(context.Background())
		done = make(chan error, 1)
		go func() {
			err := run(ctx, []string{"-addr", "127.0.0.1:0", "-budget", "5", "-workers", "1", "-seed", "1",
				"-state-dir", stateDir}, w)
			w.Close()
			done <- err
		}()
		br := bufio.NewReader(r)
		// First line announces the restored state, second the listen address.
		stateLine, err := br.ReadString('\n')
		if err != nil || !strings.Contains(stateLine, "state restored") {
			t.Fatalf("state announce line = %q (err %v)", stateLine, err)
		}
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading announce line: %v", err)
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			t.Fatalf("unexpected announce line %q", line)
		}
		return cancelCtx, "http://" + fields[3], done
	}

	stop := func(cancel context.CancelFunc, done chan error) {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v after shutdown", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("run did not exit after context cancellation")
		}
	}

	cancel1, base1, done1 := boot()
	body := `{"tenant":"cli","k":2,"epsilon":1.5,"monotonic":true,"answers":[9,8,7,6,5]}`
	resp, err := http.Post(base1+"/v1/topk", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("topk: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topk status = %d", resp.StatusCode)
	}
	stop(cancel1, done1)

	cancel2, base2, done2 := boot()
	defer stop(cancel2, done2)
	resp, err = http.Get(base2 + "/v1/tenants/cli/budget")
	if err != nil {
		t.Fatalf("budget: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budget status = %d, body = %s (restart refunded the tenant)", resp.StatusCode, data)
	}
	var ledger struct {
		Spent            float64            `json:"spent"`
		Remaining        float64            `json:"remaining"`
		SpentByMechanism map[string]float64 `json:"spent_by_mechanism"`
	}
	if err := json.Unmarshal(data, &ledger); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if ledger.Spent != 1.5 || ledger.Remaining != 3.5 || ledger.SpentByMechanism["topk"] != 1.5 {
		t.Errorf("ledger after restart = %+v, want spent 1.5 / remaining 3.5", ledger)
	}
}
