package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

var addrRE = regexp.MustCompile(`serving on (\S+)`)

// lockedBuf serializes writes so the test can read stderr while run()
// is still serving.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeSmoke boots the daemon on an ephemeral port against the
// demo database, serves a miss then a hit through real HTTP, scrapes
// /metrics, and shuts down gracefully.
func TestServeSmoke(t *testing.T) {
	var stdout, stderr lockedBuf
	stop := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", ":0", "-demo"}, &stdout, &stderr, stop)
	}()

	// The daemon prints its bound address to stderr.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := addrRE.FindStringSubmatch(stderr.String()); m != nil {
			base = "http://" + strings.Replace(m[1], "[::]", "127.0.0.1", 1)
		} else if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; stderr: %q", stderr.String())
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	query := func(sql string) (int, map[string]any) {
		resp, err := http.Post(base+"/query", "application/json",
			strings.NewReader(`{"sql": "`+sql+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	status, body := query("select r1.x from r1, r2 where r1.x = r2.x and r1.y = 3")
	if status != 200 || body["cache"] != "miss" {
		t.Fatalf("first query: status=%d body=%v", status, body)
	}
	status, body = query("select r1.x from r1, r2 where r1.x = r2.x and r1.y = 4")
	if status != 200 || body["cache"] != "hit" {
		t.Fatalf("second query: status=%d body=%v", status, body)
	}
	if status, body = query("not sql at all"); status != 400 {
		t.Fatalf("bad query: status=%d body=%v", status, body)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	metrics := string(raw)
	for _, series := range []string{"plancache_hits_total", "plancache_misses_total", "serve_requests_total"} {
		if !strings.Contains(metrics, series) {
			t.Fatalf("/metrics lacks %s", series)
		}
	}

	close(stop)
	select {
	case code := <-done:
		if code != exitOK {
			t.Fatalf("exit code %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain")
	}
	if !strings.Contains(stderr.String(), "draining") {
		t.Fatalf("graceful path not taken; stderr: %q", stderr.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run(nil, &out, &errBuf, nil); code != exitUsage {
		t.Fatalf("no data source: exit %d, want %d", code, exitUsage)
	}
	if code := run([]string{"-demo", "-data", "x"}, &out, &errBuf, nil); code != exitUsage {
		t.Fatalf("conflicting sources: exit %d, want %d", code, exitUsage)
	}
	if code := run([]string{"-nosuchflag"}, &out, &errBuf, nil); code != exitUsage {
		t.Fatalf("bad flag: exit %d, want %d", code, exitUsage)
	}
	// -max-plans went: Limits.MaxExprs bounds each tenant's enumeration.
	// (A missing -data directory keeps a run that accepted the flag
	// from serving: it exits 1 instead.)
	missing := filepath.Join(t.TempDir(), "missing")
	if code := run([]string{"-data", missing, "-max-plans", "100"}, &out, &errBuf, nil); code != exitUsage {
		t.Fatalf("-max-plans: exit %d, want %d", code, exitUsage)
	}
	// -workers went: the service explores its memos serially.
	if code := run([]string{"-data", missing, "-workers", "2"}, &out, &errBuf, nil); code != exitUsage {
		t.Fatalf("-workers: exit %d, want %d", code, exitUsage)
	}
}

// TestFlagSurface pins the flag names `reorderd -h` prints, in the
// order it prints them, so that a new flag — or one left behind by the
// code it configured — is a change to this list, made on purpose.
func TestFlagSurface(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-h"}, &out, &errBuf, nil); code != exitUsage {
		t.Fatalf("-h: exit %d, want %d", code, exitUsage)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(errBuf.String(), -1) {
		got = append(got, m[1])
	}
	want := []string{
		"addr", "cache-bytes", "concurrency", "data", "demo", "drain", "feedback", "flight",
		"max-bytes", "max-rows", "queue", "replan-after", "replan-qerror", "timeout",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flags %v,\nwant %v", got, want)
	}
}
