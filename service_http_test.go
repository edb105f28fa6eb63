package reorder

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plancache"
)

func TestHandlerQuery(t *testing.T) {
	svc := newTestService(t, ServiceConfig{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Happy path: rows come back with serving metadata.
	resp, err := http.Post(srv.URL+"/query", "application/json",
		strings.NewReader(`{"sql": "select b from t where a = 1"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var r Response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if r.CacheStatus != "miss" || len(r.Rows) != 6 || r.Params != 1 {
		t.Fatalf("response = %+v", r)
	}

	// Second identical shape over HTTP is a cache hit.
	resp2, err := http.Post(srv.URL+"/query", "application/json",
		strings.NewReader(`{"sql": "select b from t where a = 3"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var r2 Response
	if err := json.NewDecoder(resp2.Body).Decode(&r2); err != nil {
		t.Fatal(err)
	}
	if r2.CacheStatus != "hit" {
		t.Fatalf("second request: cache=%s, want hit", r2.CacheStatus)
	}
}

func TestHandlerErrorEnvelope(t *testing.T) {
	svc := newTestService(t, ServiceConfig{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	cases := []struct {
		name   string
		method string
		body   string
		status int
		code   string
	}{
		{"parse error", "POST", `{"sql": "selec b from t"}`, 400, "bad_query"},
		{"bad json", "POST", `{"sql": `, 400, "bad_request"},
		{"missing sql", "POST", `{}`, 400, "bad_request"},
		{"wrong method", "GET", ``, 405, "method_not_allowed"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL+"/query", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var envelope struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
			t.Fatalf("%s: decoding envelope: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status || envelope.Error.Code != tc.code {
			t.Fatalf("%s: got %d/%s, want %d/%s",
				tc.name, resp.StatusCode, envelope.Error.Code, tc.status, tc.code)
		}
		if envelope.Error.Message == "" {
			t.Fatalf("%s: empty error message", tc.name)
		}
	}
}

// TestHandlerBodyTooLarge: a /query body past maxRequestBytes is
// refused with 413 too_large instead of being buffered, and the
// handler goes on serving.
func TestHandlerBodyTooLarge(t *testing.T) {
	svc := newTestService(t, ServiceConfig{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	big := `{"sql": "select b from t where a = 1` + strings.Repeat(" ", 2<<20) + `"}`
	resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&envelope)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding envelope: %v", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || envelope.Error.Code != "too_large" {
		t.Fatalf("2 MiB body: got %d/%s, want 413/too_large", resp.StatusCode, envelope.Error.Code)
	}

	resp, err = http.Post(srv.URL+"/query", "application/json",
		strings.NewReader(`{"sql": "select b from t where a = 1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the refused one: status %d", resp.StatusCode)
	}
}

// TestHandlerObservability: /metrics exposes the plancache and serve
// series and /debug/cache reports the live stats.
func TestHandlerObservability(t *testing.T) {
	svc := newTestService(t, ServiceConfig{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Post(srv.URL+"/query", "application/json",
			strings.NewReader(`{"sql": "select b from t where a = 2"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	fams, err := obs.ParseExposition(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"plancache_hits_total", "plancache_misses_total"} {
		fam, ok := fams[name]
		if !ok {
			t.Fatalf("/metrics lacks %s; have %d families", name, len(fams))
		}
		if len(fam.Samples) == 0 || fam.Samples[0].Value == 0 {
			t.Fatalf("%s not incremented", name)
		}
	}
	if _, ok := fams["serve_requests_total"]; !ok {
		t.Fatal("/metrics lacks serve_requests_total")
	}

	cresp, err := http.Get(srv.URL + "/debug/cache")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	var st plancache.Stats
	if err := json.NewDecoder(cresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 || st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("/debug/cache = %+v", st)
	}
}

// TestHandlerBurstShedsTyped: more simultaneous POSTs than the
// admission bound holds come back as typed 429 envelopes, never as
// transport errors; every admitted request completes with 200 once the
// slots free; and closing the server returns the goroutine count to
// its baseline.
func TestHandlerBurstShedsTyped(t *testing.T) {
	defer guard.Clear()
	base := runtime.NumGoroutine()
	svc := newTestService(t, ServiceConfig{MaxConcurrent: 2, MaxQueue: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Hold both slots inside execution until release; the deferred
	// release runs before srv.Close, which waits for every handler.
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	guard.Inject(guard.PointExecOperator, func(guard.Point) error {
		<-release
		return nil
	})

	type reply struct {
		status int
		code   string
		err    error
	}
	const n, admitted = 16, 4 // admitted = MaxConcurrent + MaxQueue
	client := &http.Client{Transport: &http.Transport{}}
	replies := make(chan reply, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := client.Post(srv.URL+"/query", "application/json",
				strings.NewReader(`{"sql": "select b from t where a = 1"}`))
			if err != nil {
				replies <- reply{err: err}
				return
			}
			defer resp.Body.Close()
			var envelope struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			if resp.StatusCode == http.StatusOK {
				_, err = io.Copy(io.Discard, resp.Body)
			} else {
				err = json.NewDecoder(resp.Body).Decode(&envelope)
			}
			replies <- reply{status: resp.StatusCode, code: envelope.Error.Code, err: err}
		}()
	}

	ok, shed := 0, 0
	receive := func() {
		t.Helper()
		var r reply
		select {
		case r = <-replies:
		case <-time.After(10 * time.Second):
			t.Fatalf("burst request wedged (%d ok, %d shed)", ok, shed)
		}
		switch {
		case r.err != nil:
			t.Fatalf("transport error: %v", r.err)
		case r.status == http.StatusTooManyRequests && r.code == "overloaded":
			shed++
		case r.status == http.StatusOK:
			ok++
		default:
			t.Fatalf("got %d %q, want 200 or 429 overloaded", r.status, r.code)
		}
	}
	// Nothing admitted can finish before release, so every arrival
	// beyond the admission bound must come back first.
	for i := 0; i < n-admitted; i++ {
		receive()
	}
	unblock()
	for i := n - admitted; i < n; i++ {
		receive()
	}
	if shed == 0 || ok != n-shed {
		t.Fatalf("%d ok, %d shed of %d: want at least one shed and every admitted request ok", ok, shed, n)
	}

	client.CloseIdleConnections()
	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+8 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d did not drain to baseline %d+8", runtime.NumGoroutine(), base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
