package obsv

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestMetricsEndpointExposesCollector(t *testing.T) {
	c := New()
	c.Add(CntCompileSwaps, 12)
	c.Inc(CntCompilations)
	c.Set("fig7/ratio", 0.8)
	c.RecordSpan(SpanCompileMap, 3*time.Millisecond)

	h := NewHandler(c, nil, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain exposition", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"qaoa_compile_swaps_total 12",
		"qaoa_compile_compilations_total 1",
		"qaoa_fig7_ratio 0.8",
		"qaoa_compile_map_count 1",
		"qaoa_compile_map_seconds_sum 0.003",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
	// Live: a second scrape must see new increments.
	c.Add(CntCompileSwaps, 3)
	resp2, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(body2), "qaoa_compile_swaps_total 15") {
		t.Errorf("second scrape not live:\n%s", body2)
	}
}

func TestMetricsEndpointNilCollector(t *testing.T) {
	srv := httptest.NewServer(NewHandler(nil, nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("nil-collector /metrics returned %d", resp.StatusCode)
	}
}

func TestHealthzReportsProgress(t *testing.T) {
	progress := func() Progress { return Progress{Phase: "fig7", Done: 3, Total: 10} }
	srv := httptest.NewServer(NewHandler(New(), progress, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Status   string    `json:"status"`
		UptimeMS int64     `json:"uptime_ms"`
		Progress *Progress `json:"progress"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Status != "ok" {
		t.Errorf("status %q", got.Status)
	}
	if got.Progress == nil || got.Progress.Phase != "fig7" || got.Progress.Done != 3 || got.Progress.Total != 10 {
		t.Errorf("progress = %+v", got.Progress)
	}
}

func TestPprofIndexServed(t *testing.T) {
	srv := httptest.NewServer(NewHandler(nil, nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ returned %d", resp.StatusCode)
	}
}

func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"compile/swaps":    "qaoa_compile_swaps",
		"fig7/ratio":       "qaoa_fig7_ratio",
		"a-b.c d":          "qaoa_a_b_c_d",
		"already_fine_123": "qaoa_already_fine_123",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
