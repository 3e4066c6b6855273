package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"repro/internal/leaktest"
	"repro/internal/obsv"
)

// TestServeBindsAndServes: ServeObs binds a free port, serves the
// collector on /metrics, reports not-ready until SetReady, shuts down
// cleanly, and leaves no goroutine behind once the client lets go of its
// connections.
func TestServeBindsAndServes(t *testing.T) {
	baseline := runtime.NumGoroutine()
	col := obsv.New()
	col.Inc(obsv.CntCompilations)
	o, err := ServeObs("127.0.0.1:0", col, nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{}}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := client.Get(fmt.Sprintf("http://%s%s", o.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if _, body := get("/metrics"); !strings.Contains(body, "qaoa_compile_compilations_total 1") {
		t.Errorf("served metrics missing counter:\n%s", body)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "warming up") {
		t.Errorf("/readyz before SetReady = %d %q, want 503 warming up", code, body)
	}
	o.SetReady(true, "")
	if code, body := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz after SetReady = %d %q, want 200", code, body)
	}

	if err := o.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	client.CloseIdleConnections()
	leaktest.Check(t, baseline)
}
