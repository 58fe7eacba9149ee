package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// An enabled registry is on the -debug-addr server's /metrics, the
// Prometheus twin of /debug/vars, for every subcommand that keeps one.
func TestRegistryPublishesPrometheus(t *testing.T) {
	registry("x", true).Counter("probe").Inc()
	rec := httptest.NewRecorder()
	http.DefaultServeMux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if body := rec.Body.String(); rec.Code != http.StatusOK || !strings.Contains(body, `registry="x"`) {
		t.Fatalf("GET /metrics: %d %q; want 200 with the registry's samples", rec.Code, body)
	}
}
