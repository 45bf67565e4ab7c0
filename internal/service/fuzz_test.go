package service

import (
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

// FuzzServeBodies posts each input as the body of /enumerate and of
// /simulate. Whatever the body, the answer must be one the server
// documents: 200, 400 (a bad body or parameter, or a request over a
// limit), 404 (an unknown dataset), 413 (an oversized body) or 503 (the
// request deadline). A 500 means the recovery middleware caught a
// panic or an error went unclassified.
//
// The registry holds only dev, because the city datasets would spend
// seconds generating on every input, and the result cache is small, so
// inputs with large answers cannot pile up. The corpus seeds psn-load's
// four request shapes (GET /figures carries no body), the delta and
// /simulate limit refusals, the TestServedErrors bodies and the budget
// refusals.
func FuzzServeBodies(f *testing.F) {
	for _, seed := range []string{
		`{"dataset":"dev","src":3,"dst":11,"start":20,"k":50}`,
		`{"dataset":"dev","k":50,"messages":[{"src":4,"dst":0,"start":0},{"src":4,"dst":1,"start":0},{"src":4,"dst":2,"start":0},{"src":4,"dst":3,"start":0},` +
			`{"src":4,"dst":5,"start":0},{"src":4,"dst":6,"start":0},{"src":4,"dst":7,"start":0},{"src":4,"dst":8,"start":0}]}`,
		`{"dataset":"dev","algorithm":"epidemic","runs":1,"seed":7}`,
		``,
		`{"dataset":"dev","src":0,"dst":17,"start":0,"k":50,"delta":1e-300}`,
		`{"dataset":"dev","src":0,"dst":17,"start":0,"k":50,"delta":0.001}`,
		fmt.Sprintf(`{"dataset":"dev","algorithm":"epidemic","runs":%d}`, maxSimulateRuns+1),
		`{"dataset":"dev","algorithm":"epidemic","rate":1e308,"runs":2}`,
	} {
		f.Add(seed)
	}
	for _, tc := range servedErrorCases {
		if tc.method == http.MethodPost {
			f.Add(tc.body)
		}
	}
	refusals := budgetRefusals()
	for _, name := range slices.Sorted(maps.Keys(refusals)) {
		f.Add(refusals[name])
	}

	reg := &Registry{entries: make(map[string]*regEntry)}
	reg.mustRegister("dev", KindSynthetic, func() (*trace.Trace, error) { return tracegen.Dev(1), nil })
	s := New(Config{Registry: reg, CacheSize: 16, RequestTimeout: time.Second, Logger: discardLogger()})
	f.Fuzz(func(t *testing.T, body string) {
		for _, path := range []string{"/enumerate", "/simulate"} {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
				http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
			default:
				t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
			}
		}
	})
}
