package main

import (
	"math"
	"strings"
	"testing"
)

func TestCheckWorkloadValidation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		runs    int
		rate    float64
		wantErr string
	}{
		{"zero runs", 0, 0.25, "-runs 0"},
		{"negative runs", -3, 0.25, "-runs -3"},
		{"zero rate", 10, 0, "-rate 0"},
		{"negative rate", 10, -1, "-rate -1"},
		{"NaN rate", 10, math.NaN(), "-rate NaN"},
		{"infinite rate", 10, math.Inf(1), "-rate +Inf"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkWorkload(tc.runs, tc.rate)
			if err == nil {
				t.Fatalf("expected error, got nil")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	if err := checkWorkload(1, 0.03); err != nil {
		t.Errorf("one run at rate 0.03 refused: %v", err)
	}
}
