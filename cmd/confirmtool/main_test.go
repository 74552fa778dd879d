package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestReadSamples pins the input contract: blank lines and #-comments
// are skipped, and anything but a finite number — NaN, ±Inf, a value
// that overflows float64, text — is rejected with its line number
// instead of poisoning every statistic downstream.
func TestReadSamples(t *testing.T) {
	cases := []struct {
		name, in string
		want     []float64
		wantErr  string // substring; empty = no error
	}{
		{name: "plain", in: "10\n11\n12\n", want: []float64{10, 11, 12}},
		{name: "blank-and-comments", in: "\n# header\n10\n  \n  # note\n 11.5 \n", want: []float64{10, 11.5}},
		{name: "empty", in: "", want: nil},
		{name: "nan", in: "10\n11\nNaN\n12\n", wantErr: `line 3: "NaN"`},
		{name: "lower-nan", in: "nan\n", wantErr: `line 1: "nan"`},
		{name: "plus-inf", in: "10\n+Inf\n", wantErr: `line 2: "+Inf"`},
		{name: "minus-inf", in: "10\n# c\n-inf\n", wantErr: `line 3: "-inf"`},
		{name: "overflow", in: "1e400\n", wantErr: `line 1: "1e400"`},
		{name: "text", in: "10\nabc\n", wantErr: `line 2: "abc" is not a finite number`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := readSamples(strings.NewReader(tc.in))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("readSamples = %v, %v; want error containing %q", got, err, tc.wantErr)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("readSamples = %v, %v; want %v", got, err, tc.want)
			}
		})
	}
}
