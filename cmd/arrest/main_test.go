package main

import (
	"strings"
	"testing"
)

func TestParseVersion(t *testing.T) {
	tests := []struct {
		in      string
		want    int
		wantErr bool
	}{
		{"all", 0, false},
		{"All", 0, false},
		{"none", -1, false},
		{"ea1", 1, false},
		{"EA7", 7, false},
		{"ea8", 0, true},
		{"", 0, true},
		{"bogus", 0, true},
	}
	for _, tt := range tests {
		got, err := parseVersion(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseVersion(%q) error = %v", tt.in, err)
			continue
		}
		if err == nil && int(got) != tt.want {
			t.Errorf("parseVersion(%q) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

// TestRejectsOutOfRangeFlags pins that arrest refuses inputs it used to
// run anyway: a test case outside the paper's envelope, a non-positive
// observation window and a non-positive CSV sampling period. The
// envelope bounds themselves are valid.
func TestRejectsOutOfRangeFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-mass", "7999"}, "-mass"},
		{[]string{"-mass", "20001"}, "-mass"},
		{[]string{"-mass", "NaN"}, "-mass"},
		{[]string{"-velocity", "39.9"}, "-velocity"},
		{[]string{"-velocity", "70.5"}, "-velocity"},
		{[]string{"-observe", "0"}, "-observe"},
		{[]string{"-observe", "-5", "-csv"}, "-observe"},
		{[]string{"-every", "0", "-csv"}, "-every"},
		{[]string{"-every", "-3"}, "-every"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("arrest %s: err = %v, want a %s error", strings.Join(tc.args, " "), err, tc.flag)
		}
	}
	for _, tc := range [][2]float64{{8000, 40}, {20000, 70}} {
		if err := checkFlags(tc[0], tc[1], 1, 1); err != nil {
			t.Errorf("envelope bound mass %g, velocity %g rejected: %v", tc[0], tc[1], err)
		}
	}
}
