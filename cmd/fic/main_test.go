package main

import (
	"strings"
	"testing"
)

// TestRejectsScaleFlags pins that fic refuses campaign sizes the
// library would otherwise replace by its defaults — `-grid 0` used to
// print "0 cases" and then run the full 5x5 grid — before any campaign
// or calibration starts.
func TestRejectsScaleFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-experiment", "e1", "-grid", "0", "-observe", "1000"}, "-grid"},
		{[]string{"-experiment", "e2", "-grid", "-3"}, "-grid"},
		{[]string{"-experiment", "e2", "-grid", "1", "-observe", "0"}, "-observe"},
		{[]string{"-grid", "1", "-observe", "-5", "exhaustive"}, "-observe"},
		{[]string{"-experiment", "all", "-grid", "1", "-workers", "-1"}, "-workers"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("fic %s: err = %v, want a %s error", strings.Join(tc.args, " "), err, tc.flag)
		}
	}
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-errors", "e1", "-grid", "0"}, "-grid"},
		{[]string{"-errors", "e1", "-grid", "1", "-observe", "0"}, "-observe"},
		{[]string{"-errors", "e1", "-grid", "1", "-workers", "-2"}, "-workers"},
	} {
		err := runOptimize(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("fic optimize %s: err = %v, want a %s error", strings.Join(tc.args, " "), err, tc.flag)
		}
	}
}
