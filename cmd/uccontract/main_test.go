package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejects checks the exit statuses of bad invocations: an unknown
// profile is a diagnostic and exit 1 before any cell runs, an unknown
// flag exit 2, and -h exit 0.
func TestRejects(t *testing.T) {
	for _, tc := range []struct {
		args string
		code int
		want string
	}{
		{"-device nope -quick", 1, `uccontract: unknown device "nope"`},
		{"-bogus", 2, "flag provided but not defined"},
		{"-h", 0, "Usage of uccontract"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		if code != tc.code || !strings.HasPrefix(stderr.String(), tc.want) || stdout.Len() != 0 {
			t.Errorf("uccontract %s: exit %d, stdout %q, stderr %q; want exit %d and stderr starting %q",
				tc.args, code, stdout.String(), stderr.String(), tc.code, tc.want)
		}
	}
}
