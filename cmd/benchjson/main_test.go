package main

import (
	"bytes"
	"strings"
	"testing"
)

const benchLine = "BenchmarkTable2_GCM_1core_128-2 \t 1\t 5000000 ns/op\t 1000 system_Mbps\n"

// TestGatesComposeWithInputChecks pins the early-return rule: -gates
// alone needs no bench input, but any input-consuming flag beside it must
// still be honoured. The old smoke flags returned before -hostbudget,
// -clusterscale and -allocspacket were looked at, so a blown budget
// passed whenever a smoke gate rode along.
func TestGatesComposeWithInputChecks(t *testing.T) {
	for _, tc := range []struct {
		name, stdin string
		args        []string
		code        int
		stdout      string
	}{
		{"gates only reads no input", "", []string{"-gates", "load"}, 0, "gate load ok"},
		{"budget checked beside a gate", benchLine,
			[]string{"-gates", "load", "-hostbudget", "Table2_GCM_1core_128=0.0000001"}, 1, "gate load ok"},
		{"budget alone", benchLine, []string{"-hostbudget", "Table2_GCM_1core_128=0.0000001"}, 1, ""},
		{"budget met beside a gate", benchLine,
			[]string{"-gates", "load", "-hostbudget", "Table2_GCM_1core_128=60"}, 0, "host budget ok"},
		{"allocs ceiling needs its benchmark", benchLine,
			[]string{"-gates", "load", "-allocspacket", "Cluster/shards=8=96"}, 1, "gate load ok"},
		{"unknown gate is a usage error", "", []string{"-gates", "load,nope"}, 2, ""},
		{"no input at all", "", nil, 2, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, strings.NewReader(tc.stdin), &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, &stdout, &stderr)
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Fatalf("stdout lacks %q:\n%s", tc.stdout, &stdout)
			}
		})
	}
}
