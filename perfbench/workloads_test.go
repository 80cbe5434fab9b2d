package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkloadsSmoke runs every workload briefly, untraced and traced, and
// checks the result line: every op correct and every metric printed.  Run
// it with -race: the ranks of a run share the loop state.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, trace), func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "7", "--seconds", "0.4",
					"--trace", fmt.Sprint(trace), "--spans", filepath.Join(t.TempDir(), "spans.json")}
				if code := run(args, &out, io.Discard); code != 0 {
					t.Fatalf("exit %d:\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if trace == 1 {
					defs = perLayer
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(defs) {
					t.Fatalf("result %+v", res)
				}
				if trace == 0 {
					for _, d := range defs {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("%s = %v", d.name, res.Metrics[d.name].Value)
						}
					}
				}
			})
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "node-rtt-8b", "--trace", "2"},
		{"--workload", "node-rtt-8b", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, printed %q", args, code, out.String())
		}
	}
}
