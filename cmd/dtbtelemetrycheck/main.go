// Command dtbtelemetrycheck validates a JSON-lines telemetry stream
// (as written by dtbsim -telemetry or dtbgc.NewTelemetryWriter)
// against the documented schema: every line must be a JSON object
// carrying a known "event" discriminator with that event's required
// fields at the required JSON types, and each run's event sequence
// must be coherent (run_start first, decision/scavenge pairs with
// increasing indices, run_finish last with a matching collection
// count). It is the CI gate that keeps the emitted telemetry and the
// README's schema documentation from drifting apart.
//
// Usage:
//
//	dtbtelemetrycheck FILE...
//	dtbsim -policy full -workload SIS -telemetry - | dtbtelemetrycheck -
//	curl -s http://127.0.0.1:7341/v1/metrics | dtbtelemetrycheck -metrics -
//
// -metrics switches to the dtbd metrics-snapshot schema instead: one
// JSON object per input with every documented field present at its
// documented type, finite non-negative readings, and the serving
// identities intact (memo_hits + cold_evals == evals_served,
// tape_hits within cold_evals). It is the CI gate on the daemon's
// /v1/metrics endpoint, as checkStream is on telemetry lines.
//
// Exit status is 0 when every stream is schema-valid, 1 otherwise.
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
)

func main() {
	args := os.Args[1:]
	check := checkStream
	if len(args) > 0 && args[0] == "-metrics" {
		check = checkMetrics
		args = args[1:]
	}
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: dtbtelemetrycheck [-metrics] FILE... (- for stdin)")
		os.Exit(2)
	}
	failed := false
	for _, arg := range args {
		var r io.Reader
		name := arg
		if arg == "-" {
			r, name = os.Stdin, "<stdin>"
		} else {
			data, err := os.ReadFile(arg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dtbtelemetrycheck:", err)
				os.Exit(2)
			}
			r = bytes.NewReader(data)
		}
		problems, err := check(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dtbtelemetrycheck: %s: %v\n", name, err)
			os.Exit(2)
		}
		for _, p := range problems {
			fmt.Printf("%s: %s\n", name, p)
		}
		if len(problems) > 0 {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
