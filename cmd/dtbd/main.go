// Command dtbd is the simulation-as-a-service daemon and its client:
// a long-running process that answers policy-evaluation requests over
// HTTP/JSON with results bit-identical to the dtbsim CLI, amortizing
// trace decoding and whole evaluations across requests through the
// daemon's content-addressed caches.
//
// Usage:
//
//	dtbd serve -addr 127.0.0.1:7341 [-workers N] [-queue N] [-tape-cache-mb MB] [-memo N]
//	dtbd serve -socket /run/dtbd.sock
//	dtbd eval -addr HOST:PORT -workload CFRAC -policy dtbfm:50k [-scale F] [-trigger BYTES]
//	dtbd eval -addr HOST:PORT -trace events.dtbt -policy full [-telemetry FILE] [-json]
//	dtbd status -addr HOST:PORT [-json]
//
// serve runs until SIGINT/SIGTERM, then drains: the listener closes
// immediately, in-flight evaluations run to completion, and the
// process exits 0. Overload is a 429 with a Retry-After hint, never a
// queue that grows without bound.
//
// eval prints the same summary block dtbsim prints for the same run —
// byte-identical, which CI enforces by diffing the two — or the full
// result JSON with -json. A -trace file is content-addressed: eval
// sends its digest first and uploads the bytes only when the daemon
// does not already hold them, so repeated evaluations of one trace
// ship sha256 instead of gigabytes.
//
// Exit status: 0 on success, 1 on operational failure (including a
// 429 rejection), 2 on usage errors.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	dtbgc "github.com/dtbgc/dtbgc"
	"github.com/dtbgc/dtbgc/internal/cliio"
	"github.com/dtbgc/dtbgc/internal/daemon"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "dtbd:", err)
	}
	os.Exit(cliio.ExitCode(err))
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return cliio.Usagef("usage: dtbd <serve|eval|status> [flags] (-h for help)")
	}
	switch args[0] {
	case "serve":
		return runServe(args[1:], stdout, stderr)
	case "eval":
		return runEval(args[1:], stdout, stderr)
	case "status":
		return runStatus(args[1:], stdout, stderr)
	default:
		return cliio.Usagef("unknown subcommand %q (serve, eval or status)", args[0])
	}
}

func runServe(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dtbd serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7341", "TCP listen address")
	socket := fs.String("socket", "", "unix-domain socket path to listen on instead of TCP")
	workers := fs.Int("workers", 0, "concurrent evaluation limit (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "waiting evaluations beyond the running ones before 429 (0 = 2x workers)")
	tapeMB := fs.Int64("tape-cache-mb", 256, "decoded-tape cache budget in MB")
	memo := fs.Int("memo", 4096, "result memo table entries")
	maxTraceMB := fs.Int64("max-trace-mb", 1024, "largest accepted trace upload in MB")
	drain := fs.Duration("drain-timeout", 30*time.Second, "how long Shutdown waits for in-flight evaluations")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return &cliio.UsageError{Err: err}
	}
	if err := cliio.Conflicts(fs,
		cliio.Conflict{A: "addr", B: "socket", Reason: "listen on TCP or a unix socket, not both"},
	); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return cliio.Usagef("serve takes no positional arguments, got %q", fs.Args())
	}

	network, bind := "tcp", *addr
	if *socket != "" {
		network, bind = "unix", *socket
	}
	ln, err := net.Listen(network, bind)
	if err != nil {
		return err
	}
	s := daemon.NewServer(daemon.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		TapeCacheBytes: *tapeMB << 20,
		MemoEntries:    *memo,
		MaxTraceBytes:  *maxTraceMB << 20,
	})
	s.Start(ln)
	fmt.Fprintf(stderr, "dtbd: listening on %s %s\n", network, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop() // a second signal during the drain kills the process normally

	fmt.Fprintln(stderr, "dtbd: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := s.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(stderr, "dtbd: drained, exiting")
	return nil
}

func runEval(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("dtbd eval", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7341", `daemon address (HOST:PORT or "unix:PATH")`)
	policySpec := fs.String("policy", "", "collector policy (full, fixed1, fixed4, feedmed:<b>, dtbfm:<b>, dtbmem:<b>)")
	baseline := fs.String("baseline", "", "baseline instead of a policy: nogc or live")
	workloadName := fs.String("workload", "", `paper workload name, e.g. "GHOST(1)", ESPRESSO(2), SIS, CFRAC`)
	traceFile := fs.String("trace", "", "binary trace file to evaluate (uploaded once, then addressed by digest)")
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	trigger := fs.Uint64("trigger", 1<<20, "scavenge trigger in bytes")
	opportunistic := fs.Bool("opportunistic", false, "also scavenge at trace marks (program quiescent points)")
	pageFrames := fs.Int("pages", 0, "enable the VM model with this many resident 4 KB pages")
	seed := fs.Uint64("seed", 0, "adaptive-policy seed")
	label := fs.String("label", "", "run label (feeds telemetry lines and adaptive seed derivation)")
	telemetry := fs.String("telemetry", "", "write the run's JSON-lines telemetry to FILE (- for stdout)")
	deadlineMs := fs.Int64("deadline-ms", 0, "server-side evaluation deadline in milliseconds (0 = none)")
	jsonOut := fs.Bool("json", false, "print the full eval response JSON instead of the summary")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return &cliio.UsageError{Err: err}
	}
	if err := cliio.Conflicts(fs,
		cliio.Conflict{A: "policy", B: "baseline", Reason: "a run is driven by one or the other"},
		cliio.Conflict{A: "workload", B: "trace", Reason: "choose one event source"},
		cliio.Conflict{A: "scale", B: "trace", Reason: "-scale applies to generated workloads and cannot rescale a recorded trace"},
	); err != nil {
		return err
	}
	if *workloadName == "" && *traceFile == "" {
		return cliio.Usagef("need -workload or -trace")
	}

	req := daemon.EvalRequest{
		Policy:        *policySpec,
		Baseline:      *baseline,
		TriggerBytes:  *trigger,
		PolicySeed:    *seed,
		Opportunistic: *opportunistic,
		PageFrames:    *pageFrames,
		Label:         *label,
		Telemetry:     *telemetry != "",
		DeadlineMs:    *deadlineMs,
	}
	var traceData []byte
	if *traceFile != "" {
		traceData, err = os.ReadFile(*traceFile)
		if err != nil {
			return err
		}
		// Decode locally for the content digest (and to fail fast on a
		// damaged file) — the daemon is only sent bytes it can serve.
		digest, _, derr := dtbgc.DigestTrace(bytes.NewReader(traceData))
		if derr != nil {
			return fmt.Errorf("%s: %w", *traceFile, derr)
		}
		req.TraceDigest = digest
	} else {
		req.Workload = *workloadName
		req.Scale = *scale
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	c := daemon.NewClient(*addr)
	resp, err := c.Eval(ctx, &req)
	var unknown *daemon.UnknownTraceError
	if errors.As(err, &unknown) && traceData != nil {
		// First contact for this trace: ship the bytes, then retry the
		// digest-addressed request.
		if _, uerr := c.UploadTrace(ctx, bytes.NewReader(traceData)); uerr != nil {
			return fmt.Errorf("uploading %s: %w", *traceFile, uerr)
		}
		resp, err = c.Eval(ctx, &req)
	}
	if err != nil {
		return err
	}

	if *telemetry != "" {
		werr := cliio.WriteTo(*telemetry, stdout, nil, func(w io.Writer) error {
			_, werr := io.WriteString(w, resp.Telemetry)
			return werr
		})
		if werr != nil {
			return fmt.Errorf("telemetry: %w", werr)
		}
	}
	return cliio.WriteTo("-", stdout, nil, func(w io.Writer) error {
		if *jsonOut {
			raw, merr := json.MarshalIndent(resp, "", "  ")
			if merr != nil {
				return merr
			}
			_, werr := fmt.Fprintf(w, "%s\n", raw)
			return werr
		}
		var res dtbgc.Result
		if uerr := json.Unmarshal(resp.Result, &res); uerr != nil {
			return fmt.Errorf("decoding result: %w", uerr)
		}
		cliio.PrintSummary(w, &res)
		return nil
	})
}

func runStatus(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dtbd status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7341", `daemon address (HOST:PORT or "unix:PATH")`)
	jsonOut := fs.Bool("json", false, "print the raw metrics snapshot JSON")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return &cliio.UsageError{Err: err}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	c := daemon.NewClient(*addr)
	snap, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	return cliio.WriteTo("-", stdout, nil, func(w io.Writer) error {
		if *jsonOut {
			raw, merr := json.MarshalIndent(snap, "", "  ")
			if merr != nil {
				return merr
			}
			_, werr := fmt.Fprintf(w, "%s\n", raw)
			return werr
		}
		hit := 0.0
		if snap.EvalsServed > 0 {
			hit = 100 * float64(snap.MemoHits) / float64(snap.EvalsServed)
		}
		fmt.Fprintf(w, "uptime:          %.0f s\n", snap.UptimeSeconds)
		fmt.Fprintf(w, "evals served:    %d (%d memo, %d cold of which %d on cached tapes)\n",
			snap.EvalsServed, snap.MemoHits, snap.ColdEvals, snap.TapeHits)
		fmt.Fprintf(w, "memo hit rate:   %.1f%%\n", hit)
		fmt.Fprintf(w, "rejected/failed: %d / %d\n", snap.Rejected, snap.Failed)
		fmt.Fprintf(w, "load:            %d running, %d queued (workers %d, queue %d)\n",
			snap.InFlight, snap.Queued, snap.Workers, snap.QueueDepth)
		fmt.Fprintf(w, "tape cache:      %d traces, %.1f MB\n",
			snap.TapeCacheTraces, float64(snap.TapeCacheBytes)/(1<<20))
		fmt.Fprintf(w, "memo entries:    %d\n", snap.MemoEntries)
		fmt.Fprintf(w, "service p50/p99: %.2f / %.2f ms\n", snap.ServiceP50Ms, snap.ServiceP99Ms)
		return nil
	})
}
