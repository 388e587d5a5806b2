// Command livebench is the end-to-end benchmark of scalamedia. It drives n
// Nodes in one process through the public API only (Start, Send, Publish,
// Fetch, OnEvent, Snapshot) over the in-process fabric or UDP loopback,
// checks every output, and prints one metric per line followed by a JSON
// summary as the last line of standard output.
//
//	livebench --workload flood-inproc --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced pass. --trace 1
// runs the untraced pass and then a traced pass, which times and counts
// the calls into each layer from outside (a wrapping transport.Endpoint,
// timed Node calls, sampled snapshots), prints the per-layer metrics, each
// one's share of the end-to-end metric it should move, the tracing
// overhead, and writes the span log. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("livebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "workload seed: fabric loss decisions, payload and object bytes")
	seconds := fs.Int("seconds", 10, "length of the measured phase of one pass")
	trace := fs.Int("trace", 0, "1 adds a traced pass and prints per-layer metrics")
	outDir := fs.String("out", ".bench_build", "directory for the result record and span log")
	commit := fs.String("commit", "unknown", "source revision to stamp on every result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected := workloads
	if *name != "all" {
		selected = nil
		if w := findWorkload(*name); w != nil {
			selected = []*workload{w}
		}
	}
	if len(selected) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "livebench: need --workload (%s or all), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	for _, w := range selected {
		if code := runWorkload(w, *seed, *seconds, *trace, *outDir, *commit, stdout, stderr); code != 0 {
			return code
		}
	}
	return 0
}

// runWorkload runs one workload's untraced pass, and its traced pass when
// trace is 1, and prints the report ending in the JSON summary line.
func runWorkload(w *workload, seed int64, seconds, trace int, outDir, commit string, stdout, stderr io.Writer) int {
	dur := time.Duration(seconds) * time.Second
	st := newStamp(w, seed, commit)
	fmt.Fprintf(stdout, "livebench %s seed=%d seconds=%d trace=%d\n", w.name, seed, seconds, trace)
	fmt.Fprintf(stdout, "stamp nproc=%d gomaxprocs=%d goarch=%s go=%s transport=%s seed=%d commit=%s\n",
		st.NProc, st.GOMAXPROCS, st.GOARCH, st.GoVersion, st.Transport, st.Seed, st.Commit)

	plain, err := runPass(w, seed, dur, nil)
	if err != nil {
		fmt.Fprintf(stderr, "livebench: %s: %v\n", w.name, err)
		return 1
	}
	e2e := endToEnd(w, plain)
	printMetrics(stdout, "e2e", e2e)
	rec := record{Stamp: st, Workload: w.name, Trace: trace, EndToEnd: e2e}
	attempted, failed := plain.ops, plain.fails.ops(w.opsPerCall())

	summary := pick(e2e, summaryE2E)
	causes := fmt.Sprintf("untraced=%+v", plain.fails)
	if trace == 1 {
		tr := newTracer(spanEvery(w, dur))
		traced, err := runPass(w, seed, dur, tr)
		if err != nil {
			fmt.Fprintf(stderr, "livebench: %s traced: %v\n", w.name, err)
			return 1
		}
		te2e := endToEnd(w, traced)
		layers := perLayer(w, traced, tr, te2e)
		printMetrics(stdout, "traced-e2e", te2e)
		printOverhead(stdout, e2e, te2e)
		printLayers(stdout, layers)
		rec.Traced, rec.PerLayer = te2e, layers
		attempted += traced.ops
		failed += traced.fails.ops(w.opsPerCall())
		summary = pick(layers, summaryLayers)
		causes += fmt.Sprintf(" traced=%+v", traced.fails)

		spanPath := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := os.MkdirAll(filepath.Dir(spanPath), 0o755); err != nil {
			fmt.Fprintf(stderr, "livebench: %v\n", err)
			return 1
		}
		if err := tr.write(spanPath); err != nil {
			fmt.Fprintf(stderr, "livebench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %s (%d kept, %d dropped; message spans for 1 in %d messages)\n", spanPath, len(tr.spans), tr.dropped, tr.every)
	}
	failed = min(failed, attempted)
	rec.Attempted, rec.Failed = attempted, failed
	rec.Failures = causes
	fmt.Fprintf(stdout, "checks attempted=%d failed=%d error_rate=%.6f %s\n",
		attempted, failed, float64(failed)/float64(max(attempted, 1)), causes)

	resPath := filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, trace))
	if err := writeRecord(resPath, rec); err != nil {
		fmt.Fprintf(stderr, "livebench: write result: %v\n", err)
		return 1
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for _, m := range summary {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0 && attempted > 0, max(attempted, 1), failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "livebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// spanEvery picks the message sampling rate for spans so a traced pass
// keeps roughly 2000 sampled messages whatever its rate; each carries
// one span per delivery plus the transport calls under its Send.
func spanEvery(w *workload, dur time.Duration) uint32 {
	perSec := w.rate * float64(w.senders)
	if w.rate == 0 {
		perSec = 80_000 // closed loop: above any rate seen on a 2-vCPU host
	}
	return uint32(max(1, perSec*dur.Seconds()/2000))
}

// stamp identifies the host and build a result came from.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	GOOS       string `json:"goos"`
	GoVersion  string `json:"go_version"`
	Transport  string `json:"transport"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
}

func newStamp(w *workload, seed int64, commit string) stamp {
	return stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		GOOS:       runtime.GOOS,
		GoVersion:  runtime.Version(),
		Transport:  w.transport(),
		Seed:       seed,
		Commit:     commit,
	}
}

// record is the full result of one invocation, written next to the span
// log so every figure keeps its host and seed.
type record struct {
	Stamp     stamp    `json:"stamp"`
	Workload  string   `json:"workload"`
	Trace     int      `json:"trace"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  string   `json:"failures"`
	EndToEnd  []metric `json:"end_to_end"`
	Traced    []metric `json:"traced_end_to_end,omitempty"`
	PerLayer  []metric `json:"per_layer,omitempty"`
}

func writeRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
