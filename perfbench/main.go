// Command perfbench is the repository's served-path benchmark. Its
// end-to-end mode drives real ldpserver processes over loopback with the
// WAL on, from one generator process, and checks every answer against an
// in-process reference; its traced mode replays the same generated inputs
// in-process through each layer's public functions and reports per-layer
// costs from spans. See README.md in this directory.
//
// Usage (from the repository root, through run.sh, which builds both
// binaries):
//
//	bash perfbench/run.sh --workload ingest-bulk --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	server   string
	workdir  string
	stdout   io.Writer
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: ingest-bulk or query-live")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured phase, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced in-process replay reporting per-layer metrics")
	fs.StringVar(&o.server, "server", "", "path to the ldpserver binary under test")
	fs.StringVar(&o.workdir, "workdir", "", "scratch directory for WALs, logs and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !workloads[o.workload] || o.seconds < 1 || o.server == "" || o.workdir == "" || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload (ingest-bulk|query-live), --seconds >= 1, --trace 0|1, -server and -workdir")
		return 2
	}
	o.trace = trace == 1
	// The generator allocates on every request it times (the client
	// library's own allocations); fewer collections of its heap mean
	// fewer stretches where its collector competes with the server for
	// the same CPUs.
	debug.SetGCPercent(400)
	// The server gets the default GOMAXPROCS (nproc). On ingest-bulk the
	// generator runs its two load goroutines on one P: with two Ps its
	// threads and the server's contended for the same vCPUs, and over six
	// pairs of alternated runs every end-to-end spread was about twice
	// that with one P (throughput 0.155 against 0.089), at the same median
	// throughput. query-live keeps the default, under which it was measured
	// steady.
	procs := runtime.GOMAXPROCS(0)
	if !o.trace && o.workload == "ingest-bulk" {
		runtime.GOMAXPROCS(1)
	}
	o.stdout = stdout
	dir := filepath.Join(o.workdir, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := mustDir(dir); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	printMeta(stdout, o, dir, procs)
	var res result
	var err error
	if o.trace {
		res, err = runTraced(o, dir)
	} else {
		res, err = runE2E(o, dir)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if res.Correct || res.Metrics == nil {
			return 1
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "%-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil || !res.Correct {
		return 1
	}
	return 0
}

// printMeta records the machine and configuration a result was measured
// on, as one JSON line ahead of the result. procs is the default
// GOMAXPROCS, which the server runs with.
func printMeta(w io.Writer, o options, dir string, procs int) {
	meta := map[string]any{
		"workload":       o.workload,
		"seed":           o.seed,
		"seconds":        o.seconds,
		"trace":          o.trace,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     procs,
		"gen_gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":      cpuModel(),
		"go_version":     runtime.Version(),
		"wal_fs":         fsType(dir),
		"node_flags":     strings.Join(nodeFlags("<wal>"), " "),
		"load_conns":     loadConns(runtime.NumCPU()),
		"server_default": "shards=GOMAXPROCS, exact query staleness, incremental views, admission on, telemetry on",
	}
	b, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Fprintln(w, string(b))
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding path: the type of the longest
// mount point in /proc/mounts that contains it, plus its magic number.
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	if f, err := os.Open("/proc/mounts"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) < 3 {
				continue
			}
			mp := fields[1]
			if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
				best, typ = mp, fields[2]
			}
		}
		f.Close()
	}
	var st syscall.Statfs_t
	if syscall.Statfs(abs, &st) == nil {
		return fmt.Sprintf("%s (magic 0x%x, mount %s)", typ, st.Type, best)
	}
	return typ
}
