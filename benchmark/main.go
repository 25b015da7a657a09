// Command benchmark is the repository's performance benchmark: five
// paper-scale workloads, six end-to-end metrics and a per-package ladder,
// all measured from outside the program under test — by timing calls into
// public functions, by driving real zombie-serve child processes over
// loopback HTTP, and by reading outputs the program already publishes.
//
// One invocation with -workload is one pass over one workload and prints,
// as the last line of standard output, the JSON object BENCHMARK.json's
// contract asks for. Without -workload it runs every workload in a child
// process of its own, untraced and then traced, and prints the full report;
// -selfcheck runs the untraced set twice and compares the two.
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"zombie/internal/buildinfo"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

type options struct {
	workload, workloads string
	seed, dataSeed      int64
	seconds, scale      float64
	trace               int
	out, traceOut       string
	serveBin            string
	selfcheck           bool
	repeat              int
	printSpec           bool
}

func run() error {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one pass over this workload and print the contract's JSON line")
	flag.StringVar(&o.workloads, "workloads", "", "comma-separated workloads for the full report (default: all)")
	flag.Int64Var(&o.seed, "seed", 1, "pass seed: shuffles the order in which a pass walks its workload's run specs")
	flag.Int64Var(&o.dataSeed, "data-seed", 20160516, "derives every corpus, split, index and engine seed; reported runs use the default, another value validates a claim on data it was not written on")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of each measured window")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics with spans on")
	flag.Float64Var(&o.scale, "scale", 1, "corpus scale; for smoke tests only, reported runs use 1")
	flag.StringVar(&o.out, "out", "", "write the full report as JSON to this file")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans as Chrome trace-event JSON (report mode: a directory, one file per workload)")
	flag.StringVar(&o.serveBin, "serve-bin", "", "zombie-serve binary to start (default: built from the working tree)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "A/A check: run the untraced set twice and fail if they disagree beyond the bounds")
	flag.IntVar(&o.repeat, "repeat", 1, "with -selfcheck: runs per workload in each set, each with another seed; 10 reproduces the acceptance procedure")
	flag.BoolVar(&o.printSpec, "print-spec", false, "print BENCHMARK.json as the catalogue declares it and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.printSpec {
		b, err := specJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	if o.seconds <= 0 || o.scale <= 0 || o.scale > 1 {
		return fmt.Errorf("-seconds must be positive and -scale in (0,1]")
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if o.workload != "" {
		return runPass(root, o)
	}
	return runReport(root, o)
}

// repoRoot finds the checkout: the benchmark runs from the root (the
// driver's contract) or from its own directory (go run -C benchmark .).
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "zombie-serve", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cannot find the repository (cmd/zombie-serve) from %s", wd)
}

// buildDir holds everything the benchmark writes: binaries, temp dirs.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildServe compiles zombie-serve from the working tree, so the children
// always match the commit under test. Compile time is not part of setup_s.
func buildServe(root string) (string, error) {
	bin := filepath.Join(buildDir(root), "bin", "zombie-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/zombie-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build zombie-serve: %v\n%s", err, out)
	}
	return bin, nil
}

func needsServe(workload string) bool {
	return workload == "serve_verdict" || workload == "dist_exhaust"
}

// runPass is one invocation under the driver's contract.
func runPass(root string, o options) error {
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	cfg := config{
		workload: o.workload, seed: o.seed, dataSeed: o.dataSeed, seconds: o.seconds,
		trace: o.trace == 1, scale: o.scale, serveBin: o.serveBin, traceOut: o.traceOut,
	}
	if cfg.serveBin == "" && needsServe(o.workload) {
		bin, err := buildServe(root)
		if err != nil {
			return err
		}
		cfg.serveBin = bin
	}
	tmp := filepath.Join(buildDir(root), "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	var err error
	if cfg.workDir, err = os.MkdirTemp(tmp, o.workload+"-"); err != nil {
		return err
	}
	res, err := execute(w, cfg)
	if err != nil {
		return err
	}
	printPass(res)
	detail, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("#detail %s\n", detail)
	line, err := contractLine(res)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d operations failed a check", res.Failed, res.Attempted)
	}
	return nil
}

// execute runs one pass and always reaps its children and removes its work
// directory, also when interrupted.
func execute(w *workloadDef, cfg config) (*result, error) {
	e := newEnv(cfg)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sig; ok {
			e.close()
			os.Exit(130)
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(sig)
		e.close()
	}()
	if err := e.run(w); err != nil {
		return nil, err
	}
	if e.tr != nil && cfg.traceOut != "" {
		if err := e.tr.writeChrome(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	return e.res, nil
}

// passMetrics lists the metrics a pass reports: every end-to-end metric
// untraced, every per-layer metric traced; a layer not exercised reads 0.
func passMetrics(res *result) []metricDef {
	if res.Trace {
		return perLayer
	}
	return endToEnd
}

// contractLine renders the last line of standard output.
func contractLine(res *result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, def := range passMetrics(res) {
		m, ok := res.Metrics[def.Name]
		if !ok && !res.Trace {
			return "", fmt.Errorf("%s did not report %s", res.Workload, def.Name)
		}
		metrics[def.Name] = value{m.Value, def.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted,
		"failed": res.Failed, "metrics": metrics,
	})
	return string(b), err
}

func printPass(res *result) {
	_, commit := buildinfo.Resolve()
	pass := "untraced"
	if res.Trace {
		pass = "traced"
	}
	fmt.Printf("workload %s (%s) seed %d data-seed %d window %.2fs  gomaxprocs %d nproc %d %s commit %s\n",
		res.Workload, pass, res.Seed, res.DataSeed, res.WindowS, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit)
	if strings.HasSuffix(commit, "+dirty") {
		fmt.Println("warning: built from a modified working tree (+dirty)")
	}
	for _, def := range passMetrics(res) {
		m := res.Metrics[def.Name]
		if res.Trace && m.N == 0 && m.Value == 0 {
			continue // layer not exercised by this workload
		}
		fmt.Printf("  %-34s %16.6g %-9s n=%d\n", def.Name, m.Value, def.Unit, m.N)
	}
	fmt.Printf("  curve hash %s  attempted %d failed %d\n", res.CurveHash, res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Println("  FAILED:", p)
	}
}

// --- report and self-check: every workload in a child process of its own ---

// childPass runs one pass in a child process of this binary, so peak RSS
// and GC state do not leak between workloads, and returns its result.
func childPass(o options, workload string, seed int64, trace int, traceOut string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(seed), "-data-seed", fmt.Sprint(o.dataSeed),
		"-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(trace), "-scale", fmt.Sprint(o.scale), "-serve-bin", o.serveBin,
	}
	if traceOut != "" {
		args = append(args, "-trace-out", traceOut)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "#detail "); ok {
			var res result
			if err := json.Unmarshal([]byte(rest), &res); err != nil {
				return nil, err
			}
			return &res, nil
		}
	}
	return nil, fmt.Errorf("%s pass printed no result: %v", workload, runErr)
}

func selectedWorkloads(o options) ([]string, error) {
	var names []string
	if o.workloads == "" {
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		return names, nil
	}
	for _, n := range strings.Split(o.workloads, ",") {
		if findWorkload(n) == nil {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		names = append(names, n)
	}
	return names, nil
}

// reportedMetric is one metric of the report's JSON, with everything a
// reader needs to judge it.
type reportedMetric struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	N      int     `json:"n"`
}

type reportedWorkload struct {
	Name      string           `json:"name"`
	CurveHash string           `json:"curve_hash"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	EndToEnd  []reportedMetric `json:"end_to_end"`
	PerLayer  []reportedMetric `json:"per_layer"`
}

func reported(res *result) []reportedMetric {
	var out []reportedMetric
	for _, def := range passMetrics(res) {
		m := res.Metrics[def.Name]
		out = append(out, reportedMetric{def.Name, m.Value, def.Unit, def.Better, def.Bound, m.N})
	}
	return out
}

func runReport(root string, o options) error {
	names, err := selectedWorkloads(o)
	if err != nil {
		return err
	}
	if o.serveBin == "" {
		if o.serveBin, err = buildServe(root); err != nil {
			return err
		}
	}
	if o.selfcheck {
		return runSelfcheck(o, names)
	}
	if o.traceOut != "" {
		if err := os.MkdirAll(o.traceOut, 0o755); err != nil {
			return err
		}
	}
	_, commit := buildinfo.Resolve()
	report := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"go": runtime.Version(), "commit": commit,
		"seed": o.seed, "data_seed": o.dataSeed, "seconds": o.seconds, "scale": o.scale,
	}
	var list []reportedWorkload
	failed := 0
	for _, name := range names {
		untraced, err := childPass(o, name, o.seed, 0, "")
		if err != nil {
			return err
		}
		printPass(untraced)
		traceFile := ""
		if o.traceOut != "" {
			traceFile = filepath.Join(o.traceOut, name+".trace.json")
		}
		traced, err := childPass(o, name, o.seed, 1, traceFile)
		if err != nil {
			return err
		}
		printPass(traced)
		failed += untraced.Failed + traced.Failed
		list = append(list, reportedWorkload{
			Name: name, CurveHash: untraced.CurveHash,
			Attempted: untraced.Attempted + traced.Attempted, Failed: untraced.Failed + traced.Failed,
			EndToEnd: reported(untraced), PerLayer: reported(traced),
		})
	}
	report["workloads"] = list
	if o.out != "" {
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed a check", failed)
	}
	return nil
}

// runSelfcheck is the A/A check: two sets of untraced passes of the same
// binary must agree within the bounds the catalogue fixes, and counts made
// by the program must match exactly. With -repeat N each set runs every
// workload N times, each with another seed, and the spread of each metric —
// the distance between its quartiles as a share of its median — is printed
// beside its bound and must stay within it.
func runSelfcheck(o options, names []string) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	bad := 0
	for set := range sets {
		for _, name := range names {
			for r := 0; r < o.repeat; r++ {
				res, err := childPass(o, name, o.seed+int64(r), 0, "")
				if err != nil {
					return err
				}
				if res.Failed > 0 {
					fmt.Printf("FAIL %s seed %d: %d operations failed: %v\n", name, res.Seed, res.Failed, res.Problems)
					bad++
				}
				for _, def := range endToEnd {
					k := key{name, def.Name}
					sets[set][k] = append(sets[set][k], res.Metrics[def.Name].Value)
				}
			}
		}
	}
	fmt.Printf("%-14s %-22s %14s %14s %9s %9s %7s\n", "workload", "metric", "median A", "median B", "worse by", "spread", "bound")
	for _, name := range names {
		for _, def := range endToEnd {
			a, b := sets[0][key{name, def.Name}], sets[1][key{name, def.Name}]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if def.Better == "higher" {
				worse = -worse
			}
			spread := max(iqrShare(a), iqrShare(b))
			verdict := "ok"
			switch {
			case def.exact && !equalSorted(a, b):
				verdict = "FAIL: a count differs between the two sets"
			case worse > def.Bound:
				verdict = "FAIL: second set worse than the bound"
			case o.repeat >= 4 && def.Name != "setup_s" && spread > def.Bound:
				verdict = "FAIL: spread wider than the bound"
			case o.repeat >= 4 && def.Name != "setup_s" && spread > def.Bound/3:
				verdict = "ok (spread above a third of the bound)"
			}
			if strings.HasPrefix(verdict, "FAIL") {
				bad++
			}
			fmt.Printf("%-14s %-22s %14.6g %14.6g %8.2f%% %8.2f%% %6.0f%%  %s\n",
				name, def.Name, ma, mb, 100*worse, 100*spread, 100*def.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("self-check failed on %d counts", bad)
	}
	return nil
}

func equalSorted(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = sorted(a), sorted(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
