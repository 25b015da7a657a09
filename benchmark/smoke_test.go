package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// serveBinForTests is the zombie-serve binary the smoke test starts, built
// once from the working tree.
var serveBinForTests string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "zombie-benchmark-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serveBinForTests = filepath.Join(dir, "zombie-serve")
	build := exec.Command("go", "build", "-o", serveBinForTests, "./cmd/zombie-serve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build zombie-serve: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestSmokeAllWorkloads runs both passes of all five workloads on a 5%
// corpus: every pass must be correct and report what the catalogue says it
// reports, every child server must be reaped and every temp dir removed.
// The issue asked for 2%; at 400 inputs the holdout holds two positive
// examples and every verdict reads quality 0, which the benchmark rightly
// reports as a failure, so the smoke uses the smallest scale that passes.
func TestSmokeAllWorkloads(t *testing.T) {
	emitted := map[string]bool{}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name + "/untraced"
			if trace {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				work := filepath.Join(t.TempDir(), "work")
				if err := os.Mkdir(work, 0o755); err != nil {
					t.Fatal(err)
				}
				e := newEnv(config{
					workload: w.Name, seed: 1, dataSeed: 20160516, seconds: 0.2, scale: 0.05,
					trace: trace, workDir: work, serveBin: serveBinForTests,
				})
				err := e.run(&w)
				children := e.children
				e.close()
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range children {
					if c.cmd.ProcessState == nil {
						t.Errorf("child %s (pid %d) was not reaped", c.name, c.cmd.Process.Pid)
					}
				}
				if _, err := os.Stat(work); !os.IsNotExist(err) {
					t.Errorf("work directory %s was not removed", work)
				}
				res := e.res
				if res.Failed > 0 || res.Attempted == 0 {
					t.Errorf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Problems)
				}
				if res.CurveHash == "" {
					t.Error("no combined curve hash")
				}
				for n := range res.Metrics {
					emitted[n] = true
				}
				line, err := contractLine(res)
				if err != nil {
					t.Fatal(err)
				}
				var out struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &out); err != nil {
					t.Fatalf("contract line is not JSON: %v\n%s", err, line)
				}
				if !out.Correct || out.Attempted != res.Attempted || out.Failed != 0 {
					t.Errorf("contract line says correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("contract line has %d metrics, want %d", len(out.Metrics), len(want))
				}
				for _, def := range want {
					m, ok := out.Metrics[def.Name]
					if !ok || m.Unit != def.Unit {
						t.Errorf("contract line: metric %s missing or in unit %q, want %q", def.Name, m.Unit, def.Unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v; none may be 0", def.Name, m.Value)
					}
				}
				if !trace {
					return
				}
				traceFile := filepath.Join(t.TempDir(), "trace.json")
				if err := e.tr.writeChrome(traceFile); err != nil {
					t.Fatal(err)
				}
				checkTrace(t, traceFile)
			})
		}
	}
	// Vice versa: every metric the catalogue declares is reported by at
	// least one workload.
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, def := range list {
			if !emitted[def.Name] {
				t.Errorf("no workload reports %s", def.Name)
			}
		}
	}
}

// checkTrace loads a Chrome trace the way a viewer would and checks the
// span tree: a workload root with setup, op and rungs beneath it.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace is not loadable: %v", err)
	}
	byID := map[int]chromeEvent{}
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		byID[ev.Args["id"]] = ev
		names[ev.Name]++
		if ev.Ph != "X" || ev.Dur < 0 {
			t.Errorf("span %s: phase %q duration %v", ev.Name, ev.Ph, ev.Dur)
		}
	}
	for _, want := range []string{"workload", "setup", "corpus.generate", "corpus.write_jsonl", "op", "rungs"} {
		if names[want] == 0 {
			t.Errorf("trace has no %q span", want)
		}
	}
	for _, ev := range doc.TraceEvents {
		parent, ok := byID[ev.Args["parent"]]
		if ev.Args["parent"] == 0 {
			continue
		}
		if !ok {
			t.Errorf("span %s names a parent that was not written", ev.Name)
		} else if ev.Ts < parent.Ts || ev.Ts+ev.Dur > parent.Ts+parent.Dur+1 {
			t.Errorf("span %s is not inside its parent %s", ev.Name, parent.Name)
		}
		if ev.Name != "op" && parent.Name == "op" && ev.Args["run"] != parent.Args["run"] {
			t.Errorf("span %s does not share its op's run id", ev.Name)
		}
	}
}
