package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"zombie/internal/corpus"
	"zombie/internal/rng"
	"zombie/internal/server"
)

// TestKillResumesRunAndVersion is the durable control plane's resume
// contract against the real binary and a real SIGKILL: a -state-dir
// server is killed while a run and a session version are both mid-curve;
// the restarted process re-queues both from its journal and finishes
// them, each reports recovered >= 1, and each curve is byte-identical to
// a fresh submission of the same work. The server-wide extract:lat fault
// stretches both so the kill lands mid-flight; latency faults never change
// results.
func TestKillResumesRunAndVersion(t *testing.T) {
	dir := t.TempDir()
	bin, wiki := buildServer(t, dir), writeWiki(t, dir)
	base := "http://" + freeAddr(t)
	args := []string{"-addr", base[len("http://"):], "-corpus", "wiki=" + wiki, "-state-dir", filepath.Join(dir, "state"),
		"-workers", "2", "-faults", "extract:lat=3ms", "-log-format", "json"}

	runSpec := server.RunSpec{Corpus: "wiki", Task: "wiki", MaxInputs: 400, EvalEvery: 10}
	sessionSpec := server.SessionSpec{Corpus: "wiki", Task: "wiki", K: 8, Seed: 3, MaxInputs: 400, EvalEvery: 10}
	recipe := map[string]any{"name": "rec", "parts": []map[string]any{
		{"name": "base", "kind": "wiki", "version": 2},
		{"name": "mid", "kind": "wiki", "version": 4, "deps": []string{"base"}},
	}}

	first := startServer(t, bin, args, filepath.Join(dir, "serve1.log"), base)
	run := post[server.RunInfo](t, base+"/runs", runSpec, http.StatusAccepted).ID
	sess := post[server.SessionInfo](t, base+"/sessions", sessionSpec, http.StatusCreated).ID
	post[map[string]any](t, base+"/sessions/"+sess+"/runs", recipe, http.StatusAccepted)
	version := sess + ".v1"
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, v := get[server.RunInfo](t, base+"/runs/"+run), get[server.RunInfo](t, base+"/runs/"+version)
		if r.State == server.StateRunning && v.State == server.StateRunning && r.CurvePoints >= 2 && v.CurvePoints >= 2 {
			break
		}
		if time.Now().After(deadline) || terminal(r.State) || terminal(v.State) {
			t.Fatalf("never caught both mid-curve: run %s at %d points, version %s at %d points",
				r.State, r.CurvePoints, v.State, v.CurvePoints)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := first.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	first.Wait() //nolint:errcheck // killed on purpose

	startServer(t, bin, args, filepath.Join(dir, "serve2.log"), base)
	for _, id := range []string{run, version} {
		if info := await(t, base, id); info.Recovered < 1 {
			t.Fatalf("%s finished with recovered = %d, want >= 1", id, info.Recovered)
		}
	}
	metrics := get[map[string]float64](t, base+"/metrics")
	if metrics["runs_recovered"] < 1 || metrics["versions_recovered"] < 1 {
		t.Fatalf("runs_recovered = %v, versions_recovered = %v, want both >= 1",
			metrics["runs_recovered"], metrics["versions_recovered"])
	}

	freshRun := post[server.RunInfo](t, base+"/runs", runSpec, http.StatusAccepted).ID
	freshSess := post[server.SessionInfo](t, base+"/sessions", sessionSpec, http.StatusCreated).ID
	post[map[string]any](t, base+"/sessions/"+freshSess+"/runs", recipe, http.StatusAccepted)
	for resumed, fresh := range map[string]string{run: freshRun, version: freshSess + ".v1"} {
		await(t, base, fresh)
		if a, b := curve(t, base, resumed), curve(t, base, fresh); !bytes.Equal(a, b) {
			t.Fatalf("resumed %s curve diverged from a fresh submission:\n%s\nvs\n%s", resumed, a, b)
		}
	}
}

// buildServer builds this package's binary into dir, passing flags
// (e.g. -ldflags) to go build.
func buildServer(t *testing.T, dir string, flags ...string) string {
	t.Helper()
	bin := filepath.Join(dir, "zombie-serve")
	args := append(append([]string{"build", "-o", bin}, flags...), ".")
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("build zombie-serve: %v\n%s", err, out)
	}
	return bin
}

// writeWiki writes a 600-page wiki corpus into dir and returns its path.
func writeWiki(t *testing.T, dir string) string {
	t.Helper()
	gen := corpus.DefaultWikiConfig()
	gen.N = 600
	ins, err := corpus.GenerateWiki(gen, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	wiki := filepath.Join(dir, "wiki.jsonl")
	if err := corpus.WriteJSONL(wiki, ins); err != nil {
		t.Fatal(err)
	}
	return wiki
}

// freeAddr returns a loopback address nothing is listening on.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// startServer starts the binary with its output in logPath, waits for
// /healthz, and stops it with SIGINT when the test ends (a no-op on a
// process the test already killed).
func startServer(t *testing.T, bin string, args []string, logPath, base string) *exec.Cmd {
	t.Helper()
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Signal(os.Interrupt) //nolint:errcheck // may already be gone
			cmd.Wait()                       //nolint:errcheck // exit status is not under test
		}
		logFile.Close()
		if t.Failed() {
			out, _ := os.ReadFile(logPath)
			t.Logf("%s:\n%s", filepath.Base(logPath), out)
		}
	})
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			return cmd
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never came up", bin)
		}
	}
}

// await polls the run until it is terminal and requires it to end done.
func await(t *testing.T, base, id string) server.RunInfo {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if info := get[server.RunInfo](t, base+"/runs/"+id); terminal(info.State) {
			if info.State != server.StateDone {
				t.Fatalf("%s ended %s: %s", id, info.State, info.Error)
			}
			return info
		}
	}
	t.Fatalf("%s never finished", id)
	return server.RunInfo{}
}

func terminal(s server.RunState) bool {
	return s == server.StateDone || s == server.StateFailed || s == server.StateCancelled
}

// curve returns the run's learning curve as served, byte for byte.
func curve(t *testing.T, base, id string) []byte {
	t.Helper()
	return get[struct {
		Curve json.RawMessage `json:"curve"`
	}](t, base+"/runs/"+id+"/curve").Curve
}

func get[T any](t *testing.T, url string) T {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return decode[T](t, resp, http.StatusOK)
}

func post[T any](t *testing.T, url string, body any, status int) T {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return decode[T](t, resp, status)
}

func decode[T any](t *testing.T, resp *http.Response, status int) T {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v T
	if resp.StatusCode != status {
		t.Fatalf("%s %s: status %d, want %d: %s", resp.Request.Method, resp.Request.URL, resp.StatusCode, status, raw)
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("%v: %s", err, raw)
	}
	return v
}
