package main

import (
	"bytes"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"zombie/internal/server"
)

// TestShardedRunOverHTTPWorkers is the distributed contract against real
// processes and real sockets: a coordinator zombie-serve fronting two
// worker zombie-serve processes runs a traced spec at shards=2 over the
// http transport, with both workers executing, and its curve and
// quarantine count equal the coordinator's own single-process run of the
// spec. The coordinator's server-wide fault plan reaches the workers
// through the run's engine config. Every worker span comes back over the
// wire stitched under the coordinator's dist.* rpc span for that call, each
// worker.step_batch under an engine batch span, and the cost summary has
// cells for both shards.
func TestShardedRunOverHTTPWorkers(t *testing.T) {
	dir := t.TempDir()
	bin, wiki := buildServer(t, dir), writeWiki(t, dir)
	var workers []string
	for _, name := range []string{"w1", "w2"} {
		base := "http://" + freeAddr(t)
		startServer(t, bin, []string{"-addr", base[len("http://"):], "-corpus", "wiki=" + wiki},
			filepath.Join(dir, name+".log"), base)
		workers = append(workers, base)
	}
	base := "http://" + freeAddr(t)
	startServer(t, bin, []string{"-addr", base[len("http://"):], "-corpus", "wiki=" + wiki,
		"-dist-workers", strings.Join(workers, ","), "-faults", "extract:panic=0.03", "-fault-seed", "4"},
		filepath.Join(dir, "coord.log"), base)

	spec := server.RunSpec{Corpus: "wiki", Task: "wiki", MaxInputs: 150, EvalEvery: 25, Seed: 9}
	single := post[server.RunInfo](t, base+"/runs", spec, http.StatusAccepted).ID
	spec.Shards, spec.Spans = 2, true
	sharded := post[server.RunInfo](t, base+"/runs", spec, http.StatusAccepted).ID
	want, got := await(t, base, single), await(t, base, sharded)

	if got.Transport != "http" || len(got.Workers) != 2 || got.Workers[0].Steps == 0 || got.Workers[1].Steps == 0 {
		t.Fatalf("sharded run: transport %q, workers %+v; want http with 2 busy workers", got.Transport, got.Workers)
	}
	if want.Quarantined == 0 || got.Quarantined != want.Quarantined {
		t.Fatalf("quarantined: single-process %d, sharded %d; want equal and > 0", want.Quarantined, got.Quarantined)
	}
	if a, b := curve(t, base, single), curve(t, base, sharded); !bytes.Equal(a, b) {
		t.Fatalf("sharded curve diverged from single-process:\n%s\nvs\n%s", a, b)
	}

	spans := get[struct {
		Tree []*spanNode `json:"tree"`
		Cost struct {
			Cells []struct {
				Shard int `json:"shard"`
			} `json:"cells"`
		} `json:"cost"`
	}](t, base+"/runs/"+sharded+"/spans")
	var stitched, underBatch int
	var walk func(n, parent, grand *spanNode)
	walk = func(n, parent, grand *spanNode) {
		if strings.HasPrefix(n.Name, "worker.") {
			if parent == nil || parent.Name != "dist."+strings.TrimPrefix(n.Name, "worker.") {
				t.Errorf("span %s is not under its dist.* rpc span", n.Name)
			}
			stitched++
			if n.Name == "worker.step_batch" {
				if grand == nil || grand.Name != "batch" {
					t.Errorf("worker.step_batch is not under a batch span")
				}
				underBatch++
			}
		}
		for _, c := range n.Children {
			walk(c, n, parent)
		}
	}
	for _, root := range spans.Tree {
		walk(root, nil, nil)
	}
	if underBatch == 0 {
		t.Fatalf("no worker.step_batch spans among %d stitched worker spans", stitched)
	}
	shards := map[int]bool{}
	for _, c := range spans.Cost.Cells {
		if c.Shard >= 0 {
			shards[c.Shard] = true
		}
	}
	if len(shards) != 2 {
		t.Fatalf("cost cells cover shards %v, want 0 and 1", shards)
	}
}

// spanNode is the part of a served span tree node the test reads.
type spanNode struct {
	Name     string      `json:"name"`
	Children []*spanNode `json:"children"`
}
