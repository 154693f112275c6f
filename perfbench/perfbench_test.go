package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/edge"
)

// TestSmoke runs every workload at tiny size, timed and traced, and
// checks that each contract metric is emitted under a valid name and
// that the run's correctness checks pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real tiers")
	}
	for _, w := range allWorkloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w, seed: 3, seconds: 1.5, traced: traced, small: true,
				out: filepath.Join(t.TempDir(), "run")}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			var out bytes.Buffer
			res.print(&out)
			if !res.correct() {
				t.Fatalf("%s traced=%v: correctness failed:\n%s", w, traced, out.String())
			}
			line, err := resultLine([]*result{res}, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w, traced, err, out.String())
			}
			var parsed struct {
				Correct   bool
				Attempted int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &parsed); err != nil {
				t.Fatalf("%s: result line %s: %v", w, line, err)
			}
			want := contract(endToEnd)
			if traced {
				want = contract(perLayer)
			}
			if !parsed.Correct || parsed.Attempted < 1 || len(parsed.Metrics) != len(want) {
				t.Fatalf("%s traced=%v: bad result line %s", w, traced, line)
			}
			for _, m := range want {
				got, ok := parsed.Metrics[m.Name]
				if !ok || !nameRE.MatchString(m.Name) || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %q missing or misnamed in %s", w, traced, m.Name, line)
				}
			}
			// Every metric that applies to the workload is in the report.
			list := endToEnd
			if traced {
				list = perLayer
			}
			for _, m := range list {
				if m.appliesTo(w) && !strings.Contains(out.String(), " "+m.Name+" ") {
					t.Errorf("%s traced=%v: report lacks %s:\n%s", w, traced, m.Name, out.String())
				}
			}
			if traced && res.budget == nil {
				t.Errorf("%s: traced run produced no budget row", w)
			}
		}
	}
}

// TestCheckerRejectsMissingUpload feeds the tier checker an acked upload
// the tier never saw.
func TestCheckerRejectsMissingUpload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a real tier")
	}
	s := shapes[wIngest].small()
	gen, err := newPosteriors(5, s)
	if err != nil {
		t.Fatal(err)
	}
	tr, acked, err := startTier(filepath.Join(t.TempDir(), "tier"), s, 5, 5, false, gen)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.close()
	if errs := checkTier(tr, acked, 0, s.dim()); len(errs) != 0 {
		t.Fatalf("clean tier fails its checks: %v", errs)
	}
	ghost := append(append([]dpprior.TaskPosterior(nil), acked...), gen.next())
	errs := checkTier(tr, ghost, 0, s.dim())
	if len(errs) == 0 || !strings.Contains(errs[0].Error(), "missing") {
		t.Fatalf("checker accepted an acked upload missing from the store: %v", errs)
	}
}

// TestAckedGroups: a partly acked batch covers whole shard groups in
// shard order, not the batch's first done tasks.
func TestAckedGroups(t *testing.T) {
	m := &edge.ShardMap{Shards: make([]edge.ShardReplicas, 3)}
	gen, err := newPosteriors(9, shapes[wRounds])
	if err != nil {
		t.Fatal(err)
	}
	batch := gen.batch(30)
	size := make([]int, 3)
	for _, task := range batch {
		size[m.ShardOf(task.Fingerprint())]++
	}
	if size[0] == 0 || size[1] == 0 || size[2] == 0 {
		t.Fatalf("batch does not touch every shard: %v", size)
	}
	// Shard 0 acked, shard 1 failed, shard 2 never sent.
	shard, acked := ackedGroups(m, batch, size[0])
	n := 0
	for k := range batch {
		if acked[k] != (shard[k] == 0) {
			t.Fatalf("task %d on shard %d: acked=%v", k, shard[k], acked[k])
		}
		if acked[k] {
			n++
		}
	}
	if n != size[0] {
		t.Fatalf("acked %d tasks, want %d", n, size[0])
	}
	if _, acked := ackedGroups(m, batch, len(batch)); slices.Contains(acked, false) {
		t.Fatal("a fully acked batch has unacked tasks")
	}
}

// TestCheckerRejectsTamperedPrior: a replica serving different bytes, and
// a merged prior that fails Validate, are both caught.
func TestCheckerRejectsTamperedPrior(t *testing.T) {
	gen, err := newPosteriors(7, shapes[wRounds])
	if err != nil {
		t.Fatal(err)
	}
	p, err := dpprior.Build(gen.batch(30), dpprior.BuildOptions{Alpha: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	same := map[string]*dpprior.Prior{"a": p, "b": clonePrior(t, p)}
	if err := compareReplicas(same); err != nil {
		t.Fatalf("identical replicas rejected: %v", err)
	}
	tampered := clonePrior(t, p)
	tampered.Components[0].Mu[0] += 1e-9
	if err := compareReplicas(map[string]*dpprior.Prior{"a": p, "b": tampered}); err == nil {
		t.Fatal("checker accepted a replica serving a tampered prior")
	}
	broken := clonePrior(t, p)
	broken.Components[0].Weight *= 2
	if err := validMerged(broken); err == nil {
		t.Fatal("checker accepted a merged prior whose weights do not sum to 1")
	}
}

func clonePrior(t *testing.T, p *dpprior.Prior) *dpprior.Prior {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := dpprior.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestManifests: the committed BENCHMARK.json and metrics.json are what
// the metric tables generate, and every name is valid and unique.
func TestManifests(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q invalid or repeated", m.Name)
		}
		seen[m.Name] = true
	}
	for _, c := range []struct {
		path string
		gen  func() ([]byte, error)
	}{{"../BENCHMARK.json", benchmarkJSON}, {"metrics.json", manifestJSON}} {
		want, err := c.gen()
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale; regenerate with: go run . --manifest ..", c.path)
		}
	}
}
