package experiment

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/wire"
)

// Table16WireSpeed measures the binary wire codec at two levels:
//
//   - Micro: encode/decode ns/op and allocs/op for the two hot messages
//     (a batched upload request, a prior response). The decode rows
//     must show 0 allocs/op — the codec's core promise, also gated by
//     TestBinaryDecodeAllocBudget in internal/wire.
//   - End to end: upload rounds/sec against a REAL cloud server on
//     loopback with 1000 devices (reduced in fast mode). Devices share
//     a handful of connections, one goroutine per connection, and each
//     round ships as one BatchAddTask frame per connection.
func Table16WireSpeed(cfg RunConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	tab := &Table{
		Title:   "Table 16: wire subsystem — fixed-layout binary codec (micro + end-to-end)",
		Columns: []string{"bench", "metric", "allocs/op"},
	}
	const dim = 8

	// ----- micro: the hot upload request and the hot download response.
	req := &wire.Request{Kind: wire.BatchAddTask, Tasks: wireTasks(cfg.Seed, 16, dim)}
	prior, err := dpprior.Build(wireTasks(cfg.Seed+1, 40, dim), dpprior.BuildOptions{Alpha: 1, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("table16: build prior: %w", err)
	}
	resp := &wire.Response{Prior: prior, Version: 1}

	micro := []struct {
		name  string
		bench func(b *testing.B)
	}{
		{
			name: "encode batch(16 tasks)",
			bench: func(b *testing.B) {
				var buf []byte
				for i := 0; i < b.N; i++ {
					buf = wire.AppendRequest(buf[:0], req)
				}
			},
		},
		{
			name: "decode batch(16 tasks)",
			bench: func(b *testing.B) {
				payload := wire.AppendRequest(nil, req)
				var out wire.Request
				if err := wire.DecodeRequest(payload, &out, true); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := wire.DecodeRequest(payload, &out, true); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			name: "encode prior response",
			bench: func(b *testing.B) {
				var buf []byte
				for i := 0; i < b.N; i++ {
					buf = wire.AppendResponse(buf[:0], resp)
				}
			},
		},
		{
			name: "decode prior response",
			bench: func(b *testing.B) {
				payload := wire.AppendResponse(nil, resp)
				var out wire.Response
				if err := wire.DecodeResponse(payload, &out, true); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := wire.DecodeResponse(payload, &out, true); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
	}
	for _, m := range micro {
		r := testing.Benchmark(m.bench)
		tab.AddRow(m.name,
			fmt.Sprintf("%d ns/op", r.NsPerOp()),
			fmt.Sprintf("%d", r.AllocsPerOp()))
	}

	// ----- end to end: a device fleet uploading rounds against a real
	// server.
	devices, conns, rounds := 1000, 32, 4
	if cfg.Fast {
		devices, conns, rounds = 64, 8, 3
	}
	var rps []float64
	for _, seed := range Seeds(cfg.Seed, cfg.Reps) {
		r, err := wireE2E(devices, conns, rounds, dim, seed)
		if err != nil {
			return nil, fmt.Errorf("table16: e2e seed=%d: %w", seed, err)
		}
		rps = append(rps, r)
	}
	tab.AddRow(fmt.Sprintf("e2e upload (%d devices)", devices),
		fmt.Sprintf("%.1f rounds/s", Aggregate(rps).Mean), "-")
	return tab, nil
}

// wireTasks generates a deterministic device workload.
func wireTasks(seed int64, k, dim int) []dpprior.TaskPosterior {
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]dpprior.TaskPosterior, k)
	for i := range tasks {
		mu := make(mat.Vec, dim)
		for j := range mu {
			mu[j] = rng.NormFloat64()
		}
		sigma := mat.Eye(dim)
		sigma.ScaleBy(0.1)
		tasks[i] = dpprior.TaskPosterior{Mu: mu, Sigma: sigma, N: 100}
	}
	return tasks
}

// wireE2E runs one upload workload against a real cloud server on
// loopback and returns rounds/sec: each round every connection ships
// its devices' tasks as one batched frame, then the prior is refreshed
// once (the read path), tolerating a cold cloud while the first rebuild
// is in flight.
func wireE2E(devices, conns, rounds, dim int, seed int64) (float64, error) {
	srv, err := edge.NewCloudServer(nil, dpprior.BuildOptions{Alpha: 1, Seed: seed}, telemetry.Discard())
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	addrCh := make(chan string, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe("127.0.0.1:0", addrCh) }()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-serveErr:
		return 0, err
	}

	tasks := wireTasks(seed+1, devices, dim)
	clients := make([]*edge.Client, conns)
	for i := range clients {
		c, err := edge.Dial(addr, 2*time.Second)
		if err != nil {
			return 0, err
		}
		defer c.Close()
		clients[i] = c
	}
	start := time.Now()
	for r := 0; r < rounds; r++ {
		errCh := make(chan error, conns)
		var wg sync.WaitGroup
		for ci, c := range clients {
			wg.Add(1)
			go func(c *edge.Client, batch []dpprior.TaskPosterior) {
				defer wg.Done()
				if _, _, err := c.BatchReportTasks(batch); err != nil {
					errCh <- err
				}
			}(c, tasks[ci*devices/conns:(ci+1)*devices/conns])
		}
		wg.Wait()
		close(errCh)
		if err := <-errCh; err != nil {
			return 0, err
		}
		if _, _, err := clients[0].FetchPrior(dim); err != nil && !errors.Is(err, edge.ErrNoPrior) {
			return 0, err
		}
	}
	return float64(rounds) / time.Since(start).Seconds(), nil
}
