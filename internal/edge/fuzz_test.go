package edge

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/wire"
)

// FuzzHandleRequest drives the server's per-connection handler with
// arbitrary bytes where a client's preamble and request frames belong.
// The seeds are well-formed connections (preamble plus one binary
// request frame), so the fuzzer mutates from inputs that reach request
// dispatch, not only the preamble check. Whatever the bytes decode to —
// a valid request, a half-valid request with hostile field values, or
// garbage — the handler must neither panic nor hang; the worst allowed
// outcome is a dropped connection.
func FuzzHandleRequest(f *testing.F) {
	rng := rand.New(rand.NewSource(900))
	task := seedTasks(rng, 1, 3)[0]
	for _, req := range []Request{
		{Kind: GetPrior, Dim: 3},
		{Kind: GetPrior, Dim: -1, KnownVersion: ^uint64(0)},
		{Kind: GetPriorDelta, Dim: 3, KnownVersion: 1},
		{Kind: ReportTask, Task: &task},
		{Kind: ReportTask},
		{Kind: GetStats},
		{Kind: RequestKind(99)},
		// Trace context on the wire: joined, hostile, and parent-only.
		{Kind: GetPrior, Dim: 3, TraceID: 0xdeadbeef, ParentSpan: 0xfeedface},
		{Kind: ReportTask, Task: &task, TraceID: ^uint64(0), ParentSpan: ^uint64(0)},
		{Kind: GetStats, ParentSpan: 12345},
	} {
		var buf bytes.Buffer
		if err := wire.WritePreamble(&buf); err != nil {
			f.Fatal(err)
		}
		enc := wire.NewEncoder(&buf)
		if err := enc.EncodeRequest(&req); err != nil {
			f.Fatal(err)
		}
		enc.Release()
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x41, 0x41, 0x41, 0x41})
	f.Add([]byte{'D', 'R', 'D', 'W', wire.Version + 1})

	srv, err := NewCloudServer(seedTasks(rng, 4, 3), dpprior.BuildOptions{Alpha: 1, Seed: 7}, telemetry.Discard())
	if err != nil {
		f.Fatal(err)
	}
	srv.WaitCaughtUp()
	f.Cleanup(func() { srv.Close() })

	f.Fuzz(func(t *testing.T, data []byte) {
		server, client := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.handle(server)
		}()
		// Drain whatever the server answers so its encoder never blocks
		// on the unbuffered pipe.
		go io.Copy(io.Discard, client) //nolint:errcheck
		client.SetDeadline(time.Now().Add(2 * time.Second))
		client.Write(data) //nolint:errcheck
		client.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("handler hung on fuzzed input")
		}
	})
}
