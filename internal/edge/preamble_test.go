package edge

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/wire"
)

// rawDial opens a bare TCP connection for tests that write the
// preamble by hand.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// readAnswer decodes one response frame and maps it through errOf, as
// Client does.
func readAnswer(t *testing.T, conn net.Conn) error {
	t.Helper()
	dec := wire.NewDecoder(conn, DefaultMaxFrameBytes)
	defer dec.Release()
	var resp Response
	if err := dec.DecodeResponse(&resp); err != nil {
		t.Fatalf("no response frame: %v", err)
	}
	return errOf(&resp)
}

// TestWrongVersionNamesBothVersions: a client of another protocol
// version gets one CodeBadRequest answer that names both versions.
func TestWrongVersionNamesBothVersions(t *testing.T) {
	rng := rand.New(rand.NewSource(240))
	addr, _ := startServer(t, seedTasks(rng, 3, 3))
	conn := rawDial(t, addr)
	if _, err := conn.Write([]byte{'D', 'R', 'D', 'W', wire.Version + 1}); err != nil {
		t.Fatal(err)
	}
	err := readAnswer(t, conn)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeBadRequest {
		t.Fatalf("wrong version answered %v, want a CodeBadRequest *ServerError", err)
	}
	for _, v := range []int{wire.Version + 1, wire.Version} {
		if !strings.Contains(se.Msg, fmt.Sprintf("version %d", v)) {
			t.Errorf("error %q does not name version %d", se.Msg, v)
		}
	}
}

// TestWrongMagicClosesSilently: bytes that are not a drdp preamble get
// no answer at all — the server just closes — and count as one decode
// error.
func TestWrongMagicClosesSilently(t *testing.T) {
	rng := rand.New(rand.NewSource(241))
	addr, _ := startServer(t, seedTasks(rng, 3, 3))
	before := telemetry.ServerDecodeErrors.Value()
	conn := rawDial(t, addr)
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(conn)
	if err != nil && !errors.Is(err, net.ErrClosed) && !strings.Contains(err.Error(), "reset") {
		t.Fatalf("reading after wrong magic: %v", err)
	}
	if len(reply) != 0 {
		t.Fatalf("wrong magic got a %d-byte reply, want none", len(reply))
	}
	if got := telemetry.ServerDecodeErrors.Value() - before; got != 1 {
		t.Errorf("decode errors moved by %v, want 1", got)
	}
}

// TestShedAfterPreamble: a connection over MaxConns still has its
// preamble read, then gets the retryable CodeOverloaded answer.
func TestShedAfterPreamble(t *testing.T) {
	rng := rand.New(rand.NewSource(242))
	addr, _ := startServerCfg(t, seedTasks(rng, 3, 3), func(s *CloudServer) {
		s.MaxConns = 1
	})
	holder, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if _, err := holder.Stats(); err != nil {
		t.Fatal(err)
	}

	conn := rawDial(t, addr)
	if err := wire.WritePreamble(conn); err != nil {
		t.Fatal(err)
	}
	enc := wire.NewEncoder(conn)
	defer enc.Release()
	if err := enc.EncodeRequest(&Request{Kind: GetStats}); err != nil {
		t.Fatal(err)
	}
	if err := readAnswer(t, conn); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-cap request answered %v, want ErrOverloaded", err)
	}
}

// TestDialCloseLeavesNoHandler: a client that dials and closes without
// a request must not leave its server handler behind (the handler sees
// EOF after the preamble, long before the idle deadline).
func TestDialCloseLeavesNoHandler(t *testing.T) {
	rng := rand.New(rand.NewSource(243))
	addr, srv := startServer(t, seedTasks(rng, 3, 3))
	accepted := telemetry.ServerConnsTotal.Value()
	const dials = 5
	for i := 0; i < dials; i++ {
		c, err := Dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	// Bounded poll: handlers exit asynchronously after the client's FIN;
	// 5 s is far under the 2-minute idle deadline that would otherwise
	// reclaim them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.lnMu.Lock()
		open := len(srv.conns)
		srv.lnMu.Unlock()
		if open == 0 && telemetry.ServerConnsTotal.Value()-accepted >= dials {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d server handlers still running after their clients closed", open)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
