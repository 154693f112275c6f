package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"github.com/drdp/drdp/internal/telemetry"
)

// Binary framing: every message travels as
//
//	[u32 LE payload length][u32 LE IEEE CRC32 of payload][payload]
//
// The length is checked against the receiver's frame limit before any
// allocation, and the CRC before any decoding, so a torn or corrupt
// frame fails the connection instead of producing a half-decoded
// message — the same contract the durable store applies to its log
// records.

// frameHeaderLen is the length+CRC prefix size.
const frameHeaderLen = 8

// bufPool recycles message buffers across connections and short-lived
// encoders, so a dial-heavy workload does not pay a fresh arena per
// connection.
var bufPool = sync.Pool{
	New: func() any { return make([]byte, 0, 4096) },
}

func getBuf() []byte  { return bufPool.Get().([]byte)[:0] }
func putBuf(b []byte) { bufPool.Put(b[:0]) } //nolint:staticcheck // slice header allocation is amortized by reuse

// Encoder writes framed binary messages to w, reusing one grow-only
// buffer across messages.
type Encoder struct {
	w   io.Writer
	buf []byte
}

// NewEncoder returns an Encoder writing framed messages to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w, buf: getBuf()}
}

// Release returns the encoder's buffer to the pool. The encoder must
// not be used afterwards.
func (e *Encoder) Release() {
	if e.buf != nil {
		putBuf(e.buf)
		e.buf = nil
	}
}

// EncodeRequest frames and writes one request.
func (e *Encoder) EncodeRequest(req *Request) error {
	return e.flush(AppendRequest(e.reserve(), req))
}

// EncodeResponse frames and writes one response.
func (e *Encoder) EncodeResponse(resp *Response) error {
	return e.flush(AppendResponse(e.reserve(), resp))
}

// reserve starts a fresh message, leaving room for the frame header.
func (e *Encoder) reserve() []byte {
	if e.buf == nil {
		e.buf = getBuf()
	}
	b := e.buf[:0]
	return append(b, make([]byte, frameHeaderLen)...)
}

// flush backfills the header over the appended payload and writes the
// whole frame in one call, so a message is never split across writes at
// this layer.
func (e *Encoder) flush(b []byte) error {
	e.buf = b // keep the grown buffer even on error
	payload := b[frameHeaderLen:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(payload))
	n, err := e.w.Write(b)
	telemetry.WireBytesOut.Add(float64(n))
	if err != nil {
		return err
	}
	telemetry.WireMsgsOut.Inc()
	return nil
}

// Decoder reads framed binary messages from r, reusing one grow-only
// payload buffer across frames.
type Decoder struct {
	r   io.Reader
	max int64
	buf []byte
	// Reuse makes DecodeRequest/DecodeResponse recycle the payload
	// slices already hanging off the destination message. Only safe when
	// the caller consumes each message fully before reading the next;
	// the production paths retain payloads (tasks go to the store,
	// priors to the cache), so they leave it off.
	Reuse bool
}

// NewDecoder returns a Decoder reading framed messages from r. max
// bounds one frame's payload; <=0 means no limit.
func NewDecoder(r io.Reader, max int64) *Decoder {
	return &Decoder{r: r, max: max, buf: getBuf()}
}

// Release returns the decoder's buffer to the pool. The decoder must
// not be used afterwards.
func (d *Decoder) Release() {
	if d.buf != nil {
		putBuf(d.buf)
		d.buf = nil
	}
}

// next reads one frame and returns its CRC-verified payload, valid
// until the next call.
func (d *Decoder) next() ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		return nil, err // io.EOF between frames means a clean close
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if d.max > 0 && int64(n) > d.max {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, d.max)
	}
	if d.buf == nil {
		d.buf = getBuf()
	}
	if cap(d.buf) < int(n) {
		d.buf = make([]byte, n)
	}
	d.buf = d.buf[:n]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		return nil, fmt.Errorf("wire: truncated frame: %w", err)
	}
	telemetry.WireBytesIn.Add(float64(n + frameHeaderLen))
	if got := crc32.ChecksumIEEE(d.buf); got != want {
		return nil, fmt.Errorf("wire: frame CRC mismatch: got %08x, want %08x", got, want)
	}
	telemetry.WireMsgsIn.Inc()
	return d.buf, nil
}

// DecodeRequest reads and decodes one framed request into req.
func (d *Decoder) DecodeRequest(req *Request) error {
	payload, err := d.next()
	if err != nil {
		return err
	}
	return DecodeRequest(payload, req, d.Reuse)
}

// DecodeResponse reads and decodes one framed response into resp.
func (d *Decoder) DecodeResponse(resp *Response) error {
	payload, err := d.next()
	if err != nil {
		return err
	}
	return DecodeResponse(payload, resp, d.Reuse)
}
