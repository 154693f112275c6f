// Package wire is drdp's wire subsystem: the protocol message types
// shared by every tier (edge client, cloud server, shard cluster), the
// versioned fixed-layout binary codec that carries them, and the
// connection preamble that names the protocol version.
//
// # Codec
//
// Every message is encoded in a fixed little-endian layout and framed
// as [u32 length][u32 IEEE CRC32][payload]. There is no reflection on
// either side; message buffers are reused per connection (and pooled
// across short-lived encoders), so steady-state decode performs zero
// allocations for payloads the caller does not retain.
//
// # Preamble
//
// A client opens every connection by writing a 5-byte preamble, once,
// without waiting for an answer:
//
//	['D' 'R' 'D' 'W'][version]
//
// The server reads it before the first request frame. A wrong version
// gets one CodeBadRequest response naming both versions, then the
// connection closes; a wrong magic is not a drdp peer, so the server
// closes without answering.
//
// Message kinds, framing, and the binary layouts are documented on the
// types in this package and in DESIGN.md (S22).
package wire

import (
	"errors"
	"fmt"
	"io"
)

// Version is the wire-protocol version a client announces in its
// preamble. Bump it on any incompatible change to the binary layouts.
const Version = 1

// preambleLen is the on-the-wire preamble size: magic plus version.
const preambleLen = 5

// magic opens every connection's byte stream.
var magic = [4]byte{'D', 'R', 'D', 'W'}

// errBadMagic reports a connection whose first bytes are not a drdp
// preamble.
var errBadMagic = errors.New("wire: bad preamble magic")

// versionError reports a client that speaks a different protocol
// version.
type versionError struct {
	got byte // the version the client announced
}

// versionErrFormat is the text of a version-mismatch answer;
// ReceivedVersion reads it back.
const versionErrFormat = "wire: client speaks protocol version %d, server speaks version %d"

func (e *versionError) Error() string {
	return fmt.Sprintf(versionErrFormat, e.got, Version)
}

// ReceivedVersion reports whether resp is a server's refusal of a
// preamble, and the protocol version the server read from it. A client
// that reads back a version it never sent knows its preamble was
// damaged in transit, not refused.
func ReceivedVersion(resp *Response) (byte, bool) {
	if resp.Code != CodeBadRequest {
		return 0, false
	}
	var got byte
	var server int
	if _, err := fmt.Sscanf(resp.Err, versionErrFormat, &got, &server); err != nil {
		return 0, false
	}
	return got, true
}

// WritePreamble writes the client preamble for this protocol version.
func WritePreamble(w io.Writer) error {
	b := [preambleLen]byte{magic[0], magic[1], magic[2], magic[3], Version}
	_, err := w.Write(b[:])
	return err
}

// AcceptPreamble is the server half of connection setup: it reads the
// client preamble from r. A wrong magic is not a drdp client and gets
// no answer; a wrong version gets one CodeBadRequest response on enc
// naming both versions. Any error — including the read error, io.EOF
// for a peer that closed before sending anything — means the caller
// must close the connection.
func AcceptPreamble(r io.Reader, enc *Encoder) error {
	var b [preambleLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return err
	}
	if [4]byte(b[:4]) != magic {
		return errBadMagic
	}
	if b[4] != Version {
		err := &versionError{got: b[4]}
		_ = enc.EncodeResponse(&Response{Err: err.Error(), Code: CodeBadRequest}) // best effort: the connection closes either way
		return err
	}
	return nil
}
