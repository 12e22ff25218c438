// Package collect implements the HEALERS central collection service:
// wrapped applications ship their self-describing XML documents to a
// server which stores them for later processing ("the collection code is
// called to send the gathered information to a central server", §2.3).
//
// The wire protocol is deliberately simple: a TCP connection carries one
// or more documents, each prefixed by a 4-byte big-endian length. The
// server sniffs each document's kind from its root element — nothing else
// is needed, the documents are self-describing.
//
// The package is built for fleet-scale ingest: the server tracks its
// connections (so Close returns promptly even with idle clients), bounds
// both concurrent connections and retained documents, and folds profile
// documents into a streaming aggregate at ingest time so repeated
// aggregation queries never re-parse stored XML. The client side offers a
// persistent Client with exponential-backoff retry and an asynchronous
// bounded Spooler that buffers documents while the collector is
// unreachable and replays them on reconnect.
package collect

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"healers/internal/xmlrep"
)

// MaxDocSize bounds one uploaded document; larger uploads are rejected to
// keep a misbehaving client from exhausting the server.
const MaxDocSize = 16 << 20

// Received is one stored document.
type Received struct {
	// Seq is the server-assigned ingest sequence number, strictly
	// increasing across the server's lifetime (eviction never reuses a
	// number). DocsSince uses it as a cursor.
	Seq uint64
	// From is the uploading peer's address.
	From string
	// Kind is the sniffed document kind.
	Kind xmlrep.DocKind
	// Data is the raw XML.
	Data []byte
	// At is the server receive time.
	At time.Time
}

// WriteFrame writes one length-prefixed document — the wire protocol's
// only frame shape, shared by uploads, requests, and responses. The
// server-side read lives in Server.handle, where the idle and per-frame
// deadlines interleave with the header and body reads; both sides read
// the body with readBody.
func WriteFrame(w io.Writer, data []byte) error {
	if len(data) == 0 || len(data) > MaxDocSize {
		return fmt.Errorf("collect: bad document size %d", len(data))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// ReadFrame reads one length-prefixed document, enforcing the MaxDocSize
// bound. It is the client-side read of a request/response exchange; the
// caller is responsible for any read deadline on r's connection.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxDocSize {
		return nil, fmt.Errorf("collect: bad frame size %d", n)
	}
	return readBody(r, int(n))
}

// frameChunk is the most memory a frame body claims ahead of the bytes
// that have arrived for it.
const frameChunk = 64 << 10

// readBody reads an n-byte frame body, n announced by the peer. A body of
// up to frameChunk bytes gets one exact-size buffer. A larger one is read
// in frameChunk pieces and joined once it is complete, so a peer that
// announces MaxDocSize and then stalls or hangs up pins only what it sent
// plus one chunk, not MaxDocSize.
func readBody(r io.Reader, n int) ([]byte, error) {
	if n <= frameChunk {
		data := make([]byte, n)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, err
		}
		return data, nil
	}
	var chunks [][]byte
	for left := n; left > 0; left -= frameChunk {
		c := make([]byte, min(left, frameChunk))
		if _, err := io.ReadFull(r, c); err != nil {
			return nil, err
		}
		chunks = append(chunks, c)
	}
	return bytes.Join(chunks, nil), nil
}
