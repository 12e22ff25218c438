package collect

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// allocSlack covers the small allocations around a frame read: an error
// value, the chunk list of a large body.
const allocSlack = 16 << 10

// FuzzFrame feeds arbitrary bytes to the two frame readers, ReadFrame
// and the server's body reader (readBody, given the length the first four
// bytes announce). Neither may panic, and beyond the frame it returns
// neither may allocate more than the bytes supplied plus frameChunk,
// whatever length the header announces. Every frame WriteFrame accepts
// reads back unchanged. The checked-in corpus under
// testdata/fuzz/FuzzFrame holds short and truncated frames;
// TestReadFrameChunked covers bodies larger than one chunk, which would
// slow the fuzzer's mutator down.
func FuzzFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFrameAlloc(t, data, ReadFrame)
		if len(data) >= 4 {
			if n := binary.BigEndian.Uint32(data); n > 0 && n <= MaxDocSize {
				checkFrameAlloc(t, data[4:], func(r io.Reader) ([]byte, error) {
					return readBody(r, int(n))
				})
			}
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, data); err != nil {
			if len(data) > 0 && len(data) <= MaxDocSize {
				t.Fatalf("WriteFrame refused a %d-byte document: %v", len(data), err)
			}
			return
		}
		back, err := ReadFrame(&buf)
		if err != nil || !bytes.Equal(back, data) || buf.Len() != 0 {
			t.Fatalf("a written frame does not read back: err=%v, equal=%v, %d bytes left",
				err, bytes.Equal(back, data), buf.Len())
		}
	})
}

// checkFrameAlloc runs read over data and fails if it allocated more
// than the frame it returned, the bytes supplied and one frameChunk.
func checkFrameAlloc(t *testing.T, data []byte, read func(io.Reader) ([]byte, error)) {
	t.Helper()
	r := bytes.NewReader(data)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	frame, err := read(r)
	runtime.ReadMemStats(&after)
	if err == nil && len(frame) > len(data) {
		t.Fatalf("read returned %d bytes from %d supplied", len(frame), len(data))
	}
	limit := uint64(len(frame) + len(data) + frameChunk + allocSlack)
	if n := after.TotalAlloc - before.TotalAlloc; n > limit {
		t.Fatalf("reading a frame from %d bytes allocated %d bytes (limit %d)", len(data), n, limit)
	}
}

// TestReadFrameChunked: a body larger than frameChunk is read in pieces
// and joined, complete or truncated at any chunk boundary, within the
// same allocation bound FuzzFrame checks.
func TestReadFrameChunked(t *testing.T) {
	body := bytes.Repeat([]byte("<x/>"), (2*frameChunk+5)/4)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, body); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for _, n := range []int{len(frame), 4 + frameChunk, 4 + frameChunk + 1, 4 + 2*frameChunk, 100} {
		checkFrameAlloc(t, frame[:n], ReadFrame)
	}
	back, err := ReadFrame(bytes.NewReader(frame))
	if err != nil || !bytes.Equal(back, body) {
		t.Fatalf("a %d-byte frame does not read back: %v", len(body), err)
	}
	if _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-1])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
}
