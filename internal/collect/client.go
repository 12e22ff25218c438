package collect

import (
	"fmt"
	"math/rand/v2"
	"net"
	"time"

	"healers/internal/xmlrep"
)

// Client timings. They are variables, not constants, so tests can
// shrink them; production code should treat them as constants.
var (
	// DefaultDialTimeout bounds connection establishment.
	DefaultDialTimeout = 5 * time.Second
	// DefaultWriteTimeout bounds each frame write. A wrapped process
	// flushes its profile from the exit path; without a deadline a
	// stalled collector would block that process's exit forever.
	DefaultWriteTimeout = 5 * time.Second
	// DefaultCallTimeout bounds reading a Call response frame.
	DefaultCallTimeout = 10 * time.Second
)

const (
	// DefaultRetryBase is the first retry delay.
	DefaultRetryBase = 50 * time.Millisecond
	// DefaultRetryCap caps the exponential retry delay.
	DefaultRetryCap = 2 * time.Second
)

// Client uploads documents to a collection server. It is persistent:
// the connection is dialed lazily, broken connections are discarded, and
// with RetryMax > 0 each send re-dials and retries under exponential
// backoff with jitter — a briefly-restarting collector costs a delay, not
// a lost document. A Client is not safe for concurrent use; Spooler
// provides the concurrent, asynchronous layer on top.
//
// The zero value plus an Addr is usable: every Client runs under the
// package timings above.
type Client struct {
	// Addr is the collector's host:port.
	Addr string

	conn net.Conn

	// RetryMax is how many times a failed send is retried (re-dialing
	// as needed) before the error is returned. Zero fails fast. Retries
	// back off exponentially from DefaultRetryBase to DefaultRetryCap,
	// each delay with up to 50% random jitter so a restarted collector
	// is not hit by its whole fleet at once.
	RetryMax int
}

// NewClient returns a persistent client for addr. No connection is made
// until the first send.
func NewClient(addr string) *Client {
	return &Client{Addr: addr}
}

// Dial connects to a collection server, failing fast if it is
// unreachable.
func Dial(addr string) (*Client, error) {
	c := NewClient(addr)
	if err := c.ensureConn(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Client) ensureConn() error {
	if c.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", c.Addr, DefaultDialTimeout)
	if err != nil {
		return fmt.Errorf("collect: dial %s: %w", c.Addr, err)
	}
	c.conn = conn
	return nil
}

// Send marshals and uploads one document.
func (c *Client) Send(doc any) error {
	data, err := xmlrep.Marshal(doc)
	if err != nil {
		return err
	}
	return c.SendRaw(data)
}

// SendRaw uploads pre-marshalled XML, retrying per RetryMax.
func (c *Client) SendRaw(data []byte) error {
	_, err := c.exchange(data, false)
	return err
}

// Call sends one document and reads the server's one-frame response —
// the request/response shape of the distributed-campaign exchanges. It
// retries like SendRaw; callers must keep requests idempotent, since a
// response lost to the network means the request is replayed.
func (c *Client) Call(doc any) ([]byte, error) {
	data, err := xmlrep.Marshal(doc)
	if err != nil {
		return nil, err
	}
	return c.exchange(data, true)
}

// exchange runs the retry loop around one send (and optional response
// read).
func (c *Client) exchange(data []byte, wantResp bool) ([]byte, error) {
	if len(data) == 0 || len(data) > MaxDocSize {
		// No amount of retrying fixes an invalid document.
		return nil, fmt.Errorf("collect: bad document size %d", len(data))
	}
	backoff := DefaultRetryBase
	for attempt := 0; ; attempt++ {
		resp, err := c.exchangeOnce(data, wantResp)
		if err == nil || attempt >= c.RetryMax {
			return resp, err
		}
		time.Sleep(withJitter(backoff))
		if backoff *= 2; backoff > DefaultRetryCap {
			backoff = DefaultRetryCap
		}
	}
}

// exchangeOnce is one dial-if-needed, write-one-frame attempt, plus the
// response read when the caller wants one. The write runs under
// DefaultWriteTimeout: a collector that accepts the connection but
// stops draining it produces a timeout error here instead of wedging the
// caller. Any error discards the connection so the next attempt re-dials.
func (c *Client) exchangeOnce(data []byte, wantResp bool) ([]byte, error) {
	if err := c.ensureConn(); err != nil {
		return nil, err
	}
	if err := c.conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout)); err != nil {
		c.reset()
		return nil, fmt.Errorf("collect: setting write deadline: %w", err)
	}
	if err := WriteFrame(c.conn, data); err != nil {
		c.reset()
		return nil, err
	}
	c.conn.SetWriteDeadline(time.Time{})
	if !wantResp {
		return nil, nil
	}
	if err := c.conn.SetReadDeadline(time.Now().Add(DefaultCallTimeout)); err != nil {
		c.reset()
		return nil, fmt.Errorf("collect: setting read deadline: %w", err)
	}
	resp, err := ReadFrame(c.conn)
	if err != nil {
		c.reset()
		return nil, fmt.Errorf("collect: reading response: %w", err)
	}
	c.conn.SetReadDeadline(time.Time{})
	return resp, nil
}

// sendOnce is one write-only attempt — the Spooler's drain primitive,
// which runs its own retry/backoff policy around it.
func (c *Client) sendOnce(data []byte) error {
	_, err := c.exchangeOnce(data, false)
	return err
}

// reset discards a (presumed broken) connection.
func (c *Client) reset() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// withJitter returns d plus up to 50% random jitter.
func withJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d + rand.N(d/2+1)
}

// Close ends the upload session.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Upload is the one-shot convenience: dial, send, close.
func Upload(addr string, doc any) error {
	c, err := Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Send(doc); err != nil {
		return err
	}
	return nil
}
