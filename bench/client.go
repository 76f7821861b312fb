package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to the server under test.
// Requests are written by hand and issued strictly one at a time, so a
// conn is exactly one unit of offered load and the generator's own cost
// per request stays a few microseconds.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	req  []byte
	body bytes.Buffer
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// requestTimeout bounds one request; a server that stalls this long has
// failed the request.
const requestTimeout = 30 * time.Second

// do sends one request and reads the whole response. The returned body is
// valid until the next call. After an error the connection is redialed so
// the caller's loop can go on and count the failure.
func (c *conn) do(method, path string, body []byte) (status int, respBody []byte, err error) {
	status, respBody, err = c.roundTrip(method, path, body)
	if err != nil {
		c.c.Close()
		if nc, derr := dial(c.addr); derr == nil {
			c.c, c.br = nc.c, nc.br
		}
	}
	return status, respBody, err
}

func (c *conn) roundTrip(method, path string, body []byte) (int, []byte, error) {
	b := append(c.req[:0], method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\n"...)
	if body != nil {
		b = append(b, "Content-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	b = append(b, body...)
	c.req = b
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(b); err != nil {
		return 0, nil, fmt.Errorf("write request: %w", err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("read response: %w", err)
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, fmt.Errorf("read response body: %w", err)
	}
	if resp.Close {
		return resp.StatusCode, c.body.Bytes(), fmt.Errorf("server closed the connection (status %d)", resp.StatusCode)
	}
	return resp.StatusCode, c.body.Bytes(), nil
}
