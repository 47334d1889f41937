package p4runtime

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"time"
)

// Serve accepts runtime connections on ln until the listener closes.
// Each connection carries a stream of JSON-encoded Requests, answered
// in order with JSON-encoded Responses — one object per line.
func Serve(ln net.Listener, s *Server) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go serveConn(conn, s)
	}
}

// maxRequestBytes bounds one request line, newline included. The
// largest legitimate request (a register read or a table prefix) is
// under a hundred bytes; the port is open by default, so an unbounded
// line is an unbounded buffer.
const maxRequestBytes = 64 << 10

func serveConn(conn net.Conn, s *Server) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, maxRequestBytes)
	enc := json.NewEncoder(conn)
	for {
		line, err := r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// Best effort: the peer may still be writing the rest of
			// the line and never read this.
			_ = enc.Encode(errResp("request exceeds %d bytes", maxRequestBytes))
			return
		}
		// A final request the peer did not terminate still counts.
		if line = bytes.TrimSpace(line); len(line) > 0 {
			var req Request
			if err := json.Unmarshal(line, &req); err != nil {
				_ = enc.Encode(errResp("bad request: %v", err))
				return
			}
			if enc.Encode(s.Handle(req)) != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// Client talks to a remote runtime server over one TCP connection.
type Client struct {
	conn net.Conn
	dec  *json.Decoder
	enc  *json.Encoder
}

// Dial connects to a runtime server.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("p4runtime: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an already-established connection (a faultnet pipe
// in tests, a pre-dialled socket) in a runtime client. The client owns
// the connection and closes it.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		dec:  json.NewDecoder(bufio.NewReader(conn)),
		enc:  json.NewEncoder(conn),
	}
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Do executes one operation.
func (c *Client) Do(req Request) (Response, error) {
	if err := c.enc.Encode(req); err != nil {
		return Response{}, fmt.Errorf("p4runtime: send: %w", err)
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return Response{}, fmt.Errorf("p4runtime: recv: %w", err)
	}
	if !resp.OK {
		return resp, fmt.Errorf("p4runtime: server error: %s", resp.Error)
	}
	return resp, nil
}

// RegisterRead reads one register cell by P4 instance name.
func (c *Client) RegisterRead(register string, index uint32) (uint64, error) {
	resp, err := c.Do(Request{Op: OpRegisterRead, Register: register, Index: index})
	return resp.Value, err
}

// FlowRead reads a flow snapshot by its digest IDs.
func (c *Client) FlowRead(flowID, revID uint32) (*FlowReply, error) {
	resp, err := c.Do(Request{Op: OpFlowRead, FlowID: flowID, RevID: revID})
	return resp.Flow, err
}

// TableSkip programs a skip entry in the monitor table.
func (c *Client) TableSkip(prefix string) error {
	_, err := c.Do(Request{Op: OpTableSkip, Prefix: prefix})
	return err
}

// ListRegisters enumerates the pipeline's register instances.
func (c *Client) ListRegisters() ([]string, error) {
	resp, err := c.Do(Request{Op: OpListRegisters})
	return resp.Registers, err
}
