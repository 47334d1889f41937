package psconfig

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/simtime"
)

// WireCommand is the JSON encoding of a config-P4 command sent from
// the psconfig CLI to a running collector (the switch's control-plane
// agent).
type WireCommand struct {
	Metric           string  `json:"metric,omitempty"`
	SamplesPerSecond float64 `json:"samples_per_second,omitempty"`
	Alert            bool    `json:"alert,omitempty"`
	Threshold        float64 `json:"threshold,omitempty"`
}

// WireResponse acknowledges a WireCommand.
type WireResponse struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// ToWire converts a parsed command for transmission.
func (c Command) ToWire() WireCommand {
	w := WireCommand{Metric: c.Metric, Alert: c.Alert, Threshold: c.Threshold}
	if c.hasSamples {
		w.SamplesPerSecond = c.SamplesPerSecond
	}
	return w
}

// FromWire reconstructs a Command, re-validating every field: each
// field the sender set (non-zero) goes through ParseConfigP4, so the
// wire accepts exactly what the CLI does.
func FromWire(w WireCommand) (Command, error) {
	var args []string
	if w.Metric != "" {
		args = append(args, "--metric", w.Metric)
	}
	if w.SamplesPerSecond != 0 {
		args = append(args, "--samples_per_second", fmt.Sprintf("%g", w.SamplesPerSecond))
	}
	if w.Alert {
		args = append(args, "--alert")
	}
	if w.Threshold != 0 {
		args = append(args, "--threshold", fmt.Sprintf("%g", w.Threshold))
	}
	return ParseConfigP4(args)
}

// SendOptions tunes the client side of the config channel. The zero
// value is usable: every field has a default.
type SendOptions struct {
	// Timeout bounds each attempt: the dial plus the full
	// request/response exchange (default 5s).
	Timeout time.Duration
	// Attempts is the total number of connection attempts (default 3).
	// Only dial failures are retried: once a connection is up, errors
	// and rejections return immediately — the collector may already
	// have applied the command, and a blind resend could double-apply
	// a future non-idempotent command.
	Attempts int
	// BackoffMin and BackoffMax bound the jittered exponential backoff
	// between attempts (defaults 50ms and 1s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Seed feeds the deterministic jitter RNG (default 1); tests pin it
	// so retry schedules are reproducible.
	Seed uint64
	// Dial and Sleep are test seams. Dial defaults to a TCP
	// DialTimeout; Sleep defaults to time.Sleep.
	Dial  func(addr string, timeout time.Duration) (net.Conn, error)
	Sleep func(d time.Duration)
}

// withDefaults fills unset SendOptions fields.
func (o SendOptions) withDefaults() SendOptions {
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.Attempts <= 0 {
		o.Attempts = 3
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Dial == nil {
		o.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	return o
}

// SendWith transmits the command to a collector at addr and waits for
// the acknowledgment, under an explicit retry policy:
// refused/unreachable dials back off with deterministic equal jitter
// (half the current backoff fixed, half drawn from a seeded RNG) and
// retry up to opts.Attempts times; anything after a successful dial —
// IO errors, timeouts, collector rejections — fails immediately.
func (c Command) SendWith(addr string, opts SendOptions) error {
	opts = opts.withDefaults()
	rng := simtime.NewRNG(opts.Seed)
	backoff := opts.BackoffMin
	var dialErr error
	for attempt := 0; attempt < opts.Attempts; attempt++ {
		if attempt > 0 {
			half := backoff / 2
			opts.Sleep(half + time.Duration(rng.Float64()*float64(half)))
			backoff = backoff * 2
			if backoff > opts.BackoffMax {
				backoff = opts.BackoffMax
			}
		}
		var conn net.Conn
		conn, dialErr = opts.Dial(addr, opts.Timeout)
		if dialErr != nil {
			continue
		}
		return c.exchange(conn, opts.Timeout)
	}
	return fmt.Errorf("psconfig: connecting to collector (%d attempts): %w", opts.Attempts, dialErr)
}

// exchange runs the one-command request/response protocol on an open
// connection.
func (c Command) exchange(conn net.Conn, timeout time.Duration) error {
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return fmt.Errorf("psconfig: setting deadline: %w", err)
	}
	enc := json.NewEncoder(conn)
	if err := enc.Encode(c.ToWire()); err != nil {
		return fmt.Errorf("psconfig: sending command: %w", err)
	}
	var resp WireResponse
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&resp); err != nil {
		return fmt.Errorf("psconfig: reading response: %w", err)
	}
	if !resp.OK {
		return fmt.Errorf("psconfig: collector rejected command: %s", resp.Error)
	}
	return nil
}

// ServeOptions tunes the server side of the config channel. The zero
// value is usable: every field has a default.
type ServeOptions struct {
	// ReadTimeout bounds how long a connection may take to deliver its
	// command; WriteTimeout bounds the acknowledgment (defaults 5s
	// each). A client that connects and never sends — or stalls
	// mid-record — is cut at the deadline instead of leaking a
	// goroutine for the listener's lifetime.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// MaxRequestBytes caps the encoded command size (default 64 KiB);
	// an oversized request is rejected without buffering it.
	MaxRequestBytes int64
	// MaxConns caps concurrently-served connections (default 64).
	// Excess connections receive an immediate busy rejection on the
	// accept goroutine rather than queueing without bound.
	MaxConns int
}

// withDefaults fills unset ServeOptions fields.
func (o ServeOptions) withDefaults() ServeOptions {
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 5 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 5 * time.Second
	}
	if o.MaxRequestBytes <= 0 {
		o.MaxRequestBytes = 64 << 10
	}
	if o.MaxConns <= 0 {
		o.MaxConns = 64
	}
	return o
}

// ServeConfig accepts config-P4 commands on ln and applies them to
// target until the listener closes, with default ServeOptions. Each
// connection carries one JSON-encoded WireCommand and receives one
// WireResponse.
func ServeConfig(ln net.Listener, target Target) {
	ServeConfigWith(ln, target, ServeOptions{})
}

// ServeConfigWith is ServeConfig with explicit hardening options. It
// returns only after the listener closes AND every in-flight
// connection handler has finished — a graceful drain, so callers can
// close the listener and know no command will race their teardown.
func ServeConfigWith(ln net.Listener, target Target, opts ServeOptions) {
	opts = opts.withDefaults()
	var wg sync.WaitGroup
	defer wg.Wait()
	sem := make(chan struct{}, opts.MaxConns)
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		select {
		case sem <- struct{}{}:
		default:
			// At capacity: reject on the accept goroutine, bounded by
			// the write deadline, rather than queueing unboundedly.
			_ = conn.SetWriteDeadline(time.Now().Add(opts.WriteTimeout))
			_ = json.NewEncoder(conn).Encode(WireResponse{Error: "psconfig: collector busy"})
			_ = conn.Close()
			continue
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer func() { <-sem }()
			serveConn(conn, target, opts)
		}(conn)
	}
}

// serveConn handles one connection: read a command under the read
// deadline and size cap, apply it transactionally, acknowledge under
// the write deadline.
func serveConn(conn net.Conn, target Target, opts ServeOptions) {
	defer conn.Close()
	resp := WireResponse{OK: true}
	_ = conn.SetReadDeadline(time.Now().Add(opts.ReadTimeout))
	if w, err := decodeWire(conn, opts.MaxRequestBytes); err != nil {
		resp = WireResponse{Error: err.Error()}
	} else if cmd, err := FromWire(w); err != nil {
		resp = WireResponse{Error: err.Error()}
	} else if err := cmd.Apply(target); err != nil {
		resp = WireResponse{Error: err.Error()}
	}
	// Best-effort acknowledgment: the peer may already be gone.
	_ = conn.SetWriteDeadline(time.Now().Add(opts.WriteTimeout))
	_ = json.NewEncoder(conn).Encode(resp)
}

// decodeWire reads one JSON request of at most limit bytes.
func decodeWire(r io.Reader, limit int64) (WireCommand, error) {
	var w WireCommand
	// N+1 so a request of exactly limit bytes decodes while one byte
	// more distinguishes "oversized" from a malformed document.
	lr := &io.LimitedReader{R: r, N: limit + 1}
	if err := json.NewDecoder(bufio.NewReader(lr)).Decode(&w); err != nil {
		if lr.N <= 0 {
			return w, fmt.Errorf("psconfig: request exceeds %d bytes", limit)
		}
		return w, err
	}
	return w, nil
}
