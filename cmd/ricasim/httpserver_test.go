package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// startHTTP serves h through newHTTPServer on a loopback port and
// returns the address; the server closes with the test.
func startHTTP(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(h)
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String()
}

// TestHTTPServerDropsSlowHeader: a client that sends half a request line
// and then stalls is disconnected once httpReadHeaderTimeout passes,
// instead of holding the connection open indefinitely.
func TestHTTPServerDropsSlowHeader(t *testing.T) {
	t.Parallel()
	addr := startHTTP(t, http.NotFoundHandler())
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /stats.js"); err != nil {
		t.Fatal(err)
	}
	// The local deadline only stops a broken server from hanging the
	// test; the server must close the connection well before it.
	limit := httpReadHeaderTimeout + 3*time.Second
	_ = conn.SetReadDeadline(start.Add(limit))
	_, err = io.Copy(io.Discard, conn)
	elapsed := time.Since(start)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open after %v; want it closed after %v", elapsed, httpReadHeaderTimeout)
	}
	if elapsed < httpReadHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header bound", elapsed, httpReadHeaderTimeout)
	}
}

// TestHTTPServerStreamsPastHeaderBound: a response that streams for
// longer than httpReadHeaderTimeout (the shape of
// /jobs/{id}/events?follow=1) runs to completion — the server sets no
// write timeout that would cut it.
func TestHTTPServerStreamsPastHeaderBound(t *testing.T) {
	t.Parallel()
	const tick = 250 * time.Millisecond
	lines := int((httpReadHeaderTimeout+time.Second)/tick) + 1
	addr := startHTTP(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		for i := 0; i < lines; i++ {
			fmt.Fprintf(w, "{\"line\":%d}\n", i)
			w.(http.Flusher).Flush()
			time.Sleep(tick)
		}
	}))
	start := time.Now()
	resp, err := http.Get("http://" + addr + "/jobs/j-1/events?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		got++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream cut after %d of %d lines (%v): %v", got, lines, time.Since(start), err)
	}
	if got != lines {
		t.Fatalf("stream ended after %d of %d lines (%v)", got, lines, time.Since(start))
	}
	if elapsed := time.Since(start); elapsed <= httpReadHeaderTimeout {
		t.Fatalf("stream took %v, not past the %v header bound", elapsed, httpReadHeaderTimeout)
	}
}
