package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// TestServeDropsPartialHeader is the slowloris guard: a client that
// sends only part of its request header is disconnected once the
// header timeout passes, while a complete request on the same listener
// is still served.
func TestServeDropsPartialHeader(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	go srv.Serve(ln)
	defer srv.Close()

	whole, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	whole.Write([]byte("GET /status HTTP/1.1\r\nHost: x\r\n\r\n"))
	if line, err := bufio.NewReader(whole).ReadString('\n'); err != nil || !strings.Contains(line, "200") {
		t.Fatalf("complete request: %q, %v", line, err)
	}

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	slow.Write([]byte("GET /status HTTP/1.1\r\nHost: x\r\n")) // no terminating blank line
	slow.SetReadDeadline(start.Add(serveReadHeaderTimeout + 5*time.Second))
	if _, err := io.ReadAll(slow); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("partial-header connection still open after %v", time.Since(start))
	}
	if held := time.Since(start); held < serveReadHeaderTimeout/2 {
		t.Errorf("connection dropped after %v, before the %v header timeout", held, serveReadHeaderTimeout)
	}
}
