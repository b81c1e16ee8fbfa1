package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"desh/internal/logparse"
)

// maxLineBytes caps one ingest line at 1 MiB. A longer line is
// discarded in full — counted in Metrics.Oversized — while the
// connection stays alive; one runaway producer must not kill an ingest
// socket shared with well-behaved ones.
const maxLineBytes = 1 << 20

// IngestReader tails r line by line into the streamer until EOF, an
// unrecoverable read error, or Close. Malformed lines are counted in
// Metrics.Malformed and skipped, oversized lines in Metrics.Oversized —
// a daemon must survive garbage on its ingest socket — so the only
// errors returned are ErrClosed and reader failures.
//
// The complete lines one read of r delivered are admitted by one
// IngestBatch — with a state dir, one WAL commit — before r is asked for
// more (DESIGN §10): the buffer is the bound, nothing waits on a timer,
// and a source that trickles a line per read gets a commit per line.
func (s *Streamer) IngestReader(r io.Reader) error {
	_, err := s.ingestReader(r)
	return err
}

// ingestReader is IngestReader that also reports how many of r's lines
// this call counted into Metrics.Ingested — the process-wide counter
// cannot say, other sources move it at the same time.
func (s *Streamer) ingestReader(r io.Reader) (n int, err error) {
	br := bufio.NewReaderSize(r, 64*1024)
	line := make([]byte, 0, 4096)
	discarding := false
	// batch is the parsed lines not yet admitted; flush runs whenever br
	// holds no further complete line, so it is empty across every Read.
	var batch []Admission
	flush := func() error {
		err := s.IngestBatch(batch)
		for i := range batch {
			if err == nil && !batch[i].Refused {
				n++ // ErrClosed admitted none of them
			}
		}
		batch = batch[:0]
		return err
	}
	for {
		if len(batch) > 0 {
			if rest, _ := br.Peek(br.Buffered()); bytes.IndexByte(rest, '\n') < 0 {
				if err := flush(); err != nil {
					return n, err
				}
			}
		}
		chunk, err := br.ReadSlice('\n')
		if !discarding {
			if len(line)+len(chunk) > maxLineBytes {
				s.met.Oversized.Add(1)
				discarding = true
				line = line[:0]
			} else {
				line = append(line, chunk...)
			}
		}
		switch {
		case err == nil, errors.Is(err, io.EOF):
			// chunk ended the line, or the input ended mid-line.
			if text := string(line); !discarding && !logparse.IsBlank(text) {
				if ev, perr := logparse.ParseLine(text); perr != nil {
					s.met.Malformed.Add(1)
				} else {
					batch = append(batch, Admission{Event: ev})
				}
			}
			if err != nil {
				err = flush()
				return n, err
			}
			discarding, line = false, line[:0]
		case errors.Is(err, bufio.ErrBufferFull):
			// Mid-line; keep accumulating (or discarding).
		default:
			return n, fmt.Errorf("stream: read: %w", err)
		}
	}
}

// ServeLines accepts line-oriented TCP connections on ln — the `nc
// host port < node.log` ingest format — feeding every line through the
// streamer. Each connection gets its own goroutine; per-shard queue
// bounds still apply, so a burst on one connection cannot grow memory.
// At most 256 connections are served at once (excess accepts are
// counted in Metrics.ConnRejected and closed), and a connection that
// delivers nothing for five minutes is dropped. ServeLines returns
// when ln is closed or the streamer shuts down, and only after every
// connection goroutine has finished.
func (s *Streamer) ServeLines(ln net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	sem := make(chan struct{}, s.opts.maxConns)
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return nil
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		select {
		case sem <- struct{}{}:
		default:
			s.met.ConnRejected.Add(1)
			conn.Close()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			defer conn.Close()
			// Unblock the read when the streamer shuts down mid-stream.
			connDone := make(chan struct{})
			defer close(connDone)
			go func() {
				select {
				case <-s.done:
					conn.Close()
				case <-connDone:
				}
			}()
			var r io.Reader = conn
			if d := s.opts.connIdleTimeout; d > 0 {
				r = &idleConnReader{conn: conn, idle: d}
			}
			if err := s.IngestReader(r); errors.Is(err, os.ErrDeadlineExceeded) {
				s.met.ConnRejected.Add(1)
			}
		}()
	}
}

// idleConnReader arms a fresh read deadline before every Read, so the
// connection dies only after the idle limit of total silence — not
// after a fixed wall-clock lifetime.
type idleConnReader struct {
	conn net.Conn
	idle time.Duration
}

func (r *idleConnReader) Read(p []byte) (int, error) {
	_ = r.conn.SetReadDeadline(time.Now().Add(r.idle))
	return r.conn.Read(p)
}

// IngestHandler returns the HTTP ingest endpoint: POST a body of
// newline-separated raw log lines. Responds 202 with the number of
// events accepted this request, 413 when the body exceeds 8 MiB,
// 503 once the streamer is closed.
func (s *Streamer) IngestHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST log lines", http.StatusMethodNotAllowed)
			return
		}
		n, err := s.ingestReader(http.MaxBytesReader(w, r.Body, s.opts.maxBodyBytes))
		var tooBig *http.MaxBytesError
		switch {
		case errors.Is(err, ErrClosed):
			http.Error(w, "streamer closed", http.StatusServiceUnavailable)
		case errors.As(err, &tooBig):
			http.Error(w, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
		default:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, "{\"ingested\":%d}\n", n)
		}
	})
}

// MetricsHandler returns the observability endpoint: a JSON
// MetricsSnapshot (counters, alert stats, per-shard queue depths and
// the detect-latency histogram).
func (s *Streamer) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.SnapshotMetrics())
	})
}
