package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// verdict is one monitor verdict as the SSE stream delivers it.
type verdict struct {
	Seq     int     `json:"seq"`
	Records int     `json:"records"`
	Above   bool    `json:"above"`
	Gap     float64 `json:"gap"`
	Branch  string  `json:"branch"`
	Retired bool    `json:"retired"`
	// at is when the event's data line had been read.
	at time.Time
}

// subscriber reads one monitor's SSE stream on its own connection.
type subscriber struct {
	resp *http.Response

	mu       sync.Mutex
	verdicts []verdict
	err      error
	changed  chan struct{} // signalled (non-blocking) after each verdict
	done     chan struct{} // closed when the reader goroutine has returned
}

// subscribe opens the stream and returns once the server has answered with
// the stream's headers; verdicts, history first, arrive in the background.
func subscribe(c *http.Client, base, monitor string) (*subscriber, error) {
	resp, err := c.Get(base + "/v1/monitors/" + monitor + "/stream")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("monitor %s stream: status %d", monitor, resp.StatusCode)
	}
	s := &subscriber{resp: resp, changed: make(chan struct{}, 1), done: make(chan struct{})}
	go s.read()
	return s, nil
}

func (s *subscriber) read() {
	defer close(s.done)
	err := readSSE(s.resp.Body, func(v verdict) {
		s.mu.Lock()
		s.verdicts = append(s.verdicts, v)
		s.mu.Unlock()
		select {
		case s.changed <- struct{}{}:
		default:
		}
	})
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// readSSE parses "verdict" events from r, stamping each with its arrival
// time, until r ends.
func readSSE(r io.Reader, emit func(verdict)) error {
	br := bufio.NewReader(r)
	event := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if event != "verdict" {
				return fmt.Errorf("unexpected SSE event %q", event)
			}
			var v verdict
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v); err != nil {
				return fmt.Errorf("SSE verdict: %w", err)
			}
			v.at = time.Now()
			emit(v)
		}
	}
}

// waitFor blocks until at least n verdicts have arrived or the timeout
// passes, and returns a copy of what arrived.
func (s *subscriber) waitFor(n int, timeout time.Duration) []verdict {
	deadline := time.After(timeout)
	for {
		s.mu.Lock()
		got := len(s.verdicts)
		s.mu.Unlock()
		if got >= n {
			break
		}
		select {
		case <-s.changed:
		case <-s.done:
			return s.snapshot()
		case <-deadline:
			return s.snapshot()
		}
	}
	return s.snapshot()
}

func (s *subscriber) snapshot() []verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]verdict(nil), s.verdicts...)
}

// streamErr is the error that ended the stream, if it has ended.
func (s *subscriber) streamErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// close ends the stream and waits for the reader to return.
func (s *subscriber) close() {
	s.resp.Body.Close()
	<-s.done
}

// appendSend is one append to the subscribed monitor's dataset: when it was
// sent and the record count its acknowledgement reported.
type appendSend struct {
	sent    time.Time
	records int
	timed   bool // sent in the measured phase
}

// matchVerdicts checks a monitor's stream against the appends to its
// dataset and returns the verdict lag, in ms, of every measured append.
// The stream must run contiguously from seq 0 (the registration verdict),
// verdict i ≥ 1 must carry the record count of the i-th append's
// acknowledgement, and nothing may follow a retiring verdict. A live
// monitor answers every append, so its stream must cover all of them.
func matchVerdicts(vs []verdict, sends []appendSend) ([]float64, error) {
	var lags []float64
	for i, v := range vs {
		if v.Seq != i {
			return nil, fmt.Errorf("verdict %d has seq %d: stream not contiguous from 0", i, v.Seq)
		}
		if i > 0 && vs[i-1].Retired {
			return nil, fmt.Errorf("verdict seq %d follows a retiring verdict", v.Seq)
		}
		if i == 0 {
			continue
		}
		if i > len(sends) {
			return nil, fmt.Errorf("verdict seq %d but only %d appends were sent", v.Seq, len(sends))
		}
		s := sends[i-1]
		if v.Records != s.records {
			return nil, fmt.Errorf("verdict seq %d at %d records, but append %d acknowledged %d", v.Seq, v.Records, i, s.records)
		}
		if s.timed {
			lags = append(lags, float64(v.at.Sub(s.sent).Nanoseconds())/1e6)
		}
	}
	if len(vs) == 0 {
		return nil, fmt.Errorf("no verdicts: the registration verdict is missing")
	}
	if !vs[len(vs)-1].Retired && len(vs)-1 != len(sends) {
		return nil, fmt.Errorf("live monitor delivered %d append verdicts for %d appends", len(vs)-1, len(sends))
	}
	return lags, nil
}
