package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"

	"hypersearch/internal/serve"
)

// referenceChunk bounds the requests one reference child computes.
// Every serve.SerialRecords call builds fresh environment pools whose
// parked DES worker goroutines are never released, so the benchmark
// computes references in short-lived child processes: the parked
// goroutines die with each child instead of swelling the measured
// process (a few hundred calls leave tens of thousands behind).
const referenceChunk = 100

// serialReferences returns json.Marshal(serve.SerialRecords(req)) for
// every request body, in order, computed in child processes.
func serialReferences(bodies [][]byte) ([][]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for lo := 0; lo < len(bodies); lo += referenceChunk {
		chunk := bodies[lo:min(lo+referenceChunk, len(bodies))]
		cmd := exec.Command(exe, "--references")
		cmd.Stdin = bytes.NewReader(append(bytes.Join(chunk, []byte("\n")), '\n'))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("reference child: %w", err)
		}
		lines := bytes.Split(bytes.TrimRight(b, "\n"), []byte("\n"))
		if len(lines) != len(chunk) {
			return nil, fmt.Errorf("reference child returned %d records for %d requests", len(lines), len(chunk))
		}
		out = append(out, lines...)
	}
	return out, nil
}

// writeReferences is the child side: one request body per input line,
// one line of marshaled serial records per output line.
func writeReferences(in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 64<<10), serve.MaxRequestBytes)
	w := bufio.NewWriter(out)
	for sc.Scan() {
		var q serve.Request
		if err := json.Unmarshal(sc.Bytes(), &q); err != nil {
			return err
		}
		recs, err := serve.SerialRecords(&q)
		if err != nil {
			return fmt.Errorf("serial records of %s: %w", sc.Bytes(), err)
		}
		b, err := json.Marshal(recs)
		if err != nil {
			return err
		}
		w.Write(b)
		w.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return w.Flush()
}
