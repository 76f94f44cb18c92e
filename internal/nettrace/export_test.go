package nettrace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MeanThroughput returns the link's average throughput in bits/second.
func (l *Link) MeanThroughput() float64 { return l.Trace.Mean() * 1e6 }

// ParseCSV reads a "t,mbps" CSV trace (header and comment lines are
// skipped).
func ParseCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	tr := &Trace{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "t,") || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) < 2 {
			return nil, fmt.Errorf("nettrace: line %d: want 2 fields", line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("nettrace: line %d: bad mbps: %v", line, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("nettrace: line %d: negative bandwidth", line)
		}
		tr.Mbps = append(tr.Mbps, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(tr.Mbps) == 0 {
		return nil, fmt.Errorf("nettrace: empty trace")
	}
	return tr, nil
}
