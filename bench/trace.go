package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, taken from the benchmark's side of
// the call. Start and end are monotonic nanoseconds since the pass began;
// parent is the id of the span that caused it (-1 for a request's root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written when the pass is over.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// open starts a request's root span and returns its id.
func (t *tracer) open(req int32, start int64) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: -1, Req: req, Name: "request", Layer: "bench", Start: start})
	return id
}

func (t *tracer) close(id int32, end int64) { t.spans[id].End = end }

// child records a finished call made on behalf of parent.
func (t *tracer) child(parent int32, name, layer string, start, end int64) {
	t.spans = append(t.spans, span{
		ID: int32(len(t.spans)), Parent: parent, Req: t.spans[parent].Req,
		Name: name, Layer: layer, Start: start, End: end,
	})
}

// traceFile is the on-disk form of one traced pass.
type traceFile struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	SampleEvery int    `json:"sample_every"`
	Clock       string `json:"clock"`
	Spans       []span `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64, every int) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(traceFile{
		Workload: workload, Seed: seed, SampleEvery: every,
		Clock: "monotonic ns since the pass began", Spans: t.spans,
	})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selfTimes returns, per layer, the mean self time per traced request: a
// span's duration minus the time its children cover. Children of one span
// never overlap here (the calls are sequential), so the cover is their sum.
func selfTimes(spans []span) (perLayer map[string]float64, requests int) {
	childSum := make(map[int32]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.End - s.Start
		} else {
			requests++
		}
	}
	perLayer = make(map[string]float64)
	if requests == 0 {
		return perLayer, 0
	}
	for _, s := range spans {
		perLayer[s.Layer] += float64(s.End - s.Start - childSum[s.ID])
	}
	for l := range perLayer {
		perLayer[l] /= float64(requests)
	}
	return perLayer, requests
}

// spanMedians returns the median duration of each span name, and how many
// spans carried it.
func spanMedians(spans []span) (med map[string]float64, count map[string]int) {
	byName := make(map[string][]float64)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.End-s.Start))
	}
	med = make(map[string]float64, len(byName))
	count = make(map[string]int, len(byName))
	for n, v := range byName {
		med[n], count[n] = median(v), len(v)
	}
	return med, count
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastest is the estimator for restart times: the same image is opened
// again and again, and what varies between incarnations (page faults,
// zeroing, scheduling) only ever adds, in modes that trade places from run to
// run, so the minimum repeats where the median does not.
func fastest(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v[1:] {
		m = min(m, x)
	}
	return m
}

// quartiles are Python's statistics.quantiles(v, n=4): the exclusive
// method, position (n+1)·q with linear interpolation.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(q float64) float64 {
		pos := q * float64(n+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// iqrShare is the distance between the quartiles as a share of the median.
func iqrShare(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
