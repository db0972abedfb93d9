package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, its interval in ns since
// the tracer's epoch, the span that caused it (0 for a request's root),
// the request it belongs to, and the replay stage that issued it.
type span struct {
	name       string
	id, parent int32
	req        int64
	stage      string
	start, end int64
}

// tracer records spans in memory; nothing is written until the run ends.
// A disabled tracer records nothing, so the same replay code runs traced
// and untraced and the difference is the tracing overhead.
type tracer struct {
	on    bool
	epoch time.Time

	mu     sync.Mutex
	stage  string
	spans  []span
	counts map[string]int64
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, epoch: time.Now(), counts: map[string]int64{}}
}

// setStage tags every span begun from now on.
func (t *tracer) setStage(s string) {
	t.mu.Lock()
	t.stage = s
	t.mu.Unlock()
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if !t.on {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, req: req, stage: t.stage, start: now})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// count adds n to a counter recorded at a layer boundary.
func (t *tracer) count(name string, n int64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// selfTimes returns each span's self time in ns: its duration minus the
// part of its interval covered by its direct children. Children that
// overlap one another (concurrent calls) are merged first so the shared
// stretch is subtracted once, and a child running past its parent is
// clipped to the parent's interval. Deeper descendants lie inside their
// own parents and so never count twice.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int, len(spans))
	for i, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.id]
		ivs := make([][2]int64, 0, len(kids))
		for _, k := range kids {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi int64
		open := false
		for _, iv := range ivs {
			if open && iv[0] <= curHi {
				curHi = max(curHi, iv[1])
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = iv[0], iv[1], true
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// spanStats groups self times by (stage, span name).
type spanStats map[[2]string][]int64

func groupSelf(spans []span) spanStats {
	self := selfTimes(spans)
	out := spanStats{}
	for i, s := range spans {
		k := [2]string{s.stage, s.name}
		out[k] = append(out[k], self[i])
	}
	return out
}

// total returns the summed self time, in ns, of one span name in a stage.
func (st spanStats) total(stage, name string) float64 {
	var sum int64
	for _, v := range st[[2]string{stage, name}] {
		sum += v
	}
	return float64(sum)
}

// median returns the median self time, in ns, of one span name in a
// stage.
func (st spanStats) median(stage, name string) float64 {
	vs := st[[2]string{stage, name}]
	xs := make([]float64, len(vs))
	for i, v := range vs {
		xs[i] = float64(v)
	}
	return median(xs)
}

// write dumps every span as one tab-separated line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tstage\tname\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", s.id, s.parent, s.req, s.stage, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
