package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/url"

	"ldp/internal/pipeline"
	"ldp/internal/schema"
)

// Tolerances of the answer check. Report counts must match exactly.
// Means are float sums folded in a different order on the server than in
// the reference (shards and batches regroup them), so they may differ in
// the last bits; frequencies debias integer support counts and agree far
// more tightly.
const (
	meanTol = 1e-9
	freqTol = 1e-9
	// ageSEs is how many closed-form standard errors the age mean may lie
	// from the generated population's true mean.
	ageSEs = 5
)

// reference is an in-process pipeline fed exactly the acknowledged
// reports, plus the weights the age-mean standard error needs.
type reference struct {
	p *pipeline.Pipeline
	// sumW and sumW2 sum each mean-task report's multiplicity and its
	// square; popW, popW2 and popAge do the same over every report, with
	// popAge weighting the true normalized age.
	sumW, sumW2, popW, popW2, popAge float64
}

// buildReference regenerates every acknowledged batch from the seed and
// folds it as often as the server acknowledged it.
func (r *runner) buildReference() (*reference, error) {
	p, err := newPipeline(r.pop.census)
	if err != nil {
		return nil, err
	}
	ref := &reference{p: p}
	age := attrIdx(r.pop.census.Schema(), "age")
	b := pipeline.NewReportBatch()
	for _, br := range r.acked.refs() {
		reps, ts, err := r.pop.randomize(r.cp, br.start, br.n)
		if err != nil {
			return nil, err
		}
		b.Reset()
		for i, rep := range reps {
			b.Append(rep)
			w := float64(br.times)
			if rep.Task == pipeline.TaskMean {
				ref.sumW += w
				ref.sumW2 += w * w
			}
			ref.popW += w
			ref.popW2 += w * w
			ref.popAge += w * ts[i].Num[age]
		}
		for k := 0; k < br.times; k++ {
			if err := p.AddBatch(b); err != nil {
				return nil, fmt.Errorf("reference fold: %w", err)
			}
		}
	}
	return ref, nil
}

func attrIdx(s *schema.Schema, name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	panic("perfbench: schema has no attribute " + name)
}

// ageSE is the closed-form standard error of the age-mean estimate
// around the population's true mean. A mean-task report contributes
// scale*Perturb(t) with probability 1/scale (attribute sampling) and 0
// otherwise, so its second moment is at most scale*(WorstCaseVariance +
// 1); weighting by multiplicity w gives Var <= m2*sum(w^2)/sum(w)^2.
// The mean-task users are a random subset of the population, which adds
// at most sum(w^2)/sum(w)^2 (values lie in [-1,1]).
func (ref *reference) ageSE() float64 {
	mt := ref.p.MeanTask()
	scale := float64(len(ref.p.Schema().NumericIdx())) / float64(mt.K())
	m2 := scale * (mt.Mechanism().WorstCaseVariance() + 1)
	est := m2 * ref.sumW2 / (ref.sumW * ref.sumW)
	pop := ref.popW2 / (ref.popW * ref.popW)
	return math.Sqrt(est + pop)
}

// checkAnswers compares the server's stats, mean and frequency answers
// with the reference, and the age mean with the population's truth.
func (r *runner) checkAnswers(c *http.Client, base string, ref *reference, want int64) error {
	ctx := context.Background()
	var st statsBody
	if _, err := getJSON(ctx, c, base+"/v1/stats", &st); err != nil {
		return err
	}
	if st.N != want {
		return fmt.Errorf("server counts n=%d, acknowledged %d", st.N, want)
	}
	for k, n := range ref.p.TaskCounts() {
		if st.Tasks[k.String()] != n {
			return fmt.Errorf("server counts %d %s reports, reference %d", st.Tasks[k.String()], k, n)
		}
	}
	v := ref.p.Snapshot()
	var means map[string]float64
	if _, err := getJSON(ctx, c, base+"/v1/query?kind=mean", &means); err != nil {
		return err
	}
	for name, want := range v.Means() {
		got, ok := means[name]
		if !ok || math.Abs(got-want) > meanTol*math.Max(1, math.Abs(want)) {
			return fmt.Errorf("mean %s: server %v, reference %v (tolerance %g)", name, got, want, meanTol)
		}
	}
	for _, a := range ref.p.Schema().Attrs {
		if a.Kind != schema.Categorical {
			continue
		}
		var fr struct {
			Freqs []float64 `json:"freqs"`
		}
		if _, err := getJSON(ctx, c, base+"/v1/query?kind=freq&attr="+url.QueryEscape(a.Name), &fr); err != nil {
			return err
		}
		want, err := v.FreqView(a.Name)
		if err != nil {
			return err
		}
		if len(fr.Freqs) != len(want) {
			return fmt.Errorf("freq %s: server has %d values, reference %d", a.Name, len(fr.Freqs), len(want))
		}
		for i := range want {
			if math.Abs(fr.Freqs[i]-want[i]) > freqTol {
				return fmt.Errorf("freq %s[%d]: server %v, reference %v (tolerance %g)", a.Name, i, fr.Freqs[i], want[i], freqTol)
			}
		}
	}
	truth := ref.popAge / ref.popW
	se := ref.ageSE()
	if d := math.Abs(means["age"] - truth); d > ageSEs*se {
		return fmt.Errorf("age mean %v is %.1f standard errors (%g) from the population's %v", means["age"], d/se, se, truth)
	}
	fmt.Fprintf(r.out, "gate: n=%d matches; means within %g and freqs within %g of the reference; age mean %.5f vs true %.5f (%.2f SE)\n",
		want, meanTol, freqTol, means["age"], truth, math.Abs(means["age"]-truth)/se)
	return nil
}
