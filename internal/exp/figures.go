package exp

import (
	"math"

	"treesketch/internal/esd"
	"treesketch/internal/eval"
	"treesketch/internal/obs"
	"treesketch/internal/sketch"
	"treesketch/internal/tsbuild"
	"treesketch/internal/xsketch"
)

// CurvePoint is one point of a budget-sweep curve. XSketch is NaN for
// TreeSketch-only sweeps (Figure 13).
type CurvePoint struct {
	BudgetKB   int
	TreeSketch float64
	XSketch    float64
}

// Curve is a budget sweep for one dataset.
type Curve struct {
	Dataset string
	Points  []CurvePoint
}

// buildTS compresses the dataset's stable summary to the given budget.
func (r *Runner) buildTS(name string, budgetKB int) *sketch.Sketch {
	sk, _ := tsbuild.Build(r.Stable(name), tsbuild.Options{BudgetBytes: budgetKB * 1024})
	return sk
}

// buildXS constructs the baseline twig-XSketch at the given budget.
func (r *Runner) buildXS(name string, budgetKB int) *xsketch.Sketch {
	w := r.Workload(name, r.cfg.XSWorkload, false)
	sample := make([]xsketch.SampleQuery, len(w))
	for i, item := range w {
		sample[i] = xsketch.SampleQuery{Q: item.Q, Truth: item.Truth}
	}
	xs, _ := xsketch.Build(r.Stable(name), xsketch.BuildOptions{
		BudgetBytes: budgetKB * 1024,
		Workload:    sample,
	})
	return xs
}

// Figure11 regenerates one panel of Figure 11: average ESD of approximate
// answers vs synopsis size, TreeSketch against twig-XSketch.
func (r *Runner) Figure11(name string) Curve {
	w := r.Workload(name, r.cfg.WorkloadSize, true)
	hESD := obs.Default().Histogram("eval.approx.esd_error")
	curve := Curve{Dataset: name}
	for _, budgetKB := range r.cfg.BudgetsKB {
		ts := r.buildTS(name, budgetKB)
		xs := r.buildXS(name, budgetKB)
		pairs := forEachItem(w, func(i int, item WorkloadItem) [2]float64 {
			if item.Empty {
				return [2]float64{}
			}
			res := eval.Approx(ts, item.Q, eval.Options{})
			ans := xs.ApproxAnswer(item.Q, xsketch.AnswerOptions{Seed: r.cfg.Seed + 7})
			d := esd.Distance(item.TruthESD, res.ESDGraph())
			hESD.Observe(d)
			return [2]float64{
				d,
				esd.Distance(item.TruthESD, ans.ESDGraph()),
			}
		})
		var tsSum, xsSum float64
		n := 0
		for i, item := range w {
			if item.Empty {
				continue
			}
			n++
			tsSum += pairs[i][0]
			xsSum += pairs[i][1]
		}
		p := CurvePoint{BudgetKB: budgetKB, TreeSketch: math.NaN(), XSketch: math.NaN()}
		if n > 0 {
			p.TreeSketch = tsSum / float64(n)
			p.XSketch = xsSum / float64(n)
		}
		curve.Points = append(curve.Points, p)
	}
	r.csvCurve("fig11-"+name, curve, true)
	r.svgCurve("fig11-"+name, "Figure 11: Approximate answers — "+name, "Avg ESD", curve, true)
	r.printFigure("Figure 11: Avg ESD of approximate answers — "+name, "Avg ESD", curve, true)
	return curve
}

// Figure12 regenerates one panel of Figure 12: average relative selectivity
// estimation error vs synopsis size, TreeSketch against twig-XSketch.
func (r *Runner) Figure12(name string) Curve {
	w := r.Workload(name, r.cfg.WorkloadSize, false)
	sanity := SanityBound(w)
	hSel := obs.Default().Histogram("eval.approx.sel_error")
	curve := Curve{Dataset: name}
	for _, budgetKB := range r.cfg.BudgetsKB {
		ts := r.buildTS(name, budgetKB)
		xs := r.buildXS(name, budgetKB)
		pairs := forEachItem(w, func(i int, item WorkloadItem) [2]float64 {
			if item.Empty {
				return [2]float64{}
			}
			tsEst := eval.Count(ts, item.Q, eval.Options{}).Selectivity
			xsEst := xs.Estimate(item.Q, xsketch.EstOptions{})
			tsErr := eval.RelativeError(item.Truth, tsEst, sanity)
			hSel.Observe(tsErr)
			return [2]float64{
				tsErr,
				eval.RelativeError(item.Truth, xsEst, sanity),
			}
		})
		var tsSum, xsSum float64
		n := 0
		for i, item := range w {
			if item.Empty {
				continue
			}
			n++
			tsSum += pairs[i][0]
			xsSum += pairs[i][1]
		}
		p := CurvePoint{BudgetKB: budgetKB, TreeSketch: math.NaN(), XSketch: math.NaN()}
		if n > 0 {
			p.TreeSketch = 100 * tsSum / float64(n)
			p.XSketch = 100 * xsSum / float64(n)
		}
		curve.Points = append(curve.Points, p)
	}
	r.csvCurve("fig12-"+name, curve, true)
	r.svgCurve("fig12-"+name, "Figure 12: Selectivity estimation — "+name, "Avg Rel Error (%)", curve, true)
	r.printFigure("Figure 12: Avg selectivity error (%) — "+name, "Avg Rel Error (%)", curve, true)
	return curve
}

// Figure13 regenerates Figure 13: TreeSketch selectivity estimation error
// on the large datasets.
func (r *Runner) Figure13() []Curve {
	var curves []Curve
	hSel := obs.Default().Histogram("eval.approx.sel_error")
	for _, name := range LargeNames() {
		w := r.Workload(name, r.cfg.WorkloadSize, false)
		sanity := SanityBound(w)
		curve := Curve{Dataset: name}
		for _, budgetKB := range r.cfg.BudgetsKB {
			ts := r.buildTS(name, budgetKB)
			errs := forEachItem(w, func(i int, item WorkloadItem) [2]float64 {
				if item.Empty {
					return [2]float64{}
				}
				est := eval.Count(ts, item.Q, eval.Options{}).Selectivity
				err := eval.RelativeError(item.Truth, est, sanity)
				hSel.Observe(err)
				return [2]float64{err, 0}
			})
			var sum float64
			n := 0
			for i, item := range w {
				if item.Empty {
					continue
				}
				n++
				sum += errs[i][0]
			}
			p := CurvePoint{BudgetKB: budgetKB, TreeSketch: math.NaN(), XSketch: math.NaN()}
			if n > 0 {
				p.TreeSketch = 100 * sum / float64(n)
			}
			curve.Points = append(curve.Points, p)
		}
		r.csvCurve("fig13-"+name, curve, false)
		r.svgCurve("fig13-"+name, "Figure 13: TreeSketch error — "+name, "Avg Rel Error (%)", curve, false)
		r.printFigure("Figure 13: TreeSketch estimation error (%) — "+name, "Avg Rel Error (%)", curve, false)
		curves = append(curves, curve)
	}
	return curves
}

func (r *Runner) printFigure(title, metric string, c Curve, withXS bool) {
	r.printf("\n%s\n", title)
	if withXS {
		r.printf("%-12s %18s %18s\n", "Budget (KB)", "TreeSketch", "TwigXSketch")
		for _, p := range c.Points {
			r.printf("%-12d %18.2f %18.2f\n", p.BudgetKB, p.TreeSketch, p.XSketch)
		}
		return
	}
	r.printf("%-12s %18s\n", "Budget (KB)", metric)
	for _, p := range c.Points {
		r.printf("%-12d %18.2f\n", p.BudgetKB, p.TreeSketch)
	}
}
