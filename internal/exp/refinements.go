package exp

import (
	"math"

	"treesketch/internal/esd"
	"treesketch/internal/eval"
)

// RefinementRow compares the paper-verbatim evaluator (Figures 7/8) with
// the refined default (required-edge conditioning + two-moment branch
// existence; DESIGN.md §2) on one dataset and budget.
type RefinementRow struct {
	Dataset        string
	BudgetKB       int
	PaperESD       float64
	RefinedESD     float64
	PaperSelErr    float64 // percent
	RefinedSelErr  float64 // percent
	QueriesCovered int
}

// RefinementAblation quantifies what the evaluation refinements buy on the
// -TX datasets at the given budget: both modes run the same synopses and
// workloads, so the delta is attributable to the evaluator alone.
func (r *Runner) RefinementAblation(budgetKB int) []RefinementRow {
	rows := make([]RefinementRow, 0, len(TXNames()))
	for _, name := range TXNames() {
		w := r.Workload(name, r.cfg.WorkloadSize, true)
		sanity := SanityBound(w)
		ts := r.buildTS(name, budgetKB)
		vals := forEachItem(w, func(i int, item WorkloadItem) [2]float64 {
			if item.Empty {
				return [2]float64{math.NaN(), math.NaN()}
			}
			refined := eval.Approx(ts, item.Q, eval.Options{})
			paper := eval.Approx(ts, item.Q, eval.Options{PaperMode: true})
			return [2]float64{
				esd.Distance(item.TruthESD, refined.ESDGraph()),
				esd.Distance(item.TruthESD, paper.ESDGraph()),
			}
		})
		errs := forEachItem(w, func(i int, item WorkloadItem) [2]float64 {
			if item.Empty {
				return [2]float64{math.NaN(), math.NaN()}
			}
			refined := eval.Count(ts, item.Q, eval.Options{}).Selectivity
			paper := eval.Count(ts, item.Q, eval.Options{PaperMode: true}).Selectivity
			return [2]float64{
				eval.RelativeError(item.Truth, refined, sanity),
				eval.RelativeError(item.Truth, paper, sanity),
			}
		})
		row := RefinementRow{Dataset: name, BudgetKB: budgetKB}
		for i := range w {
			if w[i].Empty {
				continue
			}
			row.QueriesCovered++
			row.RefinedESD += vals[i][0]
			row.PaperESD += vals[i][1]
			row.RefinedSelErr += 100 * errs[i][0]
			row.PaperSelErr += 100 * errs[i][1]
		}
		if row.QueriesCovered > 0 {
			n := float64(row.QueriesCovered)
			row.RefinedESD /= n
			row.PaperESD /= n
			row.RefinedSelErr /= n
			row.PaperSelErr /= n
		}
		rows = append(rows, row)
	}
	r.printf("\nAblation: evaluation refinements (budget %d KB; Paper = Figures 7/8 verbatim)\n", budgetKB)
	r.printf("%-10s %14s %14s %16s %16s\n", "Data Set", "Paper ESD", "Refined ESD", "Paper Err (%)", "Refined Err (%)")
	for _, row := range rows {
		r.printf("%-10s %14.1f %14.1f %16.2f %16.2f\n",
			row.Dataset, row.PaperESD, row.RefinedESD, row.PaperSelErr, row.RefinedSelErr)
	}
	return rows
}
