package harness

import (
	"fmt"
	"io"

	"sssj/internal/apss"
	"sssj/internal/datagen"
	"sssj/internal/index/streaming"
)

// DelayStat quantifies §4's observation that MiniBatch "reports some
// similar pairs with a delay": the gap between the moment a pair becomes
// reportable (its younger item arrives) and the moment the framework
// actually emits it, in units of the horizon τ. STR is online, so its
// delay is identically zero; MB delays intra-window pairs until the next
// window boundary, up to 2τ.
type DelayStat struct {
	Framework string
	Index     string
	Tau       float64
	Matches   int
	MeanDelay float64 // in τ units
	MaxDelay  float64 // in τ units
}

// RunDelay measures reporting delay for every framework × index on one
// dataset profile.
func RunDelay(cfg Config, dataset string, p apss.Params) ([]DelayStat, error) {
	cfg = cfg.withDefaults()
	prof, err := datagen.ProfileByName(dataset)
	if err != nil {
		return nil, err
	}
	items := prof.Scaled(cfg.Scale).Generate(cfg.Seed)
	times := make(map[uint64]float64, len(items))
	lastT := 0.0
	for _, it := range items {
		times[it.ID] = it.Time
		lastT = it.Time
	}
	tau := p.Horizon()
	var out []DelayStat
	for _, fw := range []string{FrameworkSTR, FrameworkMB} {
		for _, ix := range IndexNames() {
			j, err := newJoiner(fw, ix, p, nil, false, streaming.Adapt{})
			if err != nil {
				return nil, err
			}
			st := DelayStat{Framework: fw, Index: ix, Tau: tau}
			observe := func(ms []apss.Match, reportTime float64) {
				for _, m := range ms {
					younger := times[m.X]
					if ty := times[m.Y]; ty > younger {
						younger = ty
					}
					d := (reportTime - younger) / tau
					if d < 0 {
						d = 0
					}
					st.Matches++
					st.MeanDelay += d
					if d > st.MaxDelay {
						st.MaxDelay = d
					}
				}
			}
			for _, it := range items {
				ms, err := j.Add(it)
				if err != nil {
					return nil, err
				}
				observe(ms, it.Time)
			}
			ms, err := j.Flush()
			if err != nil {
				return nil, err
			}
			observe(ms, lastT)
			if st.Matches > 0 {
				st.MeanDelay /= float64(st.Matches)
			}
			out = append(out, st)
		}
	}
	return out, nil
}

// PrintDelay renders the delay table.
func PrintDelay(w io.Writer, dataset string, p apss.Params, stats []DelayStat) {
	fmt.Fprintf(w, "Reporting delay on %s (theta=%g lambda=%g), in units of tau\n",
		dataset, p.Theta, p.Lambda)
	fmt.Fprintf(w, "%-10s %8s %10s %10s\n", "Algorithm", "matches", "mean", "max")
	for _, s := range stats {
		fmt.Fprintf(w, "%-10s %8d %10.3f %10.3f\n",
			s.Framework+"-"+s.Index, s.Matches, s.MeanDelay, s.MaxDelay)
	}
}

// WriteCSV dumps grid results as machine-readable CSV for external
// plotting.
func WriteCSV(w io.Writer, results []Result) error {
	if _, err := fmt.Fprintln(w,
		"dataset,framework,index,theta,lambda,tau,elapsed_ms,completed,matches,entries,candidates,dots,indexed,expired,reindexings"); err != nil {
		return err
	}
	for _, r := range results {
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%g,%g,%g,%.3f,%t,%d,%d,%d,%d,%d,%d,%d\n",
			r.Dataset, r.Framework, r.Index, r.Theta, r.Lambda, r.Tau,
			float64(r.Elapsed.Microseconds())/1000, r.Completed, r.Matches,
			r.Stats.EntriesTraversed, r.Stats.Candidates, r.Stats.FullDots,
			r.Stats.IndexedEntries, r.Stats.ExpiredEntries, r.Stats.Reindexings); err != nil {
			return err
		}
	}
	return nil
}

// MeanDelayByFramework aggregates delay stats per framework, a
// convenience for tests and summaries.
func MeanDelayByFramework(stats []DelayStat) map[string]float64 {
	sum := map[string]float64{}
	n := map[string]int{}
	for _, s := range stats {
		sum[s.Framework] += s.MeanDelay
		n[s.Framework]++
	}
	out := map[string]float64{}
	for fw, total := range sum {
		out[fw] = total / float64(n[fw])
	}
	return out
}
