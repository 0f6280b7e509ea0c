package main

import (
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number. N is the count of timed samples behind
// it (0 for counts and ratios that have none).
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples,omitempty"`
}

// mixSamples holds the latencies of one measured run, grouped by
// stratum — the distinct query (or query text, for lookups) an operation
// ran. shares[s] is the stratum's fixed share of the workload's traffic.
//
// The run's mean and quantiles are post-stratified: each stratum weighs
// its share of the mix, not the number of its operations that happened
// to fall inside the time window. The heavy queries are hundreds of
// times slower than the light ones, so one more or one fewer of them in
// a window would otherwise move every figure by percents.
type mixSamples struct {
	shares []float64
	ms     [][]float64
}

func newMixSamples(shares []float64) *mixSamples {
	return &mixSamples{shares: shares, ms: make([][]float64, len(shares))}
}

func (m *mixSamples) add(stratum int, d time.Duration) {
	m.ms[stratum] = append(m.ms[stratum], float64(d.Nanoseconds())/1e6)
}

func (m *mixSamples) merge(o *mixSamples) {
	for s := range o.ms {
		m.ms[s] = append(m.ms[s], o.ms[s]...)
	}
}

func (m *mixSamples) count() int {
	n := 0
	for _, s := range m.ms {
		n += len(s)
	}
	return n
}

// meanMS returns Σ share·mean(stratum) over the strata that have
// samples, renormalised to the share they cover.
func (m *mixSamples) meanMS() float64 {
	var sum, covered float64
	for s, lat := range m.ms {
		if len(lat) == 0 {
			continue
		}
		sum += m.shares[s] * mean(lat)
		covered += m.shares[s]
	}
	if covered == 0 {
		return 0
	}
	return sum / covered
}

// quantileMS returns the q-quantile of the mix's latency distribution:
// a sample of stratum s carries weight share[s]/len(stratum s).
func (m *mixSamples) quantileMS(q float64) float64 {
	type weighted struct{ v, w float64 }
	var all []weighted
	var total float64
	for s, lat := range m.ms {
		if len(lat) == 0 {
			continue
		}
		w := m.shares[s] / float64(len(lat))
		for _, v := range lat {
			all = append(all, weighted{v, w})
		}
		total += m.shares[s]
	}
	if len(all) == 0 {
		return 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	var cum float64
	for _, x := range all {
		cum += x.w
		if cum >= q*total {
			return x.v
		}
	}
	return all[len(all)-1].v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile returns the q-quantile of xs by nearest rank; xs is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e9 }

// hostStamp identifies the machine a report was measured on, so that
// baselines of different hosts can sit side by side.
type hostStamp struct {
	CPUs       int    `json:"cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

func stampHost() hostStamp {
	h := hostStamp{CPUs: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		h.Kernel = string(b)
	}
	return h
}

// runtimeMetrics reports the process's peak resident set and the share
// of CPU the collector has used, so that work moved into memory shows.
func runtimeMetrics() []metric {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	peak := 0.0
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		peak = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return []metric{
		{Name: "runtime.peak_rss_mb", Value: peak, Unit: "MB"},
		{Name: "runtime.gc_cpu_fraction", Value: ms.GCCPUFraction, Unit: "ratio"},
	}
}
