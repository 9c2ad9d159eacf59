package main

import (
	"fmt"
	"math"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/ldp/pm"
	"repro/internal/rng"
	"repro/internal/store"
)

// population is one workload's generated client side: every entry the
// collector will receive, in send order, plus the ground truth the
// accuracy metrics compare against. It is built before any timing
// starts; the collector sees only the entries.
type population struct {
	groups  []core.Group
	entries []store.IngestEntry
	// epochEnd[e] is the index one past the last entry of epoch e: the
	// count-based rotation points.
	epochEnd []int
	users    int
	reports  int
	// honest is the mean of the honest users' true inputs per epoch and
	// gamma the poisoned share of the smallest-budget group's reports per
	// epoch (the quantity the estimator's γ̂ probes).
	honest []float64
	gamma  []float64
	// allHonest and allGamma are the same over the whole run.
	allHonest, allGamma float64
}

// popConfig describes a population.
type popConfig struct {
	spec   core.Spec
	users  int
	epochs int
	// chunk caps the values per entry (0 = a user's values travel in one
	// entry). Chunked users report over several requests; their chunks
	// stay within a block of blockUsers consecutive users so every epoch
	// holds reports of every group.
	chunk int
	// colluders is the Byzantine user share and adv their adversary; the
	// adversary sees the user's epoch, so epoch-adaptive attacks ramp.
	colluders float64
	adv       attack.Adversary
	// valueSeed pins every value-side draw (who colludes, true inputs,
	// perturbation, poison); seed names the users. See README.md.
	valueSeed, seed uint64
}

const blockUsers = 2000

// Honest users' true inputs are uniform on [honestLo, honestHi].
const honestLo, honestHi = -0.5, 0.1

// userID names user i of a run. The seed-derived prefix gives every
// seed its own id space, so stripe assignment, node partition and hash
// layout vary with the seed while the values stay pinned.
func userID(prefix string, i int) string {
	return prefix + fmt.Sprintf("%07d", i)
}

// idPrefix derives a short user-id prefix from the run seed.
func idPrefix(seed uint64) string {
	x := seed + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return fmt.Sprintf("u%08x-", uint32(x))
}

// generate builds the population. Users are assigned round-robin to the
// protocol groups; user i belongs to epoch i·epochs/users.
func generate(c popConfig) (*population, error) {
	est, err := core.Build(c.spec)
	if err != nil {
		return nil, err
	}
	groups := est.Groups()
	h := len(groups)
	mechs := make([]*pm.Mechanism, h)
	envs := make([]attack.Env, h)
	for i, g := range groups {
		if mechs[i], err = pm.New(g.Eps); err != nil {
			return nil, err
		}
		envs[i] = attack.EnvFor(mechs[i], 0)
		envs[i].Group = g.Index
	}
	r := rng.New(c.valueSeed)
	prefix := idPrefix(c.seed)
	p := &population{
		groups:   groups,
		honest:   make([]float64, c.epochs),
		gamma:    make([]float64, c.epochs),
		epochEnd: make([]int, c.epochs),
	}
	honestN := make([]float64, c.epochs)
	probeAll := make([]float64, c.epochs)
	var hSum, hN, gPoison, gAll float64
	type user struct {
		id    string
		group int
		vals  []float64
	}
	var block []user
	flush := func() {
		// Round-major within the block: every user's first chunk, then
		// every second chunk, ... so a chunked user reports over several
		// requests.
		for round := 0; ; round++ {
			emitted := false
			for _, u := range block {
				lo := round * c.chunk
				if c.chunk == 0 {
					if round > 0 {
						break
					}
					lo = 0
				}
				if lo >= len(u.vals) {
					continue
				}
				hi := len(u.vals)
				if c.chunk > 0 {
					hi = min(lo+c.chunk, hi)
				}
				p.entries = append(p.entries, store.IngestEntry{User: u.id, Group: u.group, Values: u.vals[lo:hi]})
				emitted = true
			}
			if !emitted {
				break
			}
		}
		block = block[:0]
	}
	curEpoch := 0
	for i := 0; i < c.users; i++ {
		e := i * c.epochs / c.users
		if e != curEpoch {
			flush()
			p.epochEnd[curEpoch] = len(p.entries)
			curEpoch = e
		}
		g := groups[i%h]
		var vals []float64
		probe := g.Index == h-1
		if r.Float64() < c.colluders {
			env := envs[g.Index]
			env.Epoch = e
			if vals = c.adv.Poison(r, env, g.Reports); len(vals) == 0 {
				continue // silent colluder this epoch
			}
			if probe {
				p.gamma[e] += float64(len(vals))
				gPoison += float64(len(vals))
			}
		} else {
			v := rng.Uniform(r, honestLo, honestHi)
			p.honest[e] += v
			honestN[e]++
			hSum += v
			hN++
			vals = make([]float64, g.Reports)
			for k := range vals {
				vals[k] = mechs[g.Index].Perturb(r, v)
			}
		}
		if probe {
			probeAll[e] += float64(len(vals))
			gAll += float64(len(vals))
		}
		block = append(block, user{userID(prefix, i), g.Index, vals})
		p.users++
		p.reports += len(vals)
		if len(block) == blockUsers {
			flush()
		}
	}
	flush()
	p.epochEnd[curEpoch] = len(p.entries)
	for e := range p.honest {
		p.honest[e] /= honestN[e]
		p.gamma[e] /= probeAll[e]
	}
	p.allHonest, p.allGamma = hSum/hN, gPoison/gAll
	if math.IsNaN(p.allHonest) {
		return nil, fmt.Errorf("population has no honest users")
	}
	return p, nil
}

// batches splits entries into consecutive batches of at most n.
func batches(entries []store.IngestEntry, n int) [][]store.IngestEntry {
	var out [][]store.IngestEntry
	for lo := 0; lo < len(entries); lo += n {
		out = append(out, entries[lo:min(lo+n, len(entries))])
	}
	return out
}

// countReports sums the values of entries.
func countReports(entries []store.IngestEntry) int {
	n := 0
	for _, e := range entries {
		n += len(e.Values)
	}
	return n
}
